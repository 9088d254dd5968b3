(** Paper Fig. 4 — cumulative distribution of client-to-target delays
    for the 30s-160z-2000c-1000cp configuration, one series per
    algorithm over the delay axis 250..500 ms. *)

type t = {
  grid : float array;                   (** delay axis, ms *)
  series : (string * float array) list; (** algorithm -> mean CDF values *)
}

val run : ?runs:int -> ?seed:int -> unit -> t

val to_table : t -> Cap_util.Table.t

val crossing_delay : t -> string -> float -> float option
(** Smallest grid delay at which an algorithm's CDF reaches the given
    level, e.g. [crossing_delay t "GreZ-GreC" 0.99]. *)
