(** Paper Fig. 5 — impact of the physical/virtual world correlation
    delta on pQoS (a) and resource utilization R (b), for the default
    configuration with a 200 ms delay bound. *)

type t = {
  deltas : float array;
  pqos : (string * float array) list;         (** algorithm -> per-delta mean *)
  utilization : (string * float array) list;
}

val run : ?runs:int -> ?seed:int -> unit -> t

val to_tables : t -> Cap_util.Table.t * Cap_util.Table.t
(** pQoS table and utilization table. *)

val slope : t -> string -> float
(** pQoS gain of an algorithm from the smallest to the largest delta —
    the paper's headline here is that GreZ-* rise sharply with
    correlation while RanZ-* stay flat. Exposed for tests, which check
    that shape. *)
