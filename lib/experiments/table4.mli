(** Paper Table 4 — impact of imperfect delay-estimation input: the
    algorithms decide on delays perturbed by a multiplicative error
    factor e (1.2 for King, 2 for IDMaps) while pQoS and R are
    evaluated on the true delays. Default configuration. *)

type cell = {
  pqos : float;
  utilization : float;
}

type t = (float * (string * cell) list) list
(** error factor -> per-algorithm means. *)

val run : ?runs:int -> ?seed:int -> ?factors:float list -> unit -> t

val to_table : t -> Cap_util.Table.t
