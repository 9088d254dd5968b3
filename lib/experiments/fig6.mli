(** Paper Fig. 6 — impact of clustered client distributions in the
    physical world (PW) and virtual world (VW) on pQoS (a) and R (b),
    for the default configuration.

    Distribution types follow the paper's Table 2, shifted to the
    figure's 1-based axis: type 1 = no clustering, type 2 = PW only,
    type 3 = VW only, type 4 = PW and VW. Hot zones/nodes carry 10x the
    population weight. *)

type t = {
  types : int array;  (** 1..4 *)
  pqos : (string * float array) list;
  utilization : (string * float array) list;
}

val distribution_of_type :
  int -> Cap_model.Distribution.physical * Cap_model.Distribution.virtual_world
(** The placement models behind each type. Raises [Invalid_argument]
    outside 1..4. *)

val run : ?runs:int -> ?seed:int -> unit -> t

val to_tables : t -> Cap_util.Table.t * Cap_util.Table.t
