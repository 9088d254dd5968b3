(** Paper Table 3 — pQoS under DVE dynamics: the assignment before
    churn, right after 200 joins / 200 leaves / 200 moves (without
    re-running anything), and after re-executing each algorithm on the
    perturbed world. Default configuration with delta = 0.

    Extension: an [incremental] column shows our migration-bounded
    refresh ({!Cap_core.Incremental}) applied instead of a full
    re-execution, together with the zone handoffs it spent — the paper
    re-executes everything, which retargets many zones. *)

type row = {
  name : string;
  before : float;
  after : float;
  executed : float;
  incremental : float;        (** pQoS after the bounded refresh (ours) *)
  zone_moves : float;         (** mean zone handoffs the refresh used *)
  executed_zone_moves : float;
      (** mean zone handoffs a full re-execution would cause *)
}

type t = row list

val run :
  ?runs:int -> ?seed:int -> ?spec:Cap_model.Churn.spec -> ?max_zone_moves:int -> unit -> t

val to_table : t -> Cap_util.Table.t
