(** The paper's two-phase algorithms for the client assignment problem:
    every combination of an initial-assignment (IAP) and a
    refined-assignment (RAP) heuristic. *)

type iap = Cap_util.Rng.t -> Cap_model.World.t -> int array
(** An initial-assignment algorithm: zones to target servers. *)

type rap = Cap_util.Rng.t -> Cap_model.World.t -> targets:int array -> int array
(** A refined-assignment algorithm: clients to contact servers, given
    the zone targets. *)

type t = {
  name : string;
  iap : iap;
  rap : rap;
}

val ranz_virc : t
val grez_virc : t
val grez_grec : t

val all : t list
(** The four algorithms of the paper, in its column order. *)

val grez_grec_dynamic : t
(** Extension: GreZ with dynamic regret recomputation, composed with
    GreC (ablation). *)

val grez_grec_paper_regret : t
(** Ablation: both greedy phases with the regret formula exactly as
    printed in the paper's pseudo-code. *)

val find : string -> t option
(** Look up any of the above by (case-insensitive) name. *)

val run : t -> Cap_util.Rng.t -> Cap_model.World.t -> Cap_model.Assignment.t
(** Execute both phases and package the result. *)
