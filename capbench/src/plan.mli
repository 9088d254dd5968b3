(** The planner workloads: world generation, then the two-phase solve
    on the dense tier ([Two_phase.run grez_grec]) or on client groups
    ([Agg_solve.solve]). *)

type spec = {
  servers : int;
  zones : int;
  clients : int;
  aggregated : bool;
}

val exact : spec
(** plan-exact: 100 servers, 400 zones, 50k clients, per-client solve, jobs 1. *)

val aggregated : spec
(** plan-agg: 200 servers, 1000 zones, 200k clients, aggregated solve, jobs 1. *)

val run : spec -> seed:int -> worlds:int -> repeats:int -> trace:bool -> unit -> Catalog.outcome
(** Generate the fixed network several times (set-up), solve its own
    clients once for pqos, draw [worlds] client populations from [seed],
    and solve each [repeats] times, checking that every solve is valid
    and repeats exactly. With
    [trace], each solve is followed by the same solve split into its
    stages, which must give the same assignment. *)
