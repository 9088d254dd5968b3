(** Paper Table 1 — pQoS (and resource utilization R, in brackets) of
    the four two-phase heuristics across DVE configurations, plus the
    optimal branch-and-bound baseline on the two small
    configurations. *)

type cell = {
  pqos : float;
  utilization : float;
}

type optimal_cell = {
  cell : cell;
  iap_seconds : float;      (** mean wall time of the IAP search *)
  rap_seconds : float;      (** mean wall time of the RAP search *)
  proven_fraction : float;  (** runs where both phases proved optimality *)
}

type row = {
  scenario : Cap_model.Scenario.t;
  cells : (string * cell) list;  (** per-algorithm means, paper order *)
  optimal : optimal_cell option;
}

type t = row list

val run :
  ?runs:int ->
  ?seed:int ->
  ?with_optimal:bool ->
  ?optimal_time_limit:float ->
  unit ->
  t
(** Defaults: [runs] from {!Common.default_runs}, [seed] 1,
    [with_optimal] true (small configurations only),
    [optimal_time_limit] 5 wall-clock seconds per phase per run. *)

val to_table : t -> Cap_util.Table.t
(** Rendered with the paper's value next to each measured one. *)
