(** GreZ — greedy initial assignment of zones (paper §3.1, Fig. 2).

    Desirability of hosting zone [z_j] on server [s_i] is
    [mu_ij = -C^I_ij] (the negated count of the zone's clients that
    would miss the delay bound). Zones are processed in regret order —
    the zone whose best option beats its alternatives by the most goes
    first — and each takes the most desirable server with sufficient
    remaining capacity, in the spirit of greedy heuristics for the
    Generalized Assignment Problem. *)

val assign :
  ?rule:Regret.rule ->
  ?dynamic:bool ->
  ?alive:bool array ->
  Cap_model.World.t ->
  int array
(** Returns the target server of each zone, deterministically.

    [rule] selects the regret reading (default {!Regret.Best_minus_second};
    see DESIGN.md). [dynamic] (default [false]) recomputes regrets over
    the servers that are still feasible after every placement instead
    of once up front — an extension ablated in the experiments.
    Desirability ties are broken towards the server with the lower mean
    observed delay to the zone's clients. Infeasible leftovers fall
    back to the largest-residual server, as in {!Ranz}.

    [alive] (default: all servers) restricts placement to the servers
    whose entry is [true]; dead servers are never targeted, even by the
    fallback. Raises [Invalid_argument] if the mask's length does not
    match the world's servers or if it leaves no alive server. *)

val place_zones :
  ?rule:Regret.rule ->
  ?alive:bool array ->
  costs:int array array ->
  delays:float array array ->
  rates:float array ->
  capacities:float array ->
  unit ->
  int array * int
(** The static placement over precomputed zone tables: zones in regret
    order (over [-costs], all servers), each on its first feasible
    server in (cost, mean delay, index) order, the fallback when none
    fits. Returns the targets and the number of fallback placements.
    {!assign} runs it on {!Cost.zone_tables}; the aggregated solver
    runs it on tables built from client groups. *)
