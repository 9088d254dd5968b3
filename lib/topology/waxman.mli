(** Waxman random graphs with geometric edge preference.

    The connection probability between nodes at distance [d] is
    [alpha * exp (-. d /. (beta *. l))] where [l] is the largest
    possible distance in the placement square — the model BRITE uses
    for router-level topologies, grown with BRITE's incremental mode
    (always connected). *)

type t = {
  graph : Graph.t;
  points : Point.t array;
}

val probability : alpha:float -> beta:float -> max_distance:float -> float -> float
(** Connection probability for a pair at the given distance. Raises
    [Invalid_argument] unless [0 < alpha <= 1], [beta > 0] and
    [max_distance > 0]. *)

val generate_incremental :
  Cap_util.Rng.t ->
  n:int ->
  m:int ->
  alpha:float ->
  beta:float ->
  ?x0:float ->
  ?y0:float ->
  side:float ->
  unit ->
  t
(** BRITE incremental growth: nodes join one at a time and connect to
    [min m i] distinct existing nodes drawn with Waxman-weighted
    probability. The result is connected by construction. Edge weights
    are Euclidean distances. Raises [Invalid_argument] if [n < 1] or
    [m < 1]. *)
