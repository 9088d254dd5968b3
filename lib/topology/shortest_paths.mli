(** Shortest-path computations over {!Graph.t}.

    Edge weights are interpreted as link round-trip delays, so a
    shortest-path distance is an end-to-end round-trip delay.
    Unreachable pairs have distance [infinity]. *)

val dijkstra : Graph.t -> src:int -> float array
(** Single-source distances. O((V + E) log V). *)

val all_pairs : Graph.t -> float array array
(** All-pairs distances via repeated Dijkstra. *)
