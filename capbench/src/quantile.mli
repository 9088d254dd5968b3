(** Nearest-rank percentiles and the rule for which tail a sample can
    support.

    The nearest-rank [p]-th percentile of [n] sorted values is the
    value at rank [ceil (p/100 * n)] (1-based): the smallest sample
    with at least [p]% of the sample at or below it. A percentile is
    {e supported} when at least ten samples lie beyond it, so one
    outlier cannot set it alone. *)

val rank : n:int -> float -> int
(** 1-based nearest rank of percentile [p] in a sample of [n].
    Raises [Invalid_argument] when [n < 1] or [p] is outside
    (0, 100]. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p]; [sorted] must be ascending and non-empty. *)

val beyond : n:int -> float -> int
(** Samples strictly after the nearest rank of [p]. *)

val supported : n:int -> float -> bool
(** [beyond ~n p >= 10]. *)

val sorted_copy : float array -> float array
val median : float array -> float

val best : higher:bool -> float array -> float
(** The best of repeated measurements of the same work: the largest
    when [higher] values are better, else the smallest. Other work on
    a shared machine only ever slows a repeat down, so the best repeat
    is the one that tracks the program's own speed. Raises
    [Invalid_argument] on an empty array. *)
