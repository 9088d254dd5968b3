(** Generalized Assignment Problem instances.

    Each of [items] must be assigned to exactly one of [servers];
    assigning item [j] to server [i] costs [costs.(j).(i)] and consumes
    [demands.(j).(i)] of server [i]'s capacity. Both the paper's IAP
    (Def. 2.2) and RAP (Def. 2.3) are instances of this form — the RAP
    simply has a server-dependent demand (0 on the client's own target,
    [2 R^T] elsewhere). *)

type t = {
  costs : float array array;    (** item -> server -> cost *)
  demands : float array array;  (** item -> server -> capacity use *)
  capacities : float array;
}

val make :
  costs:float array array -> demands:float array array -> capacities:float array -> t
(** Raises [Invalid_argument] on ragged matrices, mismatched sizes,
    negative demands/capacities, or zero items/servers. *)

val item_count : t -> int
val server_count : t -> int

val objective : t -> int array -> float
(** Total cost of an assignment (item -> server). *)

val is_feasible : ?eps:float -> t -> int array -> bool
(** Whether an assignment respects every capacity. *)

val lp_relaxation : t -> Lp.t
(** The continuous relaxation: fractional [x_ij >= 0] with per-item
    convexity equalities and per-server capacity inequalities.
    Variable [x_ij] is at index [j * servers + i]. *)
