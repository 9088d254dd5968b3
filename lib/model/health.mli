(** Server and backbone-link availability mask — the model-layer view
    of failures.

    A [Health.t] tracks, per server, whether it is up and how much
    extra RTT it currently adds (a "degraded" server answers, slowly),
    and, per inter-server link, whether the link is cut or degraded by
    an extra RTT. {!apply} projects the mask onto a {!World.t}: a dead
    server's capacity drops to 0 and its delay penalty becomes
    [infinity] (so any client still routed through it has unbounded
    delay and no QoS); a degraded server keeps its capacity but
    inflates every path that touches it; link damage replaces the
    direct inter-server RTT matrix with effective delays routed around
    the damage over the surviving mesh (see {!Cap_topology.Overlay}),
    with [infinity] across partitions.

    The mask is mutable — the dynamic simulator updates it in place as
    fault events fire — and worlds stay immutable: re-apply the mask to
    the pristine world after every change. *)

type t = {
  alive : bool array;          (** server id -> is the server up? *)
  delay_penalty : float array; (** server id -> extra RTT, ms (alive servers only) *)
  link_cut : bool array array;
      (** symmetric: [link_cut.(i).(j)] iff the i-j backbone link is
          severed. The diagonal is unused and stays [false]. *)
  link_penalty : float array array;
      (** symmetric: extra RTT, ms, on the i-j link (0 when healthy;
          only meaningful while the link is not cut). *)
}

val create : servers:int -> t
(** All servers up, all links healthy. Raises [Invalid_argument] if
    [servers <= 0]. *)

val server_count : t -> int
val is_alive : t -> int -> bool
val alive_count : t -> int
val all_alive : t -> bool

val links_pristine : t -> bool
(** No link cut and no link degraded. *)

val is_pristine : t -> bool
(** Everything up, no server penalties, links pristine: {!apply} would
    be the identity. *)

val alive_mask : t -> bool array
(** A fresh copy of the per-server liveness array, for the [?alive]
    parameter of the failure-aware solvers. *)

val crash : t -> int -> unit
(** Mark a server down (clearing any degradation). Idempotent. *)

val recover : t -> int -> unit
(** Mark a server up again with no penalty. Idempotent. *)

val degrade : t -> int -> delay_penalty:float -> unit
(** Set an alive server's delay penalty; ignored for a dead server.
    Raises [Invalid_argument] on a negative penalty. *)

val cut_link : t -> int -> int -> unit
(** Sever the (undirected) link between two distinct servers, clearing
    any link degradation. Idempotent. Raises [Invalid_argument] on
    out-of-range or equal endpoints. *)

val restore_link : t -> int -> int -> unit
(** Bring a link back up with no penalty. Idempotent. *)

val degrade_link : t -> int -> int -> delay_penalty:float -> unit
(** Set a link's extra RTT; ignored while the link is cut (mirroring
    {!degrade} on a dead server). Raises [Invalid_argument] on a
    negative penalty or bad endpoints. *)

val link_is_cut : t -> int -> int -> bool
val link_delay_penalty : t -> int -> int -> float
(** One link's state; exposed for tests, which check the mask a fault
    schedule leaves. *)

val cut_link_count : t -> int
(** Number of currently severed undirected links. *)

val partition_count : t -> int
(** Number of connected components among live servers under the
    current link damage: 1 when the mesh is whole, >= 2 when
    partitioned, 0 when every server is dead. *)

val apply : t -> World.t -> World.t
(** A world whose capacities, per-server delay penalties and (under
    link damage) effective inter-server RTT mesh reflect the mask.
    Raises [Invalid_argument] on a server-count mismatch. *)
