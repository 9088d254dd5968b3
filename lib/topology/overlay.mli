(** Effective server-to-server delays over a damaged backbone mesh.

    The paper assumes the [m] servers are fully meshed over
    well-provisioned links, so the contact->target forwarding delay is
    always the direct RTT. This module drops that assumption: given a
    per-link state (up, cut, or degraded by an extra RTT penalty) and a
    per-server liveness predicate, it recomputes the delay actually
    achievable by routing around dead links over the surviving mesh
    (Dijkstra over healthy links, via {!Shortest_paths}) and reports
    the connected components of the damaged mesh (via
    {!Cap_util.Union_find}).

    Dead servers neither originate traffic nor relay it; every link
    incident to a dead server is treated as down. Pairs in different
    components have effective delay [infinity]. *)

(** State of one undirected backbone link. [Degraded p] adds [p] (same
    unit as the base RTT, i.e. milliseconds) to the link's delay; the
    penalty must be positive and finite. *)
type link_state =
  | Up
  | Cut
  | Degraded of float

type t

val build :
  servers:int ->
  ?alive:(int -> bool) ->
  base_rtt:(int -> int -> float) ->
  link:(int -> int -> link_state) ->
  unit ->
  t
(** [build ~servers ?alive ~base_rtt ~link ()] computes effective
    delays for the [servers]-node mesh whose pristine symmetric RTT is
    [base_rtt i j] (queried only for [i <> j]) under the damage
    described by [link i j] (queried once per unordered pair) and
    [alive] (default: every server alive).

    When every server is alive and every link is [Up] the pristine
    matrix is returned verbatim — no rerouting is attempted — so a
    fully healed overlay is bitwise-identical to the undamaged one
    even if the base delays violate the triangle inequality.

    Raises [Invalid_argument] if [servers <= 0], or if a [Degraded]
    penalty is non-positive or not finite. *)

val pristine : t -> bool
(** Whether the mesh is undamaged (all servers alive, all links [Up]). *)

val effective_rtt : t -> int -> int -> float
(** Effective round-trip delay between two servers: the pristine RTT
    when undamaged, otherwise the shortest route over surviving links.
    [infinity] when unreachable (different components, or either
    endpoint dead); 0 for [i = j]. *)

val reachable : t -> int -> int -> bool
(** [reachable t i j] iff [effective_rtt t i j < infinity]. A server
    always reaches itself. *)

val component_of : t -> int -> int
(** Dense component id of a server (ids are assigned in increasing
    order of the smallest member). Dead servers belong to no component
    and return [-1]. *)

val component_count : t -> int
(** Number of connected components among live servers; 0 when every
    server is dead. 1 means the mesh is not partitioned. *)

val components : t -> int array array
(** Live servers grouped by component, each group sorted ascending,
    groups ordered by their dense id. *)
