(** A generated DVE instance: topology, delays, server placement and
    capacities, and client placement in both worlds.

    Worlds are immutable; churn (see {!Churn}) builds a new world that
    shares the topology and servers. All delays are round-trip times in
    milliseconds. The [observed] delay model is what assignment
    algorithms are allowed to read; it equals the true model unless
    estimation error has been applied. *)

(** Effective inter-server RTT matrices when the backbone mesh is
    damaged (links cut or degraded — see {!Health} and
    {!Cap_topology.Overlay}). Entries are the full server-to-server
    delay with the well-provisioned discount already applied;
    [infinity] marks pairs in different partition components. One
    matrix per delay model, because algorithms route on observed
    delays while metrics read true ones. *)
type mesh = {
  true_rtt : float array array;
  observed_rtt : float array array;
}

type f32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Unboxed float32 matrix storage: flat, row-major, C layout. Half
    the bytes of a float array, no per-row boxing, and invisible to
    the OCaml GC — the representation every dense RTT matrix below
    uses. Reads and writes convert through double; RTTs are stored
    f32-rounded (one part in 2^24, microseconds at the millisecond
    magnitudes involved). *)

(** The client x server RTT matrices — by far the largest derived
    data (2 GB at k = 1M, m = 500 per model) — forced separately via
    {!dense}. Every row is a bit-for-bit copy of the client's node row
    of [ns_rtt] / [ns_rtt_true], so no solver reads them: the exact
    solvers index the node tier through [client_nodes] and the
    aggregated ones work on group-level matrices. *)
type dense = private {
  cs_rtt : f32;
      (** observed client-server RTT, [client * c_servers + server];
          server delay penalties baked in (= {!node_server_rtt} of
          the client's node, f32-rounded) *)
  cs_rtt_true : f32;  (** same, true delay model *)
}

(** Lazily-built derived data, read by every solver hot path. All
    lookups that used to scan the [k] clients ([zone_population],
    [client_rate], [zone_rate]) become O(1) array reads, and the delay
    model is densified into flat row-major float32 matrices so matrix
    fills walk contiguous memory. The cache is a pure function of the
    world; any function that derives a modified world installs a
    fresh, empty slot ({!fresh_cache}), which is what makes
    invalidation explicit: stale data cannot survive because it lives
    only on the world value it was computed from. The client x server
    matrices hang off the cache value in their own {!dense} slot, so
    they inherit the same invalidation-by-construction contract. *)
type cache = private {
  c_servers : int;  (** row stride of [cs_rtt] / [ss_rtt] / [ns_rtt] *)
  zone_pop : int array;  (** zone -> client count *)
  zone_rate_of : float array;  (** zone -> R_z, bits/s *)
  zone_client_rate : float array;
      (** zone -> per-client R^T under the zone's population; [nan]
          for empty zones (never read: a client's zone holds it) *)
  zone_off : int array;  (** CSR offsets, length zones + 1 *)
  zone_clients : int array;
      (** CSR payload: clients of zone [z] are
          [zone_clients.(zone_off.(z)) .. zone_clients.(zone_off.(z+1) - 1)],
          ascending *)
  ns_rtt : f32;
      (** observed node-server RTT, [node * c_servers + server];
          penalties baked in (= {!node_server_rtt} f32-rounded). The
          client rows of {!dense} are copies of these rows, so
          [ns_rtt.{client_nodes.(c) * c_servers + s}] is client [c]'s
          observed RTT to server [s]; every solver reads it here. *)
  ns_rtt_true : f32;  (** same, true delay model *)
  ss_rtt : f32;
      (** observed server-server RTT, [s1 * c_servers + s2]; mesh
          override and penalties baked in (= {!server_server_rtt}) *)
  ss_rtt_true : f32;  (** same, true delay model *)
  dense : dense option Atomic.t;
      (** client x server matrices, forced by {!dense}; access through
          that function, not this slot *)
}

type t = {
  scenario : Scenario.t;
  delay : Cap_topology.Delay.t;     (** true node-to-node RTTs *)
  observed : Cap_topology.Delay.t;  (** RTTs as seen by algorithms *)
  region_of_node : int array;       (** node -> geographic region *)
  regions : int;
  server_nodes : int array;         (** server id -> topology node *)
  capacities : float array;         (** server id -> capacity, bits/s *)
  server_delay_penalty : float array;
      (** server id -> additive RTT penalty, ms: 0 for a healthy
          server, positive for a degraded one, [infinity] for a dead
          one (see {!Health}). Applied to every path touching the
          server, in both the observed and the true delay model. *)
  server_mesh : mesh option;
      (** [None] for a pristine, fully meshed backbone (the paper's
          assumption, and what {!generate} produces); [Some] when link
          health has been baked in by {!Health.apply}, replacing the
          direct inter-server RTTs with overlay-routed effective
          delays. *)
  client_nodes : int array;         (** client id -> topology node *)
  client_zones : int array;         (** client id -> zone id *)
  sampler : Distribution.t;         (** placement sampler (reused by churn) *)
  cache : cache option Atomic.t;
      (** lazily-built derived data; see {!cache}. Every record update
          that changes clients, delays, penalties or the mesh MUST
          install {!fresh_cache} here. *)
}

val cached : t -> cache
(** The world's derived-data cache, built on first use (node-server
    rows fill in parallel over {!Cap_par.Pool.default}). O(k + n*m):
    does NOT force the k x m client matrices — see {!dense}. Safe to
    call from any domain; concurrent first calls race benignly and
    agree on one winner. *)

val dense : t -> dense
(** The k x m client-server RTT matrices, built on first use by
    blocked row-parallel copies of the cached node rows. No solver
    forces this — they read the node rows directly, which
    stay in cache where the k x m copy cannot. It stays for callers
    that want the client tier materialised, such as the
    stage-by-stage decomposition in capbench's planner workload,
    which times it as [model.world_dense_s]: a stage the one-call
    exact solve skips. Same benign concurrency as {!cached}. *)

val fresh_cache : unit -> cache option Atomic.t
(** An empty cache slot. Use in any [{ w with ... }] update that
    invalidates derived data (new clients, delays, penalties, mesh). *)

val invalidate : t -> unit
(** Drop the cached derived data in place; the next {!cached} call
    rebuilds. Only needed if a world's arrays are mutated directly —
    the library itself never does that. *)

val generate : Cap_util.Rng.t -> Scenario.t -> t
(** Build a world: generate the topology, compute the delay model,
    place servers on distinct nodes, draw capacities, and place
    clients per the scenario's distributions and correlation. *)

val with_estimation_error : Cap_util.Rng.t -> factor:float -> t -> t
(** A copy whose [observed] delays are perturbed by the multiplicative
    error model; true delays are unchanged. *)

val with_vivaldi_observed :
  Cap_util.Rng.t -> ?params:Cap_topology.Vivaldi.params -> t -> t
(** A copy whose [observed] delays come from a Vivaldi coordinate
    embedding of the true delays — a structured, realistic "imperfect
    input" model (extension of the paper's Table 4). *)

val server_count : t -> int
val zone_count : t -> int
val client_count : t -> int
val node_count : t -> int

val zone_population : t -> int array
(** zone id -> number of clients currently in the zone. *)

val client_rate : t -> int -> float
(** [R^T_c] for a client, bits/s, under the current populations. *)

val forwarding_rate : t -> int -> float
(** [R^C_c = 2 R^T_c] for a client, bits/s. *)

val zone_rate : t -> int -> float
(** [R_z] for a zone, bits/s. *)

val total_demand : t -> float
(** Sum of all zone rates, bits/s. *)

val total_capacity : t -> float

(** Delays. [true_] variants always read the unperturbed model; plain
    variants read the observed model and are what algorithms use. *)

val node_server_rtt : t -> node:int -> server:int -> float
(** Observed RTT from an arbitrary topology node to a server, with the
    server's delay penalty applied — the client-server delay of a
    client that is not (yet) part of this world's population. Used by
    the online service to price a joining client before it is
    materialised. *)

val server_server_rtt : t -> int -> int -> float
(** Inter-server RTT with the well-provisioned discount applied; 0 for
    a server and itself. Reads [server_mesh] when present, so under
    link faults this is the overlay-routed effective delay
    ([infinity] across a partition). *)

val true_client_server_rtt : t -> client:int -> server:int -> float
val true_server_server_rtt : t -> int -> int -> float

val server_rtt_base : Cap_topology.Delay.t -> t -> int -> int -> float
(** Pristine direct inter-server RTT in the given delay model — the
    well-provisioned discount applied, but no per-server penalties and
    no [server_mesh] override. This is the base matrix the overlay
    reroutes over. *)

val servers_reachable : t -> int -> int -> bool
(** Whether two servers can exchange traffic: same server, or a finite
    effective true RTT between them (same partition component, both
    endpoints alive). *)

val replace_clients : t -> client_nodes:int array -> client_zones:int array -> t
(** A world with a different client population (used by churn and the
    dynamic simulator). Raises [Invalid_argument] if the arrays differ
    in length or reference unknown nodes/zones. *)
