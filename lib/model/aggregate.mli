(** Client aggregation: the million-client data plane.

    The per-client two-phase heuristics cost O(k * m) per solve — a
    scan of every client's server row, slow at k = 1M. But clients are not unique: a zone's members that
    sit in the same corner of the network are interchangeable to both
    GreZ (their indicator costs match) and GreC (their refined costs
    match). This module collapses clients into weighted
    (zone x network-cluster) groups: nodes are clustered by their
    Vivaldi coordinates, each group carries its member count as
    weight, and each group's server RTT row is the weighted mean of
    its members' node rows. Solvers then run over thousands of groups
    instead of millions of clients, and {!Cap_core.Agg_solve} writes
    per-client contacts from each group's member list.

    When [buckets >= nodes] every group is a single (zone, node)
    equivalence class, the weighted mean degenerates to the exact node
    row, and aggregation is lossless — the property the exactness
    tests pin on small worlds.

    Building an aggregation never touches the k x m matrices: group
    rows are computed from the cached node x server rows in
    O(clients + nnz(zone, node) * m), where nnz(zone, node) is the
    number of occupied (zone, node) pairs (plus a scan of integer
    counts over each group's bucket nodes). Members are counted by
    node one zone at a time, so no zones x nodes table is built. *)

type t = private {
  world : World.t;
  buckets : int;  (** node clusters actually used, [<= nodes] *)
  bucket_of_node : int array;  (** node -> cluster *)
  groups : int;
  group_zone : int array;  (** group -> zone; ids ascend zone-major *)
  group_weight : int array;  (** group -> member count, >= 1 *)
  zone_group_off : int array;
      (** zone CSR: groups of zone [z] are ids
          [zone_group_off.(z) .. zone_group_off.(z+1) - 1] *)
  group_off : int array;  (** member CSR offsets, length groups + 1 *)
  group_clients : int array;  (** member CSR payload, ascending ids *)
  gs_rtt : World.f32;
      (** observed group-server RTT, [group * servers + server]:
          weighted mean of the member nodes' cached rows *)
  gs_rtt_true : World.f32;  (** same, true delay model *)
}

val default_buckets : int
(** 16 — small enough that group matrices are tens of MB at m = 500,
    large enough to separate network neighbourhoods. *)

val build : Cap_util.Rng.t -> ?buckets:int -> World.t -> t
(** Cluster the topology nodes (Vivaldi embedding of the observed
    delays + deterministic k-means seeded from [rng]; identity when
    [buckets >= nodes], which also skips the embedding) and derive the
    weighted groups. Deterministic per rng state and pool-size
    independent. Raises [Invalid_argument] if [buckets < 1]. *)

val group_count : t -> int

val members : t -> int -> int array
(** Client ids of one group, ascending. *)
