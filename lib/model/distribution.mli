(** Client placement models for the physical and virtual worlds.

    The paper simulates uniform and clustered client distributions in
    both worlds (hot zones / hot regions with ~10x the population), and
    couples the two with a correlation parameter delta in [0, 1]: the
    larger delta, the stronger the tendency of physically co-located
    clients to gather in the same zones of the virtual world. *)

type physical =
  | Uniform_physical
      (** clients appear at every topology node with equal probability *)
  | Clustered_physical of { clusters : int; weight : float }
      (** [clusters] randomly chosen nodes are [weight] times more
          likely than the others *)

type virtual_world =
  | Uniform_virtual
      (** clients pick every zone with equal probability *)
  | Clustered_virtual of { hot_zones : int; weight : float }
      (** [hot_zones] randomly chosen zones are [weight] times more
          likely than the others *)

type t
(** A sampler for client placements, built once per generated world so
    hot nodes/zones and the region->zone preference map stay fixed
    within a run. *)

val prepare :
  Cap_util.Rng.t ->
  physical:physical ->
  virtual_world:virtual_world ->
  correlation:float ->
  nodes:int ->
  zones:int ->
  region_of_node:(int -> int) ->
  regions:int ->
  t
(** Precompute node weights, zone weights and each region's preferred
    zones. Raises [Invalid_argument] if [correlation] is outside
    [0, 1], sizes are non-positive, cluster parameters are
    non-positive, or cluster counts exceed the population they are
    drawn from. *)

val sample_node : t -> Cap_util.Rng.t -> int
(** Draw a physical node for a new client. *)

val sample_zone : t -> Cap_util.Rng.t -> node:int -> int
(** Draw a virtual zone for a client at [node]: with probability
    [correlation] from the node's region's preferred zones, otherwise
    from the global zone distribution (both respect hot-zone
    weights). *)

val preferred_zones : t -> region:int -> int list
(** The preferred zone set of a region (for tests and diagnostics). *)
