(** The paper's assignment cost metrics.

    Both metrics are computed on the world's {e observed} delays — the
    information actually available to an assignment algorithm — which
    may differ from true delays under estimation error (Table 4). All
    reads go through the cached float32 node x server matrix
    ([ns_rtt] of {!Cap_model.World.cached}), indexed by each client's
    node, so every cost, tie-break and late-client test sees the same
    f32-rounded RTT value. None of them forces the k x m client tier
    ({!Cap_model.World.dense}), whose rows are copies of these.

    - Initial (Eq. 3): [C^I_ij] is the number of clients of zone [z_j]
      that would be without QoS if [z_j] were hosted on server [s_i],
      i.e. whose observed RTT to [s_i] exceeds the bound [D].
    - Refined (Eq. 8): [C^R] for client [c_j] and candidate contact
      [s_k] with target [s_i] is how far the relayed delay
      [d(c_j, s_k) + d(s_k, s_i)] overshoots [D], or 0 if within. *)

val initial : Cap_model.World.t -> zone_members:int array -> server:int -> int
(** [C^I] of one zone (given its member client ids) on one server. *)

val initial_matrix : Cap_model.World.t -> int array array
(** [C^I] for every zone and server: row per zone, column per server.
    O(k * m) in total. *)

val fill_initial_matrix : Cap_model.World.t -> int array array -> unit
(** [fill_initial_matrix world rows] is {!initial_matrix} written into
    a caller-owned zones x servers buffer — the allocation-free variant
    for callers that refresh repeatedly against same-shape worlds (see
    {!Incremental.make_state}). Raises [Invalid_argument] when the
    buffer shape does not match the world: a row count other than the
    zone count, or any row whose length is not the server count. *)

val zone_tables : Cap_model.World.t -> int array array * float array array
(** [(costs, delays)]: {!initial_matrix} and, per zone and server, the
    mean observed RTT from the zone's clients (0 for an empty zone) —
    GreZ's desirability and tie-break, filled in one scan. *)

val refined :
  Cap_model.World.t -> targets:int array -> client:int -> contact:int -> float
(** [C^R] of selecting [contact] for [client], whose target is
    [targets.(zone of client)]. *)

val refined_matrix : Cap_model.World.t -> targets:int array -> float array array
(** [C^R] for every client and candidate contact server: row per
    client, column per server. *)

val relayed_delay :
  Cap_model.World.t -> targets:int array -> client:int -> contact:int -> float
(** Observed end-to-end delay [d(c, contact) + d(contact, target)]. *)
