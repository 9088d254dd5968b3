(** A complete client-to-server assignment: a target server per zone
    (initial phase) and a contact server per client (refined phase) —
    together with the metrics the paper reports over it.

    Delay semantics (paper §2.1): a client [c] with contact [l] and
    target [k] experiences round-trip delay [d(c,l) + d(l,k)], where
    the second term is 0 when [l = k]; [c] "has QoS" when that delay is
    at most the scenario's bound [D]. Metrics are always evaluated on
    the world's true delays. *)

type t = {
  target_of_zone : int array;     (** zone id -> server id, or {!unassigned} *)
  contact_of_client : int array;  (** client id -> server id, or {!unassigned} *)
}

val unassigned : int
(** Sentinel ([-1]) for a zone or client that currently has no server:
    the explicit degraded state when surviving capacity cannot host
    everyone after failures. Unassigned clients have infinite delay and
    no QoS, consume no server bandwidth, and are not a structural
    violation — they are shed load waiting to be re-homed. *)

val make : target_of_zone:int array -> contact_of_client:int array -> t
(** Copies its arguments. *)

val with_virc_contacts : World.t -> target_of_zone:int array -> t
(** Contacts equal to each client's target (the VirC rule). Exposed
    for tests, which use it to turn any zone placement into an
    assignment. *)

val target_of_client : t -> World.t -> int -> int

val client_delay : t -> World.t -> int -> float
(** True round-trip delay of a client to its target server via its
    contact server; [infinity] when either is {!unassigned}. *)

val has_qos : t -> World.t -> int -> bool

val pqos : t -> World.t -> float
(** Fraction of clients with QoS; 1.0 for a world with no clients. *)

val delay_samples : t -> World.t -> float array
(** Every client's delay, for CDF plots (paper Fig. 4). *)

val server_loads : t -> World.t -> float array
(** Per-server bandwidth consumption in bits/s: hosted zones consume
    [R_z] on their target, and each client whose contact differs from
    its target additionally consumes [R^C = 2 R^T] on the contact. *)

val utilization : t -> World.t -> float
(** Total load divided by total capacity (the paper's R metric). *)

val violations : ?health:Health.t -> ?capacity:bool -> t -> World.t -> string list
(** Human-readable list of violations, empty for a valid assignment:
    the one statement of the assignment invariants. Always checked:
    array widths, server ids in range, and a client unassigned exactly
    when its zone is. With [health] (and [world] the health-applied
    world), also: the mask covers every server, no zone targets and no
    client contacts a dead server, and no contact sits across a
    backbone partition from its zone's target. With [capacity] (the
    default), no server's load exceeds its capacity beyond a small
    relative epsilon; the simulator turns it off, because under churn
    the population can outgrow the provisioned total, which is a QoS
    problem rather than a bug. *)

val is_valid : t -> World.t -> bool

val overloaded_servers : t -> World.t -> int list
(** Servers whose load exceeds capacity (beyond the epsilon). *)

val unassigned_zones : t -> int
(** Zones whose target is {!unassigned}. *)

val unassigned_clients : t -> int
(** Clients whose contact is {!unassigned}. *)
