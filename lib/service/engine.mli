(** The online assignment engine: event-granular placement state.

    The engine holds the live service state — the dynamic client
    registry, the per-zone target map, per-server loads, and the
    health mask — and answers one {!Proto.event} at a time with
    bounded work: a [join]/[leave]/[move] costs O(m) in the server
    count (plus the relaying members of the touched zone), never O(k)
    in the client count. Bookkeeping is delta-maintained: zone rates
    and forwarding rates follow the paper's quadratic bandwidth model
    exactly, so the incremental loads equal what
    {!Cap_model.Assignment.server_loads} recomputes from scratch
    (checked by {!self_check}).

    Placement follows the two-phase split: a joining client lands on
    its zone's current target when the observed RTT is within the
    bound, otherwise it takes the GreC rule's best feasible contact
    (lowest refined cost, then lowest relayed delay, then lowest
    index). Unplaceable clients are shed to an explicit pool —
    admission control over [max_inflight], capacity overflow on the
    target, or a zone currently unassigned — and periodically
    re-admitted.

    Every [reopt_every] events, if a zone's population changed or a
    client is shed, a background re-optimization runs
    {!Cap_core.Incremental.refresh_with} (bounded zone moves + a full
    GreC refine pass) against the materialised world, using scratch
    reused across calls and matrix fills that are row-parallel over
    {!Cap_par.Pool.default}. Crash/recover/degrade control events
    force the same pass immediately (evacuating orphaned zones
    unbudgeted).

    Everything is deterministic: the engine draws no randomness, so
    the response stream is a pure function of the event stream and
    the initial world — the property behind the replay and
    checkpoint/resume identity tests. *)

type config = {
  max_inflight : int option;
      (** admission cap on live clients; [None] = unlimited *)
  reopt_every : int;
      (** events between background re-optimizations; 0 disables the
          periodic pass (control events still force one) *)
  reopt_moves : int;  (** zone-move budget per re-optimization *)
}

val default_config : config
(** No admission cap, re-optimize every 512 events, 8 zone moves. *)

type t

val create :
  world:Cap_model.World.t -> assignment:Cap_model.Assignment.t -> config -> t
(** Boot the service from a generated world and a batch solve over
    it: the world's clients become the initial live population with
    the assignment's contacts. Raises [Invalid_argument] when the
    assignment does not match the world. *)

val handle : t -> Proto.event -> Proto.response list
(** Apply one event. The first response answers the event itself;
    any following [Readmitted] responses come from a background
    re-optimization triggered by this event. *)

val note_time : t -> float -> unit
(** Record a [t] line: the stream clock only ever advances. *)

val finalize : t -> Proto.response list
(** Run a final re-optimization (normalising every contact through
    the GreC refine pass), returning any re-admissions. Call on
    [end]/EOF before reading {!assignment}. *)

(** {1 Introspection} *)

val live_clients : t -> int

val shed_pool : t -> int
(** Clients currently shed (not serving). *)

val events_seen : t -> int
val sheds_total : t -> int
val readmits_total : t -> int
val reopts_total : t -> int

val materialize : t -> Cap_model.World.t * int array
(** The current world — the base topology with exactly the live
    clients, health mask applied — plus the registry slot of each
    materialised client (ascending). O(k); allocates. *)

val assignment : t -> Cap_model.Assignment.t
(** The current assignment over {!materialize}'s client indexing. *)

val self_check : t -> string list
(** Recompute the populations and loads the engine maintains
    incrementally from a fresh materialisation, compare them with its
    books, and check the assignment with
    {!Cap_model.Assignment.violations} under the health mask
    (structure, liveness, partitions, capacity). Empty = consistent.
    O(k·m). *)

(** {1 Checkpointing}

    The engine is one plain-data state record — client registry,
    zone targets, the delta-maintained populations, loads and relay
    counts, the health mask (server and link state), counters and the
    stream clock — plus what is rebuilt from the world it runs on. A
    {!checkpoint} is a deep copy of that record: nothing in it is
    re-derived on {!restore} (the loads are running sums a
    recomputation would not reproduce bit for bit), so a field added
    to the record is checkpointed with no other edit, and a restored
    engine is bitwise-identical to the one that wrote the
    checkpoint. *)

type checkpoint
(** The state record, copied: plain marshalable data. *)

val checkpoint : t -> checkpoint

val restore : world:Cap_model.World.t -> config -> checkpoint -> t
(** A live engine over a copy of the checkpoint, against the same
    regenerated base world. Raises [Invalid_argument] on a
    world-shape mismatch (zone or server count). *)

val checkpoint_events : checkpoint -> int
val checkpoint_clients : checkpoint -> int

val fingerprint : t -> string
(** Hex digest of the marshalled state record: two engines fingerprint
    equal exactly when their state records are identical, value for
    value, including the layout of the membership and relay hash
    tables. The engine is deterministic and a checkpoint copies that
    layout, so an engine restored from another's checkpoint, or
    replayed from the same start over the same events, fingerprints
    equal to the uninterrupted engine. The basis of the kill/replay
    identity tests. *)
