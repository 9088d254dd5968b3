(** Discrete-event simulation of a live DVE under churn and failures.

    Clients arrive as a Poisson process, stay for exponentially
    distributed sessions, and move between zones at exponentially
    distributed intervals (zones drawn from the world's placement
    sampler, so clustering and correlation are preserved). New clients
    connect to their zone's current target server; a {!Policy.t}
    decides when the two-phase assignment algorithm is re-executed for
    everyone. Metrics are sampled on a fixed grid.

    A {!Cap_faults.Fault.schedule} injects server crashes, recoveries
    and degradations, plus inter-server link cuts, restores and
    degradations. Each fault event triggers a failure-aware
    incremental reassignment (orphaned zones migrate off dead servers
    — under link faults only within their partition component; when
    surviving capacity is insufficient, zones and their clients are
    shed to the explicit {!Cap_model.Assignment.unassigned} state and
    re-homed with exponential-backoff retries; clients whose contact
    can no longer reach their target are re-homed by the same path).
    After every fault event the structural invariants — including that
    no assignment crosses a backbone partition — are checked with
    {!Cap_model.Assignment.violations} (capacity off) and recorded,
    and partition episodes are tracked.

    This extends the paper's one-shot join/leave/move experiment
    (Table 3) into a continuous-time setting. *)

type flash_crowd = {
  at : float;               (** when the event fires, seconds *)
  fraction : float;         (** share of the live population that piles in *)
  target_zone : int option; (** the hot zone; random when [None] *)
}
(** A flash-crowd event: a boss spawn, a world event, a server-wide
    announcement — a large share of players converges on one zone at
    once. This is the worst case for the quadratic bandwidth model and
    stresses the reassignment policy. *)

type movement =
  | Teleport
      (** moves re-sample a zone from the placement distribution (the
          paper's one-shot model extended in time) *)
  | Roam of Cap_model.Zone_map.t
      (** moves go to a uniformly random adjacent zone of the grid
          layout — spatially coherent avatar movement *)

type config = {
  duration : float;            (** simulated seconds *)
  arrival_rate : float;        (** clients per second (>= 0) *)
  mean_session : float;        (** mean client lifetime, seconds *)
  mean_move_interval : float;  (** mean time between zone moves *)
  sample_interval : float;     (** metric sampling period *)
  policy : Policy.t;
  flash_crowd : flash_crowd option;
  movement : movement;
  diurnal : Diurnal.t option;
      (** when set, new arrivals land in regions weighted by the
          time-of-day factor (region sizes still matter); must have one
          phase per world region *)
  faults : Cap_faults.Fault.schedule;
      (** server fault events to inject, validated against the world's
          server count; empty = no failures *)
  failover_moves : int;
      (** zone-move budget for the optimization phases of each
          failure-aware refresh (forced evacuations are free) *)
  retry_interval : float;
      (** base delay before retrying to re-home shed clients; doubles
          per attempt up to a factor of 32 *)
}

val default_config : config
(** 600 s, 1 client/s arrivals, 500 s sessions, 120 s between moves,
    20 s sampling, reassignment every 100 s, no flash crowd,
    teleporting movement, no faults, 16 failover moves, 10 s retry
    backoff base. *)

type episode = {
  started_at : float;          (** time of the crash that opened it *)
  recovered_at : float option; (** [None] when still open at the end of the run *)
  pre_pqos : float;            (** pQoS just before the crash *)
  min_pqos : float;            (** deepest dip during the episode *)
}
(** One service-disruption episode: opens at a crash (if none is
    already open), closes when no client is shed and pQoS is back
    within 0.05 of its pre-crash level. *)

type partition_episode = {
  partitioned_at : float;   (** when the live mesh split *)
  healed_at : float option; (** [None] when still split at the end of the run *)
  peak_components : int;    (** most components observed while split *)
  peak_stranded : int;      (** worst count of unassigned clients while split *)
  low_pqos : float;         (** deepest pQoS dip while split *)
}
(** One backbone-partition episode: opens when the live mesh has more
    than one connected component, closes the moment it is whole again
    (time-to-reconnect = [healed_at - partitioned_at]). *)

type fault_report = {
  crashes : int;
  recoveries : int;
  degradations : int;
  link_cuts : int;         (** link-cut events injected *)
  link_restores : int;     (** link-restore events injected *)
  link_degradations : int; (** link-degradation events injected *)
  failovers : int;       (** failure-aware refreshes run *)
  retries : int;         (** backoff re-homing attempts *)
  shed_peak : int;       (** worst observed count of unassigned clients *)
  zone_migrations : int; (** zone handoffs spent by failover refreshes *)
  episodes : episode list;  (** chronological *)
  partitions : partition_episode list;  (** chronological *)
  invariant_violations : string list;
      (** post-event invariant violations (first 50); must be empty on
          a healthy implementation *)
}

type outcome = {
  trace : Trace.t;
  reassignments : int;
  final_world : Cap_model.World.t;
  final_assignment : Cap_model.Assignment.t;
  faults : fault_report;
  interrupted : bool;
      (** true when the run stopped early because a checkpoint hook's
          [request] fired (e.g. SIGTERM): the trace and reports cover
          only the simulated time up to the final checkpoint *)
}

(** {1 Checkpointing}

    The simulator is a state machine over one state record: the RNG,
    clients, zone targets, pending events (arrivals, samples, faults,
    retries), health mask including per-link state, trace so far,
    fault counters, open crash and partition episodes, and the values
    of every telemetry instrument (counters, gauges and histograms). A
    {!checkpoint} is a deep copy of that record, event queue included:
    every field is plain data, so a field added to the record is
    checkpointed with no other edit. Together with the original
    [config], [world] and [algorithm], it determines the rest of the
    run exactly: {!resume} produces the same trace, bit for bit, as the
    uninterrupted run would have. *)

type checkpoint

val checkpoint_time : checkpoint -> float
(** Simulated time at which the state was captured. *)

val checkpoint_clients : checkpoint -> int
(** Number of live clients at capture. *)

val checkpoint_rng_state : checkpoint -> string
(** The captured {!Cap_util.Rng.state}, for diagnostics. *)

type checkpoint_reason =
  | Scheduled  (** the periodic [every] cadence fired *)
  | Requested  (** the [request] poll returned true; the run stops *)

type checkpoint_hook = {
  every : float option;
      (** capture every this many simulated seconds; [None] = only on
          request *)
  request : unit -> bool;
      (** polled after every event; when true the loop captures a final
          checkpoint, passes it to [write] with {!Requested}, and stops
          (the outcome has [interrupted = true]). Typically a ref set
          by a SIGTERM handler. *)
  write : reason:checkpoint_reason -> checkpoint -> unit;
}

val run :
  ?checkpoint:checkpoint_hook ->
  Cap_util.Rng.t ->
  config ->
  world:Cap_model.World.t ->
  algorithm:Cap_core.Two_phase.t ->
  outcome
(** Simulate starting from [world]'s client population, initially
    assigned by [algorithm]. Raises [Invalid_argument] on non-positive
    durations/intervals, a negative arrival rate, or a fault schedule
    that fails {!Cap_faults.Fault.validate}. Fault handling itself
    never raises: insufficient surviving capacity degrades to
    [unassigned] clients. *)

val resume :
  ?checkpoint:checkpoint_hook ->
  config ->
  world:Cap_model.World.t ->
  algorithm:Cap_core.Two_phase.t ->
  checkpoint ->
  outcome
(** Continue a run from a checkpoint. [config], [world] and
    [algorithm] must be the ones the original run used (the world as
    originally generated — the live population is carried by the
    checkpoint); the RNG is restored from the captured state.
    Deterministic: the outcome's trace equals the uninterrupted run's
    trace, including the prefix recorded before the checkpoint, also
    when the checkpoint was itself written by a resumed run. Raises
    [Invalid_argument] when the checkpoint's dimensions do not match
    the world or its event queue is inconsistent. *)
