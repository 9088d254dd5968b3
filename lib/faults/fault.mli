(** Deterministic, seedable server-fault schedules.

    A schedule is a time-ordered list of fault events against the
    servers of one world. The dynamic simulator replays it, updating a
    {!Cap_model.Health} mask and triggering failure-aware reassignment;
    because every generator draws from an explicit {!Cap_util.Rng.t},
    any chaos run is a pure function of its seed. *)

type event =
  | Crash of int      (** the server stops: capacity 0, infinite delay *)
  | Recover of int    (** the server returns, fully healthy *)
  | Degrade of {
      server : int;
      delay_penalty : float;  (** extra RTT in ms on every path touching it *)
    }  (** the server stays up but answers slowly (overload, GC pause,
          congested uplink) *)
  | Link_cut of { s1 : int; s2 : int }
      (** the inter-server backbone link is severed; traffic reroutes
          over surviving links, or not at all (partition) *)
  | Link_restore of { s1 : int; s2 : int }
      (** the link returns, fully healthy *)
  | Link_degrade of {
      s1 : int;
      s2 : int;
      delay_penalty : float;  (** extra RTT in ms on that link *)
    }  (** the link stays up but is slow (congestion, a failed-over
          longer physical path) *)

type timed = {
  at : float;  (** simulated seconds *)
  event : event;
}

type schedule = timed list

val servers_of : event -> int list
(** Every server the event touches: one for server events, the two
    endpoints for link events. *)

val describe : schedule -> string

val validate : servers:int -> schedule -> schedule
(** Check times (non-negative), server indices (within [servers]),
    link endpoints (distinct) and degrade penalties (positive), and
    return the schedule sorted by time (stable). Raises
    [Invalid_argument] on any violation. *)

val crash_count : schedule -> int
val link_cut_count : schedule -> int

val poisson :
  Cap_util.Rng.t ->
  servers:int ->
  mtbf:float ->
  mttr:float ->
  duration:float ->
  schedule
(** Independent per-server alternating renewal processes: each server
    is up for an exponential time with mean [mtbf], down for an
    exponential time with mean [mttr], repeating over [0, duration).
    Raises [Invalid_argument] on non-positive parameters. *)

val link_flapping :
  Cap_util.Rng.t ->
  servers:int ->
  mtbf:float ->
  mttr:float ->
  duration:float ->
  schedule
(** Gilbert–Elliott-style link flapping: each of the [servers *
    (servers - 1) / 2] undirected backbone links is an independent
    two-state (good/bad) chain, up for an exponential time with mean
    [mtbf] and cut for an exponential time with mean [mttr], repeating
    over [0, duration). Raises [Invalid_argument] if [servers <= 1] or
    any parameter is non-positive. *)

val partition :
  servers:int ->
  groups:int array array ->
  at:float ->
  ?heal_after:float ->
  unit ->
  schedule
(** Split the mesh into components at [at] by cutting every link whose
    endpoints fall in different groups; servers not listed in any
    group form one implicit extra group. With [heal_after], every cut
    link is restored [at +. heal_after]. Raises [Invalid_argument] on
    out-of-range or duplicated servers, a negative [at], or a
    non-positive [heal_after]. *)

val merge : schedule list -> schedule
(** Interleave schedules in time order (stable). *)

val invariant_violations_total : Cap_obs.Metrics.Counter.t
(** [faults_invariant_violations_total]: post-event invariant
    violations the simulator finds while injecting faults. Registered
    here, with the fault schedules, so that it keeps its place in
    metric exports. *)
