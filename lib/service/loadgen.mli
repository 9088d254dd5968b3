(** Deterministic open-loop load generator for the assignment daemon.

    Emits a [cap-stream/1] event stream against a generated world:
    Poisson arrivals (exponential inter-event gaps at [rate] events/s,
    optionally modulated by a diurnal sinusoid), a join/leave/move mix,
    and optional chaos control events. The generator tracks the live
    id set itself — the world's initial clients are ids [0..k-1], new
    joins take increasing ids, and leave/move only ever name a
    currently live id — so the stream is valid by construction.

    Everything is a pure function of the RNG seed, the world and the
    config: the same inputs produce the same byte stream, which is
    what makes daemon runs reproducible end to end. *)

type mix = {
  join : float;
  leave : float;
  move : float;
}
(** Relative event weights; normalised internally. *)

type config = {
  rate : float;  (** mean event rate, events/s; > 0 *)
  duration : float;  (** stream length, seconds; > 0 *)
  mix : mix;
  diurnal : bool;
      (** modulate the instantaneous rate by [0.55 + 0.45 sin] over
          one period spanning the stream *)
  ctrl_every : int option;
      (** inject a chaos control event (crash / recover / degrade of a
          random server) every [n] events *)
  emit_time : bool;  (** interleave ["t SECONDS"] clock lines *)
}

val default_config : config
(** 10_000 events/s for 1 s, a 3 : 2 : 5 mix (movement dominates,
    population drifts slowly upward), no diurnal modulation, no
    chaos, clock lines on. *)

val validate : config -> (unit, string) result

val run :
  Cap_util.Rng.t ->
  world:Cap_model.World.t ->
  world_seed:int ->
  config ->
  emit:(Proto.line -> unit) ->
  int
(** Stream the whole run — [Hello], then events until the stream clock
    passes [duration], then [End] — through [emit], returning the
    number of {e events} (clock lines excluded). Raises
    [Invalid_argument] when {!validate} would reject the config. *)
