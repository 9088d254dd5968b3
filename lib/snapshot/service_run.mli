(** Snapshot of one [capsim serve] daemon: the recipe to rebuild the
    base world deterministically, the engine configuration, and the
    engine's captured state, in the envelope format shared with
    {!Sim_run} ({!Envelope.format_version}).

    Like {!Sim_run}, the world is not serialised: the spec records
    scenario notation, seed and a content {!Sim_run.fingerprint} of
    the generated world, and resume refuses to continue against a
    world whose fingerprint differs. The engine state is stored as
    the engine's own state record ({!Cap_service.Engine.checkpoint}, a
    deep copy with nothing re-derived), so a daemon restored mid-stream
    continues bitwise-identically to one that was never interrupted. *)

type spec = {
  scenario : string;  (** notation exactly as in the stream's hello *)
  seed : int;
  max_inflight : int option;
  reopt_every : int;
  reopt_moves : int;
  world_fingerprint : string;
  wal_position : int;
      (** WAL records (hello included) applied when the snapshot was
          taken: recovery replays the WAL suffix past this point *)
  response_seq : int;
      (** numbered responses emitted by then: the resumed daemon's
          response numbering (and resume-replay floor) continues here *)
}

type t = {
  spec : spec;
  state : Cap_service.Engine.checkpoint;
}

val kind : string
(** Envelope payload-kind tag for service-run snapshots. *)

val of_engine :
  ?wal_position:int -> ?response_seq:int ->
  scenario:string -> seed:int -> world:Cap_model.World.t ->
  Cap_service.Engine.config -> Cap_service.Engine.t -> t
(** [wal_position]/[response_seq] default to 0 — WAL-less daemons
    don't care. *)

val resume :
  world:Cap_model.World.t -> t -> (Cap_service.Engine.t, string) result
(** Rebuild the engine against [world], which must be regenerated from
    the spec's recipe: a fingerprint mismatch (or shape mismatch) is
    an [Error], never a silently wrong daemon. *)

val resume_session :
  ?expect:string ->
  Cap_service.Daemon.config ->
  t ->
  (Cap_model.World.t * Cap_service.Daemon.session, string) result
(** The snapshot as a daemon session: regenerate the world from the
    spec's recipe (refusing a scenario other than [expect]), restore
    the engine ({!resume}), and pin identity, WAL position and response
    numbering ({!Cap_service.Daemon.resume_session}). Returns the
    regenerated world too, for the checkpoints the session will write.
    Follow with {!Cap_service.Daemon.recover} to replay the WAL suffix. *)

val config : t -> Cap_service.Engine.config

val save :
  ?io:Cap_service.Io.t -> path:string -> t -> (unit, Envelope.error) result
val load : path:string -> (t, Envelope.error) result

val describe : t -> string
(** One line for logs: scenario, seed, events seen and live clients. *)
