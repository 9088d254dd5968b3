(** The serve loop: [cap-stream/1] lines in, placement responses out.

    The daemon is transport-agnostic at its core — {!handle_line}
    applies one request line to a {!session} and hands formatted
    response lines to a [send] callback. {!serve} wraps that over any
    pair of channels (the [--stdin] pipe mode) and {!serve_unix_session}
    runs a {!Net.Reactor} on a Unix-domain socket, multiplexing concurrent
    connections into the same session so service state outlives any
    one client of the daemon — with read deadlines, bounded write
    buffers, rate limits and a connection cap keeping any one hostile
    peer from wedging the rest (see {!Net}).

    The engine is created lazily from the stream's hello line via the
    injected [resolve] callback (which regenerates the world from the
    scenario notation and seed, runs the batch bootstrap solve, or
    restores a checkpoint — policy stays with the caller, so this
    library does not depend on the snapshot layer). A later hello —
    e.g. a second connection — must repeat the same scenario and seed
    or its stream is refused with [err].

    {2 Durability and resume}

    With a {!Wal.writer} attached, every applied request line (the
    hello, clock ticks, events) is appended to the WAL {e before} any
    response for it is emitted, so a SIGKILL can never acknowledge an
    event it did not persist. Recovery is {!recover}: it feeds the WAL
    records past the session's position (all of them for a fresh
    session, the suffix past a snapshot for a resumed one) back through
    {!handle_line}, which rebuilds the engine {e and} the numbered
    response log because the engine is deterministic, then attaches
    the log's writer. The session owns that writer from then on: its
    checkpoints garbage-collect the segments they cover, whether the
    session started fresh, from a snapshot, or as a promoted standby.

    Every response except [err] and [resume-ok] carries an implicit
    sequence number and is retained (up to [resume_window]) for
    reconnecting clients: a [resume N] request answers
    [resume-ok EVENTS RESPONSES] and replays responses [N+1..RESPONSES]
    verbatim. Responses from the shutdown drain after [end] are
    unnumbered — an interrupted run re-derives its own drain.

    Per-event latency is observed into the
    [service/event_latency_seconds] histogram (no-op unless
    {!Cap_obs.Control.enable} has been called); [service/events],
    [service/sheds], [service/readmits] and [service/resumes] counters
    ride along. *)

type stats = {
  events : int;
      (** client + control events applied, counting those a resumed
          snapshot carried over *)
  run_events : int;
      (** the events this process applied: [events] less the resumed
          snapshot's count (WAL replay included) *)
  errors : int;  (** malformed or inconsistent lines answered [err] *)
  sheds : int;  (** total shed responses (admission, capacity, zone-down) *)
  readmits : int;
  reopts : int;  (** background re-optimization passes *)
  resumes : int;  (** reconnects served with a resume replay *)
  live : int;  (** live clients at shutdown *)
  shed_pool : int;  (** clients still shed at shutdown *)
  violations : string list;
      (** final {!Engine.self_check} after {!Engine.finalize}; empty
          means the daemon shut down consistent *)
  wall_s : float;  (** wall-clock time spent serving *)
  degraded : string option;
      (** [Some reason] if a failed WAL [write(2)] tripped degraded
          read-only mode mid-stream; the right exit code is 2
          (unrecoverable) so a supervisor does not crash-loop a daemon
          whose disk is full *)
}

val latency_histogram : unit -> Cap_obs.Metrics.Histogram.t
(** The per-event latency instrument (seconds), for reporting. *)

type config = {
  resolve : scenario:string -> seed:int -> (Engine.t, string) result;
      (** build (or restore) the engine for the stream's hello; an
          [Error] refuses the stream *)
  checkpoint_every : int option;
      (** call the sink every [n] events (and once at shutdown) *)
  checkpoint_sink :
    (Engine.t -> wal_records:int -> response_seq:int -> bool) option;
      (** [wal_records] and [response_seq] pin the snapshot's position
          in the WAL and the response numbering, so a resumed daemon
          replays the right suffix. Return [true] once the snapshot is
          durable: the session then GCs the WAL segments it covers
          ({!Wal.gc}) and logs [serve: wal gc: ...] to stderr. *)
  echo_responses : bool;  (** write responses to the output channel *)
  resume_window : int;
      (** numbered responses retained for resume replay; [0] =
          unbounded *)
}

val default_resume_window : int
(** 65536 responses. *)

(** {1 The session core} *)

type session
(** Mutable service state shared by every connection: the engine, the
    WAL writer, the numbered-response log, and counters. *)

val make_session : ?wal:Wal.writer -> config -> session

val resume_session :
  config ->
  engine:Engine.t ->
  scenario:string ->
  seed:int ->
  wal_records:int ->
  response_seq:int ->
  session
(** A session restored from a snapshot: the identity is pinned, the
    WAL cursor and response numbering continue from the recorded
    positions, and resume replay reaches back to [response_seq] (not
    before — clients are guaranteed to have received that much, since
    responses are flushed before checkpoints run). Follow with
    {!recover} to replay the WAL suffix. *)

val handle_line :
  session ->
  send:(string -> unit) ->
  string ->
  [ `Continue | `End | `Fatal of string ]
(** Apply one raw request line; responses (formatted, no newline) go
    through [send]. Never raises on any malformed input — bad and
    oversized lines answer [err]. [`Fatal] means an unresolvable
    hello.

    Disk-fault policy: a failed WAL [write(2)] trips sticky degraded
    mode — the event is {e not} applied and is answered
    [shed ID wal-failed] (ctrl lines get [err]); one diagnostic line
    goes to stderr; no exception escapes. A failed WAL fsync raises
    {!Wal.Fsync_error} out of this function — fsyncgate: the caller
    must exit 2 and recover by replay, never retry. *)

val replay : session -> string list -> (unit, string) result
(** Apply WAL records with WAL writes suppressed and responses
    discarded (they are still numbered and logged, so resume replay
    works after recovery). [Error] reports records the session
    rejected — a healthy WAL replays clean. {!recover} is the checked
    way to build a session on a log; this is its replay step. *)

type recover_error =
  | Refused of string
      (** the log cannot carry this session; nothing was replayed and
          no writer is attached *)
  | Replay_failed of string  (** a record the session rejected *)

val describe_recover_error : recover_error -> string

val recover :
  ?io:Io.t ->
  fsync_every:int ->
  ?segment_bytes:int ->
  session ->
  path:string ->
  (int, recover_error) result
(** Put [session] on the WAL at [path] — the one recovery rule, used by
    a fresh or snapshot-resumed daemon, a promoted {!Follower} and the
    disk torture alike. With [applied] = {!wal_records}[ session]:
    - no log: created (rotating at [segment_bytes]) when [applied = 0],
      refused otherwise — recorded history is gone;
    - otherwise the log is opened for append, which truncates a torn
      tail, and refused unless its oldest surviving record is at most
      [applied] (GC dropped nothing the session lacks) and it holds at
      least [applied] records (nothing the session applied was lost);
    - the records past [applied] are replayed and the writer attached,
      so [wal_records session = Wal.records_written writer].
    Returns how many records were replayed. *)

val session_engine : session -> Engine.t option

val wal_records : session -> int
(** Request records applied so far, hello included. *)

val response_seq : session -> int
(** Numbered responses emitted so far. *)

val degraded_reason : session -> string option
(** [Some reason] once a failed WAL write tripped degraded mode. *)

val numbered_log : session -> string list
(** The retained numbered responses, oldest first — the recovered
    response stream a torture harness compares against a reference
    run. *)

val finish_session_send :
  session -> send:(string -> unit) -> (stats, string) result
(** Checkpoint, finalize, and drain the shutdown responses through
    [send] — what [end] triggers on every transport. *)

(** {1 Transports} *)

val serve_session :
  session -> input:in_channel -> output:out_channel -> (stats, string) result
(** Serve one stream to its [end] (or EOF, which is treated as a
    quiet [end]) against an existing session: finalizes the engine,
    runs the self-check, and returns the stats. [Error] means the
    stream never got going — a missing or unresolvable hello. *)

type bind_error =
  | Address_in_use of string  (** a live daemon answered the probe *)
  | Permission_denied of string
  | Bind_failed of string * string  (** path, reason *)

val describe_bind_error : bind_error -> string

val bind_unix :
  ?probe_timeout:float -> path:string -> unit -> (Unix.file_descr, bind_error) result
(** Bind a Unix-domain socket at [path]. An existing socket file is
    probed first: connection-refused means a crashed daemon's leftover,
    which is reclaimed (unlink + rebind); anything accepting
    connections is left alone and reported {!Address_in_use}. The
    probe is non-blocking and gives up after [probe_timeout] seconds
    (default 0.5) — a half-dead peer (bound but never accepting)
    cannot wedge the probe, and an unresponsive socket is treated as
    live rather than reclaimed. *)

type serve_unix_error =
  | Bind of bind_error
  | Fatal of string

val serve_net_session :
  ?net:Net.config ->
  ?inspect:(Net.Reactor.t -> unit) ->
  session ->
  Net.backend ->
  (stats, string) result
(** Serve the session over a {!Net.Reactor} on any backend — the real
    {!Net.unix_backend} or the deterministic {!Net.Sim} fabric.
    Concurrent connections share the session; [end] from any of them
    finalizes (draining the shutdown responses to that connection); a
    fully drained fabric without an [end] is treated as a quiet EOF.
    WAL ordering is preserved by construction: {!handle_line} appends
    the record before any response line reaches a write buffer. *)

val serve_unix_session :
  ?net:Net.config -> session -> path:string -> (stats, serve_unix_error) result
(** Accept and serve connections {e concurrently} against an existing
    session (so a recovered or promoted daemon keeps its state), under
    [net]'s deadlines, buffer bounds, rate limits and connection cap
    (default {!Net.default_config}). The socket file is removed on
    clean shutdown. *)
