(** Hot standby: a second daemon session fed by tailing the primary's
    WAL instead of a socket.

    The follower replays records as they land in the log, so its
    engine tracks the primary's with bounded lag (one poll interval
    plus whatever burst accumulated — the burst size is exported as
    the [service/follower_lag_records] gauge). Because the WAL starts
    at the hello, a follower holds the complete numbered-response log
    and can serve any in-window resume after {!promote}.

    Promotion is what the supervisor does when the primary dies
    uncooperatively: {!promote} stops tailing and hands the session to
    {!Daemon.recover}, the same recovery a restarted primary runs — it
    truncates any torn tail the SIGKILL left, applies the records the
    tailer had not yet delivered, and attaches the writer to the
    session, which is then ready for {!Daemon.serve_unix_session} on
    the service socket and GCs its log at every durable checkpoint. *)

type t

val create :
  ?io:Io.t ->
  ?session:Daemon.session ->
  Daemon.config ->
  path:string ->
  (t, string) result
(** Open a tailer on the primary's WAL (legacy or segmented — the
    tailer follows segment rotation) at the session's position,
    {!Daemon.wal_records}. Fails if no log exists yet — retry until
    the primary has created it.

    A follower of a GC'd segmented log cannot replay from record 0;
    pass a [session] restored from the anchoring snapshot
    ({!Daemon.resume_session}), and tailing starts inside the segment
    that holds the snapshot's WAL position. Without [session] the
    follower starts fresh from [config]. *)

val poll : t -> (int, string) result
(** Apply the records that became complete since the last poll;
    returns how many. [0] means caught up (or the next record is still
    being written). *)

val catch_up : t -> (int, string) result
(** Poll until no progress. *)

val promote :
  t -> fsync_every:int -> ?segment_bytes:int -> unit -> (int, string) result
(** Stop tailing, then {!Daemon.recover}: truncate the torn tail,
    apply the remaining suffix (count returned), and take over the WAL
    as writer — rotation continues at [segment_bytes] on a segmented
    log. After this the session is the primary.

    Recovery re-verifies the tail first: if the re-scanned log holds
    fewer records than this follower already applied (a torn final
    record the tailer had read from the page cache but the disk lost),
    or GC deleted ground the follower never saw, promotion is refused
    with an [Error] — appending there would duplicate or interleave
    acknowledged records. *)

val session : t -> Daemon.session
val records_applied : t -> int
val is_promoted : t -> bool

val close : t -> unit
(** Stop tailing without promoting. *)
