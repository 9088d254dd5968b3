(** The [cap-stream/1] wire protocol: newline-delimited client events
    flowing into the assignment daemon, and newline-delimited
    placement answers flowing back.

    Request grammar (one line per message, fields space-separated):

    {v
    stream  ::= hello line* "end"
    hello   ::= "cap-stream/1" SCENARIO SEED
    line    ::= "t" SECONDS                 advance the stream clock
              | "join" ID NODE ZONE         client ID appears at NODE in ZONE
              | "leave" ID                  client ID disconnects
              | "move" ID ZONE              client ID moves to ZONE
              | "ctrl" CTRL                 chaos / operations channel
              | "resume" SEQ                reconnect: SEQ responses received
    ctrl    ::= "crash" SERVER
              | "recover" SERVER
              | "degrade" SERVER MS
    v}

    SCENARIO is paper notation (e.g. [20s-80z-1000c-500cp]); SEED is
    the world seed. Together they pin the topology both ends talk
    about: the daemon regenerates the world from them, so NODE, ZONE
    and SERVER ids are meaningful without shipping the world itself.

    Response grammar:

    {v
    reply ::= "ok" ID SERVER          placed: contact server for ID
            | "shed" ID REASON        not placed; REASON in
                                      {admission, capacity, zone-down}
            | "readmit" ID SERVER     a previously shed ID re-admitted
                                      by background re-optimization
            | "bye" ID                leave acknowledged
            | "ctrl-ok" WHAT          control event applied
            | "resume-ok" EVENTS RESPONSES
                                      reconnect accepted: EVENTS client
                                      events processed so far, RESPONSES
                                      the current response sequence
                                      number (replay follows)
            | "err" MESSAGE           malformed or inconsistent input
            | "busy"                  connection shed at the cap; the
                                      daemon closes right after this
                                      line — back off and reconnect
            | "bye"                   clean shutdown: the final line
                                      after [end]'s readmit drain; an
                                      EOF without it is a severed
                                      connection, not a finished one
    v}

    Every response except [err] and [resume-ok] carries an implicit
    sequence number (1, 2, ...) assigned by the daemon in emission
    order; a reconnecting client quotes the count of responses it has
    received in its [resume] line and the daemon replays the rest.

    Parsing never raises: malformed lines surface as [Error], and
    lines longer than {!max_line_bytes} are rejected with
    {!Oversized} before any per-word work (the daemon's reader
    likewise never buffers past the bound). *)

type ctrl =
  | Crash of int
  | Recover of int
  | Degrade of int * float

type event =
  | Join of { id : int; node : int; zone : int }
  | Leave of { id : int }
  | Move of { id : int; zone : int }
  | Ctrl of ctrl

type line =
  | Hello of { scenario : string; seed : int }
  | Time of float
  | Event of event
  | Resume of int  (** responses already received on a prior connection *)
  | End

val max_line_bytes : int
(** 64 KiB: the longest request line the protocol admits. Anything
    longer is rejected before parsing — and readers are expected to
    stop buffering at this bound. *)

type parse_error =
  | Malformed of string  (** the (stripped) line that failed to parse *)
  | Oversized of int     (** actual byte length of a too-long line *)

val describe_parse_error : parse_error -> string
(** Human-readable one-liner, suitable for an [err] response. *)

val parse_line : string -> (line, parse_error) result
(** Parse one request line (leading/trailing blanks and a trailing
    [\r] tolerated). Blank lines and [#]-comments parse as errors — the
    stream has no silent filler. Never raises. *)

val format_hello : scenario:string -> seed:int -> string
val format_time : float -> string
val format_event : event -> string
val format_resume : int -> string
val format_end : string

type shed_reason =
  | Admission    (** over [--max-inflight] *)
  | Capacity     (** no alive server can absorb the client *)
  | Zone_down    (** the client's zone is currently unassigned *)
  | Wal_failed
      (** the daemon is in degraded read-only mode: the WAL can no
          longer persist events (disk full / I/O error), so mutating
          events are refused rather than acknowledged undurably *)

type response =
  | Assigned of { id : int; server : int }
  | Shed of { id : int; reason : shed_reason }
  | Readmitted of { id : int; server : int }
  | Left of { id : int }
  | Ctrl_ok of string
  | Resume_ok of { events : int; responses : int }
  | Err of string
  | Busy
      (** the daemon is at its connection cap ([--max-conns]): the
          connection is being closed immediately after this line —
          reconnect later (clients treat it like a lost connection
          and back off) *)
  | Bye
      (** the shutdown acknowledgment: the unnumbered final line of a
          clean [end], sent after the drain's readmit responses. An
          EOF {e without} a preceding [bye] means the connection was
          severed mid-stream (a SIGKILLed daemon closes its socket
          exactly like a finished one) — clients must reconnect and
          resume rather than trust the bare EOF *)

val format_response : response -> string
(** One line, no trailing newline. *)

val parse_response : string -> (response, string) result
(** Inverse of {!format_response}, for tests and stream consumers. *)
