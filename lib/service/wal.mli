(** Write-ahead log for the assignment daemon.

    Two on-disk layouts share one API:

    {v
    legacy    ::= "CAPWAL/1\n" record*                    (at PATH)
    segment   ::= "CAPWAL/2\n" u64_be FIRST_INDEX record* (at PATH.NNNNNN)
    record    ::= u32_be LENGTH | u32_be CRC32(payload) | payload
    v}

    Passing [?segment_bytes] selects the segmented layout: the log is a
    chain of files [PATH.000001], [PATH.000002], … — a new segment is
    started once the current one reaches the threshold, and
    snapshot-anchored {!gc} deletes closed segments wholly covered by
    the latest checkpoint, bounding the on-disk footprint of a log that
    runs for days. Each segment carries the absolute index of its first
    record, so the chain is self-describing; an advisory [PATH.manifest]
    mirrors that information for humans and is {e never} required (or
    even read) by recovery — a corrupt manifest cannot block it.
    Without [?segment_bytes] the legacy single-file layout is used,
    bit-for-bit as before.

    Each payload is one raw [cap-stream/1] request line (no trailing
    newline) — the first record of a log is the hello line, so a WAL is
    self-describing: replaying it through a fresh session reproduces
    the exact engine state and response stream (the engine draws no
    randomness).

    Durability contract: {!append} issues the [write(2)] before
    returning, so an accepted event survives a SIGKILL of the daemon
    (the bytes are in the page cache). [fsync] is batched — every
    [fsync_every] records (default 32; [0] never, [1] every record) —
    and only matters for whole-machine crashes.

    Typed failure policy: a failed [write(2)] raises {!Write_error}
    (and bumps [service/wal_write_errors]) — the record did not fully
    persist, but the log is merely torn at the tail and the caller can
    degrade gracefully. A failed [fsync] raises {!Fsync_error} and
    {e poisons the writer}: the kernel may have discarded the dirty
    pages while clearing the error, so retrying the fsync could report
    success without the data being durable (the "fsyncgate" failure
    mode). Every later operation on a poisoned writer re-raises; the
    only correct continuation is to exit and recover by replay.

    Damage at the very tail of the final file (what a crash mid-append
    leaves) is survivable: it reads back as [Torn], is counted in the
    [service/wal_torn_records] metric, and {!open_append} truncates it
    so new appends start on a record boundary. Damage anywhere else —
    including a torn tail in a non-final segment or a gap in the
    segment chain — is [Corrupted] and fatal.

    All file operations go through an injectable {!Io.t} (default
    {!Io.real}), so tests and [capsim torture --disk-faults] can run
    the identical code against an in-memory filesystem or a scheduled
    fault plan. *)

val magic : string
(** ["CAPWAL/1\n"] (legacy single-file layout). *)

val seg_magic : string
(** ["CAPWAL/2\n"] (segment files; followed by a [u64_be] first-record
    index). *)

val max_payload_bytes : int
(** = {!Proto.max_line_bytes}; longer payloads are rejected and longer
    length fields brand a file corrupted. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string, exposed for tests. *)

val seg_name : string -> int -> string
(** [seg_name base n] is the on-disk name of segment [n]. *)

val manifest_path : string -> string

exception Write_error of { path : string; error : Unix.error }
(** A [write(2)] on the log failed ([ENOSPC], [EIO], …). The tail may
    be torn; recovery truncates it. Counted in
    [service/wal_write_errors]. *)

exception Fsync_error of { path : string; error : Unix.error }
(** An [fsync] failed. The writer is poisoned — never retry a failed
    fsync; exit and recover by replay. *)

type tail =
  | Clean
  | Torn of string  (** why the tail was cut short, for logs *)

type read_error =
  | Io of string
  | Bad_magic
  | Corrupted of { index : int; reason : string }
      (** record [index] (0-based) is damaged mid-log *)

val describe_read_error : read_error -> string

val log_exists : ?io:Io.t -> path:string -> unit -> bool
(** A log (legacy file or at least one segment) exists at [path]. *)

val read : ?io:Io.t -> path:string -> unit -> (string list * tail, read_error) result
(** All valid records in order plus the tail state, across every live
    segment. A torn tail bumps [service/wal_torn_records]. After GC the
    head of the list is the oldest {e surviving} record — use
    {!read_log} when the absolute base index matters. *)

type log_info = {
  li_records : string list;
  li_base : int;  (** absolute index of [List.hd li_records] *)
  li_tail : tail;
  li_segments : (int * int) list;
      (** (segment number, first record index); [[]] for legacy logs *)
}

val read_log : ?io:Io.t -> path:string -> unit -> (log_info, read_error) result

(** {2 Writing} *)

type writer

val create_writer :
  ?io:Io.t -> ?fsync_every:int -> ?segment_bytes:int -> path:string -> unit ->
  writer
(** Start a fresh log. Legacy layout without [segment_bytes]; with it,
    any stale segments/manifest/legacy file at [path] are removed and
    segment 1 is created. Raises {!Write_error} / [Unix_error] on
    unusable paths — callers own the diagnostic. *)

val open_append :
  ?io:Io.t -> ?fsync_every:int -> ?segment_bytes:int -> path:string -> unit ->
  (writer * string list, read_error) result
(** Open an existing log for appending: scan it, truncate any torn
    tail (repairing a half-written rotation header if that is what the
    crash left), and return the surviving records (for replay)
    alongside a writer positioned at the end. The layout on disk wins:
    an existing segmented log stays segmented (with [segment_bytes]
    governing further rotation), and asking for rotation on an
    existing legacy log is refused. *)

val append : writer -> string -> unit
(** Append one record; the [write(2)] has happened when this returns.
    Rotates to a new segment first when the current one is full.
    Raises [Invalid_argument] past {!max_payload_bytes},
    {!Write_error} if the bytes could not be written, {!Fsync_error}
    if a batched fsync fails. *)

val sync : writer -> unit
(** Force an [fsync] now regardless of batching. Raises
    {!Fsync_error} on failure and poisons the writer (fsyncgate:
    failed fsyncs are never retried). *)

val gc : writer -> covered:int -> int
(** Snapshot-anchored GC: delete closed segments every record of which
    is below [covered] (the [wal_position] of the latest durable
    checkpoint). Returns how many segments were deleted. Only ever
    deletes a prefix, never the active segment; a log opened after GC
    reports the surviving base via {!base_index} and can only be
    replayed on top of the anchoring snapshot. No-op on legacy logs. *)

val close_writer : writer -> unit
(** Final [fsync] + close. Idempotent. Raises {!Fsync_error} if that
    final fsync fails — a close that cannot make the log durable must
    not look like a clean shutdown. *)

val writer_path : writer -> string
(** The base path ([--wal] argument), regardless of layout. *)

val active_path : writer -> string
(** The file currently being appended to. *)

val records_written : writer -> int
(** Absolute record count: surviving + appended, GC'd ones included. *)

val base_index : writer -> int
(** Absolute index of the oldest record still on disk (0 until GC). *)

val total_bytes : writer -> int
(** Bytes across all live segment files (mirrors [service/wal_bytes]). *)

val segments : writer -> (int * int) list
(** Live [(segment number, first record index)], active segment last.
    [[]] for legacy logs. *)

(** {2 Tailing (hot standby)} *)

type tailer
(** An incremental reader over a log another process is appending to.
    Follows the segment chain across rotations: once the successor of
    the current segment exists, the current one is drained a last time
    (the writer finishes a segment before it creates the next) and the
    tailer advances. *)

val open_tailer :
  ?io:Io.t -> ?from:int -> path:string -> unit -> (tailer, read_error) result

val poll : tailer -> (string list, read_error) result
(** Records that became complete since the last poll (possibly none).
    An incomplete record at the tail is not an error — it is simply
    withheld until a later poll sees the rest of its bytes. *)

val tailer_records : tailer -> int
(** Absolute index of the next record the tailer will deliver. *)

val close_tailer : tailer -> unit
