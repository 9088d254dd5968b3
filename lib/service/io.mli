(** Injectable I/O layer for the durability stack.

    Everything the WAL and the snapshot envelope write goes through a
    {!t} record, so the same code runs against the real filesystem
    ({!real}), an in-memory filesystem with a write journal
    ({!Mem.io} — the substrate for every-prefix crash-recovery
    torture), or a deterministic fault injector ({!faulty} — scheduled
    [EIO]/[ENOSPC]/short-write/fsync failures and power cuts).

    All operations raise [Unix.Unix_error] or [Sys_error] exactly like
    their [Unix]/[Stdlib] counterparts; callers own the policy. *)

type file = {
  f_write : bytes -> int -> int -> int;  (** like [Unix.write] *)
  f_read : bytes -> int -> int -> int;  (** like [Unix.read] *)
  f_fsync : unit -> unit;
  f_truncate : int -> unit;
  f_seek : int -> unit;  (** absolute seek *)
  f_seek_end : unit -> int;  (** seek to EOF, returning the size *)
  f_close : unit -> unit;
}

type t = {
  open_out_ : create:bool -> trunc:bool -> string -> file;
  open_in_ : string -> file;
  read_file : string -> string;  (** whole contents; raises [Sys_error] *)
  rename : string -> string -> unit;
  unlink : string -> unit;
  exists : string -> bool;
  list_dir : string -> string array;
}

val real : t
(** Passthrough to the real filesystem. *)

(** {2 In-memory filesystem with a write journal}

    Files live in a hashtable of growable buffers; every mutation is
    appended to a journal. The torture harness replays journal
    prefixes ({!Mem.apply}, {!Mem.cut_write}) to materialize the disk
    state an arbitrarily timed crash would have left behind. *)
module Mem : sig
  type entry =
    | Open of { path : string; create : bool; trunc : bool }
        (** recorded only when the open created or truncated the file *)
    | Write of { path : string; pos : int; data : string }
    | Truncate of { path : string; len : int }
    | Rename of { src : string; dst : string }
    | Unlink of string

  type fs

  val create : unit -> fs

  val clone : fs -> fs
  (** Deep copy with an empty journal. Recovery mutates the disk it
      opens (tail truncation, header repair) — probe a crash image
      through a clone to keep the original pristine. *)

  val io : fs -> t

  val journal : fs -> entry list
  (** Every mutation so far, oldest first. *)

  val apply : fs -> entry -> unit
  (** Replay one journal entry onto another filesystem. *)

  val cut_write : entry -> int -> entry option
  (** [cut_write e k] is the first [k] bytes of a [Write] — the state a
      power cut mid-[write(2)] leaves. [None] if [e] is not a write or
      the cut is degenerate (0 or the whole write). *)

  val file : fs -> string -> string option
end

(** {2 Scheduled fault injection} *)

type fault =
  | Eio  (** [write(2)] fails, nothing persisted *)
  | Enospc  (** [write(2)] fails with [ENOSPC] *)
  | Short_write  (** half the bytes persist, then the write fails *)
  | Fsync_fail  (** the next [fsync] fails (fsyncgate: never retry) *)
  | Power_cut
      (** from here on writes claim success but persist nothing — the
          page cache of a machine that is about to lose power *)

val fault_name : fault -> string

type plan

val plan : ?power_cut_bytes:int -> (int * fault) list -> plan
(** Faults scheduled by operation index — every [f_write] and
    [f_fsync] call counts one op. [power_cut_bytes] additionally cuts
    power mid-write once that many payload bytes have persisted. *)

type injector
(** Observability handle for one {!faulty} wrapper. *)

val ops_seen : injector -> int
val faults_injected : injector -> int
val power_lost : injector -> bool

val faulty : plan -> t -> t * injector
(** Wrap an io so its write-side operations suffer the planned faults.
    Deterministic: the same plan over the same operation sequence
    injects the same faults. *)
