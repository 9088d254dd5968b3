(** In-memory spans for the traced run.

    A span is opened and closed around one call into a layer. Its self
    time is its duration minus the time its direct children cover;
    both are summed per span name as spans close, so per-layer totals
    need no post-pass. With [keep], every span is also stored (name,
    start, end, parent, and the poll it ran in — the id shared by the
    events that poll handled) for {!write_jsonl}. Recording allocates
    nothing on the minor heap, so allocation counts taken under
    tracing match the untraced program. *)

type t

val create : keep:bool -> t

val name : t -> string -> int
(** Register (or look up) a span name; at most 64 per recorder. *)

val set_range : t -> int -> unit
(** Tag spans opened from now on with this poll id. *)

val reset : t -> unit
(** Forget every closed span (names stay registered). Raises
    [Invalid_argument] while a span is open. *)

val enter : t -> int -> unit
val leave : t -> unit
(** Close the innermost open span. *)

val last_s : t -> float
(** Duration of the span closed most recently, seconds. *)

val count : t -> int -> int
val total_s : t -> int -> float
val self_s : t -> int -> float

val records : t -> int
(** Spans stored (0 without [keep]). *)

val write_jsonl : t -> string -> unit
(** One JSON object per stored span, in start order:
    [{"id","name","start_ns","end_ns","parent","poll"}]; [parent] is
    the id of the enclosing span or [null]. *)
