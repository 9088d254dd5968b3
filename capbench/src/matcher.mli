(** Checks a daemon's response stream against the events it was sent.

    Every event must get exactly one primary response, in order,
    naming its client id: [ok]/[shed] for a join or move, [bye ID] for
    a leave, [ctrl-ok] for a control event. [readmit] lines (answers
    from background re-optimization) and the final bare [bye] are
    counted but not matched. An [err] line, an unparsable line or a
    response out of order is a failure. *)

type t

val expected_id : Cap_service.Proto.event -> int
(** The id a primary response must carry ([-1] for control events). *)

val create : int array -> t
(** [create ids]: one expected id per event, in stream order. *)

val feed : t -> string -> on_answer:(int -> unit) -> unit
(** Consume response bytes (any split); [on_answer k] fires when event
    [k] gets its primary response. *)

val answered : t -> int
val complete : t -> bool

val failed : t -> int
(** Unanswered events + [err]/unparsable lines + out-of-order
    responses + a trailing partial line, at most the number of events. *)

val errors : t -> int
val mismatches : t -> int
val sheds : t -> int
val readmits : t -> int
val byes : t -> int

val transcript : t -> string
(** Every byte fed so far. *)
