(** Time-ordered event queue for discrete-event simulation.

    Events with equal timestamps are delivered in insertion order
    (FIFO), which keeps simulations deterministic.

    A queue is plain data: no closure, so a deep copy (or a marshalled
    snapshot) of it is a queue that delivers the same events in the
    same order and continues the same tie numbering. The
    representation is exposed so that a queue read back from disk can
    be inspected and {!check}ed; change a live queue only through the
    functions below. *)

type 'a entry = {
  time : float;
  seq : int;  (** insertion number: the tie-break between equal times *)
  payload : 'a;
}

type 'a t = {
  heap : 'a entry Cap_util.Binary_heap.t;  (** min-heap by (time, seq) *)
  mutable next_seq : int;
  mutable clock : float;
}

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** Raises [Invalid_argument] if [time] is negative, NaN, or earlier
    than the last popped time (scheduling into the past). *)

val next : 'a t -> (float * 'a) option
(** Pop the earliest event. *)

val peek_time : 'a t -> float option

val now : 'a t -> float
(** Time of the last popped event; 0 initially. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val check : 'a t -> unit
(** Raise [Invalid_argument] unless the queue is internally
    consistent: a non-negative clock, no entry before it or at a NaN
    time, sequence numbers distinct and below [next_seq], and the heap
    in (time, seq) order. Always holds for a queue built through this
    interface; the check is for one read back from a snapshot. *)
