(** The benchmark's in-memory socket: one connection whose peer will
    send a fixed byte string, revealed a prefix at a time.

    The reactor runs its own framing, deadline and flush code over it;
    the fabric only moves bytes. Reads copy from the delivered prefix
    and return [`Again] once it is consumed; writes append to a buffer
    the harness drains after every poll, so nothing grows for the whole
    run; [bk_wait] answers at once. Unlike [Net.Sim], no peer parses
    the responses inside the reactor's write, so none of the harness's
    own work is charged to the reactor. *)

type t

val create : ?max_read:int -> string -> t
(** [create input]: a peer that will send [input]. [max_read]
    (default unbounded) caps the bytes one read returns, to exercise
    partial reads. *)

val backend : t -> Cap_service.Net.backend
(** Accepts the one connection on the first poll. Its clock is the
    value last given to {!set_now}. *)

val deliver : t -> int -> unit
(** Make the first [n] bytes of the input readable (never shrinks). *)

val unread : t -> int
(** Delivered bytes the reactor has not read yet. *)

val take_output : t -> string
(** Everything written since the last call. *)

val write_calls : t -> int
val set_now : t -> float -> unit
