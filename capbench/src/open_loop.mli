(** An open loop accounted in virtual time.

    Requests are due on a fixed schedule whatever the server does. The
    server clock starts at 0. Before each poll, every request due by
    the clock is delivered; when the server has read everything and the
    next request is not due yet, the clock jumps to that due time (idle
    time costs no wall time). Each poll is timed for real and the clock
    advances by exactly that time, so a request answered in a poll
    waited [clock - due]: its own service, the batch it shared, and any
    stall ahead of it. The generator is never late: a request is
    delivered at the first poll boundary at or after its due time. *)

type outcome = {
  busy : float;  (** sum of poll times, seconds *)
  polls : int;
  clock : float;  (** server clock after the last poll *)
  complete : bool;
      (** every answer came in; [false] when the server read every line
          but some answers never came *)
}

val run :
  due:float array ->
  deliver:(int -> unit) ->
  idle:(unit -> bool) ->
  poll:(clock:float -> float) ->
  answered:(clock:float -> bool) ->
  outcome
(** [due] is ascending, one entry per request line. [deliver k] makes
    lines [0 .. k-1] readable; [idle ()] says the server has read all
    delivered bytes; [poll ~clock] runs one server round and returns
    its measured duration; [answered ~clock] collects that round's
    answers, stamping them at [clock], and says whether every answer
    is in. Stops early, with [complete = false], once the server has
    read every line and a poll still leaves answers missing. *)
