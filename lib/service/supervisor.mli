(** Supervised restart with exponential backoff, a crash-loop circuit
    breaker, and optional hot-standby failover.

    The loop is pure policy over an injected {!actions} record —
    [capsim supervise] wires it to real [fork]/[waitpid]/[kill], the
    unit tests to a scripted virtual machine with a virtual clock — so
    the restart/backoff/failover behaviour is testable without
    processes.

    Policy: a primary exiting 0 stops supervision ({!Clean_exit});
    exiting 2 means the daemon refused its configuration and a restart
    cannot help ({!Unrecoverable}); anything else is a crash. More
    than [max_crashes] crashes inside a sliding [crash_window] trips
    the breaker ({!Crash_loop}). Otherwise: if a standby is running it
    is promoted immediately (failover beats restart — it is already
    warm from tailing the WAL) and a fresh standby is spawned; without
    one the primary is respawned after
    [min backoff_max (backoff_base * 2^(crashes-1))] seconds of
    backoff. A crashing standby is respawned without disturbing the
    primary, up to the same breaker threshold. *)

type role =
  | Primary
  | Standby

val role_name : role -> string

type actions = {
  spawn : role -> (int, string) result;  (** returns the child pid *)
  promote : pid:int -> (unit, string) result;
      (** tell this standby to take over as primary *)
  wait : unit -> int * Unix.process_status;  (** block for any child *)
  kill : pid:int -> unit;
  sleep : float -> unit;
  now : unit -> float;  (** monotonic seconds, for the crash window *)
  log : string -> unit;
}

type config = {
  backoff_base : float;
  backoff_max : float;
  crash_window : float;  (** seconds *)
  max_crashes : int;  (** crashes tolerated inside the window *)
  with_standby : bool;
}

type outcome =
  | Clean_exit
  | Unrecoverable of int
  | Crash_loop of int
  | Action_error of string

val describe_outcome : outcome -> string

val run : config -> actions -> outcome
