(** Time series produced by the dynamic DVE simulation. *)

type point = {
  time : float;
  clients : int;
  pqos : float;
  utilization : float;
  reassignments : int;  (** cumulative re-executions so far *)
  unassigned : int;     (** clients currently shed with no server
                            (orphaned by failures, awaiting re-homing) *)
  down_servers : int;   (** servers currently dead *)
  components : int;     (** connected components of the live backbone
                            mesh (CSV column [parts]): 1 = whole, >= 2
                            = partitioned, 0 = every server dead *)
}

type t

val create : unit -> t
val record : t -> point -> unit
val points : t -> point list
(** In chronological (insertion) order. *)

val mean_pqos : t -> float
(** Time-unweighted mean over samples; 0 if empty. *)

val min_pqos : t -> float
(** 1.0 if empty. *)

val final : t -> point option

val to_table : t -> Cap_util.Table.t
val to_csv : t -> string

type parse_error = {
  line : int;     (** 1-based line number in the input *)
  field : string; (** offending column, or ["row"] / ["header"] *)
  value : string; (** the offending text as written *)
  reason : string;
}
(** Structured diagnostic for a malformed trace CSV. *)

val describe_error : parse_error -> string
(** One line: ["line 17: field pQoS = \"x\": not a number"]. *)

val parse_csv : string -> (t, parse_error) result
(** Parse [to_csv] output back into a trace (values at the CSV's
    printed precision: time to 0.1, pQoS/utilization to 0.001).
    Tolerates CRLF line endings and trailing newlines; never raises on
    malformed input. *)
