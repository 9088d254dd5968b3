(** Every metric the benchmark reports, with its unit, in print order.
    BENCHMARK.json lists the same names. *)

val end_to_end : (string * string) list
(** Reported by every workload on every run; all are gated. *)

val per_layer : (string * string) list
(** Reported by traced runs; a layer a workload does not exercise
    reads 0. *)

(** What one workload run produced. *)
type outcome = {
  attempted : int;  (** events sent, or solves run *)
  failed : int;  (** unanswered + [err] + out of order + invalid *)
  problems : string list;  (** every failed check, one line each *)
  end_to_end : (string * float) list;
  per_layer : (string * float) list;  (** empty unless traced *)
  notes : string list;  (** sample counts and unguarded extras, for people *)
}
