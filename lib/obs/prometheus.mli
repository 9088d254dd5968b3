(** Prometheus text exposition format (version 0.0.4) for the metrics
    registry: [# HELP] / [# TYPE] headers, escaped label values, and
    cumulative [_bucket]/[_sum]/[_count] series for histograms. *)

val render : unit -> string
(** The whole registry as exposition text, sorted by metric name and
    labels, so each metric's series sit under one header. *)

val write : string -> unit
(** [write file] renders to [file]. *)
