(** JSONL export of the span/event stream: one JSON object per line,
    chronological. Spans carry [type, id, parent, depth, name, attrs,
    start_ms, dur_ms]; events carry [type, parent, name, attrs,
    at_ms]. Times are milliseconds since the telemetry epoch. *)

val escape_string : string -> string
(** JSON string-body escaping (quotes, backslash, control chars). *)

val render : unit -> string
val write : string -> unit

val write_metrics : string -> unit
(** [write_metrics file] writes one JSON object per registered
    instrument: counters and gauges carry [value]; histograms carry
    [count, sum, min, max], estimated [p50/p90/p99/p999] quantiles and
    the raw bucket [bounds]/[counts] (non-finite numbers render as
    [null]). *)
