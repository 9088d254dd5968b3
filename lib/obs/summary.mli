(** Human-readable console summary of the collected telemetry:
    per-span-name timing aggregates, then counters/gauges, then
    histogram quantiles, as [Cap_util.Table]s. *)

val render : unit -> string
(** All non-empty sections, with headings: one row per distinct span
    name (count, total/mean/max wall time), one per counter or gauge
    series, one per histogram series (count, mean, p50, p95, max).
    Empty string when nothing was recorded. *)

val print : unit -> unit
