(** Metrics registry: counters, gauges, and log-bucketed histograms.

    Instruments register themselves in a global registry under a
    [(name, labels)] key; creation is idempotent (re-creating an
    existing instrument returns the same handle) so module-level
    instruments and per-call creation both work. Recording is a no-op
    while [Control.on ()] is false. Exporters consume [collect]. *)

type label = string * string

module Counter : sig
  type t

  val create : ?labels:label list -> ?help:string -> string -> t
  val incr : t -> unit
  val add : t -> float -> unit
  (** Raises [Invalid_argument] on a negative increment. *)

  val value : t -> float
end

module Gauge : sig
  type t

  val create : ?labels:label list -> ?help:string -> string -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val create :
    ?labels:label list ->
    ?help:string ->
    ?base:float ->
    ?lowest:float ->
    ?buckets:int ->
    string ->
    t
  (** Bucket upper bounds are [lowest *. base ** i] for
      [i = 0 .. buckets - 1], plus an implicit [+Inf] overflow bucket.
      Defaults ([base = 2.], [lowest = 1e-6], [buckets = 40]) cover
      one microsecond to ~6 days of seconds-valued observations.
      Raises [Invalid_argument] if [base <= 1.], [lowest <= 0.] or
      [buckets < 1]. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val quantile : t -> float -> float
  (** Estimated [q]-quantile, interpolated geometrically inside the
      containing bucket; exact observed min/max at [q = 0.] / [1.].
      The estimate is within one bucket (a factor of [base]) of the
      true sample quantile. [nan] when empty. *)

  val bucket_bounds : t -> float array
  val bucket_counts : t -> int array
  (** Per-bucket (non-cumulative) counts; the final extra cell is the
      [+Inf] overflow bucket. *)

  val estimate_quantile :
    bounds:float array ->
    counts:int array ->
    count:int ->
    minimum:float ->
    maximum:float ->
    float ->
    float
  (** The estimator behind [quantile], usable on exported snapshots. *)
end

(** Read-only snapshot of one instrument, for exporters. *)
type sample = {
  name : string;
  help : string;
  labels : label list;
  data : data;
}

and data =
  | Counter_sample of float
  | Gauge_sample of float
  | Histogram_sample of {
      bounds : float array;
      counts : int array;  (** non-cumulative, last cell = overflow *)
      sum : float;
      count : int;
      min : float;
      max : float;
    }

val collect : unit -> sample list
(** All registered instruments in registration order. *)

val export_values : unit -> ((string * label list) * data) list
(** Current values of every instrument (counters, gauges and
    histograms), in registration order. Used by snapshots to persist
    telemetry across a checkpoint/resume cycle. *)

val restore_values : ((string * label list) * data) list -> unit
(** Overwrite instrument values from {!export_values} output. Applies
    even while recording is disabled. An entry is ignored when its
    instrument is not registered in this process or is of another
    kind; a histogram is restored only when its bucket bounds match. *)

val reset : unit -> unit
(** Zero every registered instrument's recorded values. Registrations
    (and existing handles) survive, so module-level instruments keep
    working across resets. *)
