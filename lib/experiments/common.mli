(** Shared experiment plumbing: seeded replication and aggregate
    metrics, mirroring the paper's methodology of averaging 50
    simulation runs per data point. *)

val default_runs : unit -> int
(** [CAP_RUNS] from the environment if set and positive, otherwise
    the paper's 50. Benchmarks use this to trade precision for time. *)

val replicate :
  ?jobs:int -> runs:int -> seed:int -> (Cap_util.Rng.t -> 'a) -> 'a list
(** Run the body once per replicate, each with an independent RNG
    stream derived deterministically from [seed], fanned across the
    process-wide domain pool ({!Cap_par.Pool.default}). [jobs] resizes
    that pool first; without it the current size (1 unless e.g.
    [capsim --jobs] raised it) is used. Streams are split in run order
    before the fan-out and results are returned in run order, so the
    output depends only on [seed] and [runs] — never on [jobs].
    Raises [Invalid_argument] if [runs <= 0]. *)

val mean_by : ('a -> float) -> 'a list -> float
(** Mean of a projection; raises [Invalid_argument] on []. *)

type measured = {
  pqos : float;
  utilization : float;
}
(** The paper's two performance measures for one algorithm. *)

val measure :
  Cap_model.Assignment.t -> Cap_model.World.t -> measured

val mean_measured : measured list -> measured

val run_all_algorithms :
  Cap_util.Rng.t ->
  Cap_model.World.t ->
  (string * Cap_model.Assignment.t) list
(** Every paper algorithm executed on the same world (same inputs, as
    in the paper's comparisons). *)

val time_wall : (unit -> 'a) -> 'a * float
(** Result and elapsed wall-clock seconds on [Cap_obs.Clock] — the
    one clock every reported timing uses. *)
