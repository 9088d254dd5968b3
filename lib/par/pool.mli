(** Fixed-size domain pool for deterministic data parallelism.

    The pool runs index-space loops ([parallel_for]) across a fixed set
    of worker domains plus the calling domain. Scheduling is
    work-stealing over a shared index counter, but every output slot is
    written by exactly one task, so results never depend on the
    schedule: a loop body that is a pure function of its index produces
    bitwise-identical results at any pool size, including the serial
    size-1 pool.

    Nested calls do not deadlock and do not oversubscribe: a
    [parallel_for] issued from inside a pool task runs inline,
    serially, on the domain that issued it. Combined with {!map_seeds}
    (per-task RNG streams split in index order before the fan-out),
    this makes "parallel outer loop over replicate runs, parallel
    inner matrix fills" safe and deterministic by construction. *)

type t
(** A pool handle. The serial pool ([domains = 1]) spawns nothing and
    runs everything inline. *)

val domains : t -> int
(** Total participants, including the calling domain; [1] for the
    serial pool. *)

val inside : unit -> bool
(** Whether the calling domain is currently executing a pool task. Any
    [parallel_for] issued here runs inline; callers can use this to
    skip spawning throwaway local pools that would never be
    exercised. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~n body] runs [body i] once for every
    [i] in [0 .. n-1], distributing indices across the pool. The call
    returns when all [n] tasks have finished. If any body raises, one
    of the exceptions is re-raised in the caller (with its backtrace)
    after all grabbed tasks have completed; remaining indices are
    abandoned. Runs inline and in order when the pool is serial or the
    caller is itself a pool task. *)

val map_seeds :
  t -> rng:Cap_util.Rng.t -> runs:int -> (int -> Cap_util.Rng.t -> 'a) -> 'a array
(** [map_seeds pool ~rng ~runs body] runs [body i rng_i] for each run
    index [i], where [rng_i] is the [i]-th stream of
    [Rng.split_n rng runs] — split serially, in index order, before
    any task starts. Results are returned in run order, so the output
    is a pure function of [rng]'s state and [runs], independent of the
    pool size: the parallel fan-out is bitwise-identical to the serial
    loop. *)

val with_local : domains:int -> (t -> 'a) -> 'a
(** [with_local ~domains f] runs [f] with a freshly spawned pool of
    that size ([domains - 1] worker domains plus the caller) and always
    joins its domains afterwards. When called from inside a pool task
    the pool is created serial (size 1) — nested parallel sections run
    inline anyway, so the worker domains would only be dead weight. *)

(** {1 Process-wide default pool}

    One pool shared by every layer that parallelises opportunistically
    (matrix fills, experiment replication). Sized by [--jobs] /
    [CAP_JOBS]; serial until asked otherwise. *)

val set_default_jobs : int -> unit
(** Set the size of the default pool (clamped to at least 1). An
    existing default pool of a different size is shut down and
    respawned lazily on next use. *)

val default_jobs : unit -> int
(** Current default size; initially [1]. *)

val default : unit -> t
(** The process-wide pool, (re)spawned to match {!default_jobs}. The
    pool is shut down automatically at exit. *)

val ensure : jobs:int -> t
(** [ensure ~jobs] is [set_default_jobs jobs; default ()] — the
    default pool resized to exactly [jobs]. *)
