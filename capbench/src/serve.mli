(** The service workloads: the daemon's own reactor, framer, parser,
    WAL and engine, driven in-process over {!Fabric} by an open loop
    accounted in virtual time ({!Open_loop}). *)

type spec = {
  scenario : string;  (** the world, in paper notation *)
  mix : Cap_service.Loadgen.mix;
  durable : bool;  (** WAL on the real filesystem, fsync every 32 records *)
  lo_rate : float;  (** events/s of the gated latency *)
  hi_rate : float;
  slo_p99_us : float;  (** p99 limit of the highest rate that meets it *)
}

val durable : spec
(** serve-durable: 20s-80z-500c-1000cp, mix 1:1:8, WAL on, 20k/40k ev/s. *)

val engine : spec
(** serve-engine: 50s-200z-5000c-40000cp, mix 1:1:8, no WAL, 5k/12k ev/s. *)

val run :
  spec ->
  seed:int ->
  events:int ->
  rounds:int ->
  trace:bool ->
  ?spans_out:string ->
  work_dir:string ->
  unit ->
  Catalog.outcome
(** Resolve the world's hello several times (set-up), measure pqos and
    the admitted share on a flood of the world's own stream (drawn from
    the world seed), draw an [events] stream from [seed], then run
    [rounds] rounds of a flood pass (the
    whole stream due at once) and a low-rate pass, each through a fresh
    daemon, checking every response stream and (when durable) a cold
    restart from the WAL. With [trace], every round adds a traced pass
    and the side passes, and a high-rate pass and four SLO probes
    follow; [spans_out] receives the fastest traced pass's spans. WAL
    files live in [work_dir] and are removed before returning. *)
