(** Pieces every workload shares: the clock, the scale scenario
    family, the peak-RSS reader, the topology side pass and a growable
    sample buffer. *)

val world_seed : int
(** The seed of every workload's network: the deployment stays the
    same from run to run, and [--seed] draws what it serves. *)

val now_ns : unit -> int
(** Monotonic nanoseconds ({!Cap_obs.Clock}). *)

val since : int -> float
(** Seconds elapsed since a {!now_ns} reading. *)

val scale_scenario : servers:int -> zones:int -> clients:int -> Cap_model.Scenario.t
(** The paper's shape at data-center scale: per-client traffic capped
    at 50 visible peers, and total capacity provisioned at 1.6 Mbps per
    client so the instance stays feasible. *)

val max_rss_kib : unit -> int
(** Peak resident set of this process (VmHWM) in KiB, from /proc; 0
    where unavailable. Cumulative over the process lifetime. *)

val topology_s : Cap_model.Scenario.t -> Cap_util.Rng.t -> float
(** Side pass: time the first step of [World.generate] — building the
    scenario's topology graph and its all-pairs delays — on a copy of
    the rng state [World.generate] would start from. *)

module Samples : sig
  type t

  val create : unit -> t
  val push : t -> float -> unit
  val to_array : t -> float array
  val sum : t -> float
  val sorted : t -> float array
end
