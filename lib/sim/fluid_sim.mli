(** Fluid-flow queueing simulation of server egress links.

    The paper assumes a client's communication delay equals its network
    delay — valid exactly while no server's bandwidth is saturated
    (§2.1 "we assume that the server CPU is not a bottleneck"; Eq. 2
    keeps loads within capacity to protect that assumption). This
    module checks the assumption instead of assuming it: it simulates
    each server's egress queue at a fixed tick with stochastically
    bursty offered load around the analytic rates, yielding
    time-averaged queueing delays and an {e effective} pQoS that
    includes them.

    For capacity-respecting assignments the effective pQoS matches the
    nominal one (queues stay transient); for assignments that violate
    Eq. 2 — e.g. a fallback placement on an infeasible instance — the
    overloaded servers' queues grow and interactivity collapses, which
    is precisely why the paper's capacity constraint matters. *)

type config = {
  duration : float;    (** simulated seconds (default 30) *)
  tick : float;        (** queue update step, seconds (default 0.05) *)
  burstiness : float;  (** coefficient of variation of per-tick offered
                           load (default 0.2; 0 = deterministic fluid) *)
}

val default_config : config

type server_report = {
  mean_queueing_delay : float;   (** time-averaged ms of added delay *)
  saturated_fraction : float;    (** fraction of ticks with a backlog *)
  final_backlog : float;         (** bits still queued at the end *)
}

type outcome = {
  nominal_pqos : float;          (** the paper's pQoS (network only) *)
  effective_pqos : float;        (** pQoS including queueing delay *)
  mean_queueing_delay : float;   (** client-averaged added delay, ms *)
  per_server : server_report array;
}

val run :
  Cap_util.Rng.t -> ?config:config -> Cap_model.World.t -> Cap_model.Assignment.t -> outcome
(** Raises [Invalid_argument] on non-positive duration/tick, negative
    burstiness, or an assignment that does not match the world. *)
