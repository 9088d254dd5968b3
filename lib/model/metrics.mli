(** Metrics beyond the paper's pQoS and R: delay quantiles and
    load-fairness, useful when comparing delay-aware assignment against
    pure load balancing. *)

type summary = {
  pqos : float;             (** fraction of clients within the bound *)
  utilization : float;      (** total load / total capacity (paper's R) *)
  mean_delay : float;       (** mean client delay, ms; 0 with no clients *)
  median_delay : float;
  p95_delay : float;
  worst_delay : float;
  jain_fairness : float;    (** Jain's index over per-server fill ratios *)
  overloaded_servers : int;
}

val jain_fairness : Assignment.t -> World.t -> float
(** Jain's fairness index [(sum x)^2 / (n * sum x^2)] over per-server
    load/capacity ratios: 1 when all servers are equally filled, 1/n
    when one server carries everything. 1.0 when every server is
    idle. *)

val summary : Assignment.t -> World.t -> summary
