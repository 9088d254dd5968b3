module Stats = Cap_util.Stats

type summary = {
  pqos : float;
  utilization : float;
  mean_delay : float;
  median_delay : float;
  p95_delay : float;
  worst_delay : float;
  jain_fairness : float;
  overloaded_servers : int;
}

let jain_fairness assignment world =
  let loads = Assignment.server_loads assignment world in
  let fills = Array.mapi (fun s load -> load /. world.World.capacities.(s)) loads in
  let total = Array.fold_left ( +. ) 0. fills in
  let squares = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. fills in
  if squares = 0. then 1.
  else total *. total /. (float_of_int (Array.length fills) *. squares)

let summary assignment world =
  let delays = Assignment.delay_samples assignment world in
  let quantile q = if Array.length delays = 0 then 0. else Stats.quantile delays q in
  {
    pqos = Assignment.pqos assignment world;
    utilization = Assignment.utilization assignment world;
    mean_delay = (if Array.length delays = 0 then 0. else Stats.mean delays);
    median_delay = quantile 0.5;
    p95_delay = quantile 0.95;
    worst_delay = quantile 1.;
    jain_fairness = jain_fairness assignment world;
    overloaded_servers = List.length (Assignment.overloaded_servers assignment world);
  }
