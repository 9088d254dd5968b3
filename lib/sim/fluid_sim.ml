module Rng = Cap_util.Rng
module World = Cap_model.World
module Assignment = Cap_model.Assignment
module Scenario = Cap_model.Scenario

type config = {
  duration : float;
  tick : float;
  burstiness : float;
}

let default_config = { duration = 30.; tick = 0.05; burstiness = 0.2 }

type server_report = {
  mean_queueing_delay : float;
  saturated_fraction : float;
  final_backlog : float;
}

type outcome = {
  nominal_pqos : float;
  effective_pqos : float;
  mean_queueing_delay : float;
  per_server : server_report array;
}

(* A cheap positive random factor with mean 1 and standard deviation
   [cv]: average of 12 uniforms (Irwin-Hall) rescaled. *)
let bursty_factor rng ~cv =
  if cv = 0. then 1.
  else begin
    let acc = ref 0. in
    for _ = 1 to 12 do
      acc := !acc +. Rng.uniform rng
    done;
    (* Irwin-Hall(12): mean 6, std 1 *)
    max 0. (1. +. (cv *. (!acc -. 6.)))
  end

let validate config world assignment =
  if config.duration <= 0. then invalid_arg "Fluid_sim: duration must be positive";
  if config.tick <= 0. then invalid_arg "Fluid_sim: tick must be positive";
  if config.burstiness < 0. then invalid_arg "Fluid_sim: negative burstiness";
  if
    Array.length assignment.Assignment.target_of_zone <> World.zone_count world
    || Array.length assignment.Assignment.contact_of_client <> World.client_count world
  then invalid_arg "Fluid_sim: assignment does not match the world"

(* The per-server queue simulation shared by both entry points. *)
let simulate_queues rng config world rates =
  let servers = World.server_count world in
  let capacities = world.World.capacities in
  let backlog = Array.make servers 0. in
  let backlog_time_sum = Array.make servers 0. in
  let saturated_ticks = Array.make servers 0 in
  let ticks = max 1 (int_of_float (ceil (config.duration /. config.tick))) in
  for _ = 1 to ticks do
    for s = 0 to servers - 1 do
      let offered = rates.(s) *. config.tick *. bursty_factor rng ~cv:config.burstiness in
      let drained = capacities.(s) *. config.tick in
      backlog.(s) <- max 0. (backlog.(s) +. offered -. drained);
      if backlog.(s) > 0. then saturated_ticks.(s) <- saturated_ticks.(s) + 1;
      backlog_time_sum.(s) <- backlog_time_sum.(s) +. backlog.(s)
    done
  done;
  Array.init servers (fun s ->
      let mean_backlog = backlog_time_sum.(s) /. float_of_int ticks in
      {
        (* a bit queued behind [mean_backlog] bits on a link of
           [capacity] bits/s waits backlog/capacity seconds *)
        mean_queueing_delay = 1000. *. mean_backlog /. capacities.(s);
        saturated_fraction = float_of_int saturated_ticks.(s) /. float_of_int ticks;
        final_backlog = backlog.(s);
      })

let run rng ?(config = default_config) world assignment =
  validate config world assignment;
  let rates = Assignment.server_loads assignment world in
  let per_server = simulate_queues rng config world rates in
  let bound = world.World.scenario.Scenario.delay_bound in
  let k = World.client_count world in
  let nominal_with_qos = ref 0 and effective_with_qos = ref 0 in
  let queueing_total = ref 0. in
  for c = 0 to k - 1 do
    let contact = assignment.Assignment.contact_of_client.(c) in
    let target = Assignment.target_of_client assignment world c in
    let nominal = Assignment.client_delay assignment world c in
    (* traffic crosses the contact's egress; relayed traffic also the
       target's *)
    let queueing =
      per_server.(contact).mean_queueing_delay
      +. if target = contact then 0. else per_server.(target).mean_queueing_delay
    in
    queueing_total := !queueing_total +. queueing;
    if nominal <= bound then incr nominal_with_qos;
    if nominal +. queueing <= bound then incr effective_with_qos
  done;
  let fraction count = if k = 0 then 1. else float_of_int count /. float_of_int k in
  {
    nominal_pqos = fraction !nominal_with_qos;
    effective_pqos = fraction !effective_with_qos;
    mean_queueing_delay = (if k = 0 then 0. else !queueing_total /. float_of_int k);
    per_server;
  }
