module World = Cap_model.World
module Scenario = Cap_model.Scenario
module Assignment = Cap_model.Assignment

let late_clients_total =
  Cap_obs.Metrics.Counter.create "grec_late_clients_total"
    ~help:"Clients beyond the delay bound considered for contact refinement"

let refined_clients_total =
  Cap_obs.Metrics.Counter.create "grec_refined_clients_total"
    ~help:"Late clients actually moved to a cheaper contact server"

let assign ?(rule = Regret.Best_minus_second) ?alive world ~targets =
  (match alive with
  | Some mask when Array.length mask <> World.server_count world ->
      invalid_arg "Grec.assign: alive mask does not match the world's servers"
  | Some _ | None -> ());
  let usable s = match alive with None -> true | Some mask -> mask.(s) in
  let c = World.cached world in
  let servers = World.server_count world in
  let bound = world.World.scenario.Scenario.delay_bound in
  let capacities = world.World.capacities in
  let nodes = world.World.client_nodes and zone_of = world.World.client_zones in
  let ns = c.World.ns_rtt and ss = c.World.ss_rtt in
  (* Server loads start from the zone loads implied by the initial
     assignment; refined choices then add forwarding bandwidth. *)
  let loads = Array.make servers 0. in
  Array.iteri
    (fun z target ->
      if target <> Assignment.unassigned then
        loads.(target) <- loads.(target) +. c.World.zone_rate_of.(z))
    targets;
  let contacts = Array.map (fun z -> targets.(z)) zone_of in
  (* Late detection reads the same f32 node rows the refinement costs
     read, so a client is late exactly when its refined cost can be
     positive. *)
  let late = ref [] in
  for cl = World.client_count world - 1 downto 0 do
    let target = contacts.(cl) in
    if
      target <> Assignment.unassigned
      && Bigarray.Array1.get ns ((nodes.(cl) * servers) + target) > bound
    then late := cl :: !late
  done;
  let late = Array.of_list !late in
  (* A late client's keys are its relayed delays (Cost.relayed_delay)
     to every contact. The desirability -C^R only falls as they rise,
     which makes their order the paper's (see Regret). *)
  let w = Regret.Walk.create servers in
  let relayed = Regret.Walk.keys w in
  let fill cl =
    let base = nodes.(cl) * servers and target = targets.(zone_of.(cl)) in
    for s = 0 to servers - 1 do
      relayed.(s) <-
        Bigarray.Array1.unsafe_get ns (base + s)
        +. Bigarray.Array1.unsafe_get ss ((s * servers) + target)
    done
  in
  let desirability r = -.max 0. (r -. bound) in
  let refined = ref 0 in
  Array.iter
    (fun cl ->
      let target = targets.(zone_of.(cl)) in
      let forwarding = 2. *. c.World.zone_client_rate.(zone_of.(cl)) in
      fill cl;
      Regret.Walk.start w;
      (* An infinitely bad contact (it cannot reach the target across
         the backbone) is never an answer, even when everything better
         is full; keys ascend, so the first one ends the walk and the
         client keeps the direct link. The target itself adds no
         forwarding load, so the walk ends there when loads started
         feasible. *)
      let rec first () =
        let s = Regret.Walk.next w in
        if s < 0 || desirability relayed.(s) = neg_infinity then target
        else
          let extra = if s = target then 0. else forwarding in
          if usable s && loads.(s) +. extra <= capacities.(s) then s else first ()
      in
      let s = first () in
      if s <> target then begin
        incr refined;
        contacts.(cl) <- s;
        loads.(s) <- loads.(s) +. forwarding
      end)
    (Regret.rank w ~rule ~ids:late ~fill ~desirability);
  Cap_obs.Metrics.Counter.add late_clients_total (float_of_int (Array.length late));
  Cap_obs.Metrics.Counter.add refined_clients_total (float_of_int !refined);
  contacts
