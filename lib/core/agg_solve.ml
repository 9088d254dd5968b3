module World = Cap_model.World
module Scenario = Cap_model.Scenario
module Aggregate = Cap_model.Aggregate
module Assignment = Cap_model.Assignment
module Rng = Cap_util.Rng
module Pool = Cap_par.Pool

let groups_solved_total =
  Cap_obs.Metrics.Counter.create "agg_groups_solved_total"
    ~help:"Client groups processed by aggregated two-phase solves"

let late_groups_total =
  Cap_obs.Metrics.Counter.create "agg_late_groups_total"
    ~help:"Groups beyond the delay bound considered for contact refinement"

let delay_bound (agg : Aggregate.t) =
  agg.Aggregate.world.World.scenario.Scenario.delay_bound

let gs agg ~group ~server =
  let servers = World.server_count agg.Aggregate.world in
  Bigarray.Array1.get agg.Aggregate.gs_rtt ((group * servers) + server)

(* ------------------------------------------------------------------ *)
(* Weighted GreZ                                                       *)

(* The zone x server cost matrix of Grez, computed from the group
   rows: C^I(z, s) = sum over z's groups of weight * [rtt > D], and
   the mean-delay tie-break = sum of weight * rtt / population. Both
   scans are O(groups * m) instead of O(k * m). Row-parallel per
   zone; deterministic at any pool size. *)
let zone_tables agg =
  let world = agg.Aggregate.world in
  let c = World.cached world in
  let servers = World.server_count world in
  let zones = World.zone_count world in
  let bound = delay_bound agg in
  let gs_rtt = agg.Aggregate.gs_rtt in
  let costs = Array.make zones [||] in
  let delays = Array.make zones [||] in
  Pool.parallel_for (Pool.default ()) ~n:zones (fun z ->
      let cost = Array.make servers 0 in
      let delay = Array.make servers 0. in
      for g = agg.Aggregate.zone_group_off.(z) to agg.Aggregate.zone_group_off.(z + 1) - 1 do
        let weight = agg.Aggregate.group_weight.(g) in
        let fweight = float_of_int weight in
        let base = g * servers in
        for s = 0 to servers - 1 do
          let rtt = Bigarray.Array1.unsafe_get gs_rtt (base + s) in
          if rtt > bound then cost.(s) <- cost.(s) + weight;
          delay.(s) <- delay.(s) +. (fweight *. rtt)
        done
      done;
      let pop = c.World.zone_pop.(z) in
      if pop > 0 then begin
        let fpop = float_of_int pop in
        for s = 0 to servers - 1 do
          delay.(s) <- delay.(s) /. fpop
        done
      end;
      costs.(z) <- cost;
      delays.(z) <- delay);
  (costs, delays)

let assign_zones ?rule agg =
  let world = agg.Aggregate.world in
  let costs, delays = zone_tables agg in
  fst
    (Grez.place_zones ?rule ~costs ~delays ~rates:(Server_load.zone_rates world)
       ~capacities:world.World.capacities ())

(* ------------------------------------------------------------------ *)
(* Group-level GreC                                                    *)

(* Late groups are ranked by the group refined cost (Eq. 8 on the
   group mean RTT) exactly as Grec ranks late clients; a group's
   members are then placed one by one along its preference list, so
   capacity can split a group across contacts just as per-client GreC
   splits a run of identical clients. The preference walk only moves
   forward and each member is placed once, keeping the whole
   refinement O(late_groups * m log m + late_members). *)
let refine_contacts ?(rule = Regret.Best_minus_second) agg ~targets =
  let world = agg.Aggregate.world in
  if Array.length targets <> World.zone_count world then
    invalid_arg "Agg_solve.refine_contacts: targets do not match the world";
  let c = World.cached world in
  let servers = World.server_count world in
  let k = World.client_count world in
  let bound = delay_bound agg in
  let ss = c.World.ss_rtt in
  let capacities = world.World.capacities in
  let loads = Array.make servers 0. in
  Array.iteri
    (fun z target ->
      if target <> Assignment.unassigned then
        loads.(target) <- loads.(target) +. c.World.zone_rate_of.(z))
    targets;
  let contacts = Array.make k 0 in
  for cl = 0 to k - 1 do
    contacts.(cl) <- targets.(world.World.client_zones.(cl))
  done;
  let late = ref [] in
  for g = agg.Aggregate.groups - 1 downto 0 do
    let target = targets.(agg.Aggregate.group_zone.(g)) in
    if target <> Assignment.unassigned && gs agg ~group:g ~server:target > bound then
      late := g :: !late
  done;
  let late = Array.of_list !late in
  (* Keys are the relayed delays, as in Grec. *)
  let w = Regret.Walk.create servers in
  let relayed = Regret.Walk.keys w in
  let gs_rtt = agg.Aggregate.gs_rtt in
  let fill g =
    let base = g * servers and target = targets.(agg.Aggregate.group_zone.(g)) in
    for s = 0 to servers - 1 do
      relayed.(s) <-
        Bigarray.Array1.unsafe_get gs_rtt (base + s)
        +. Bigarray.Array1.unsafe_get ss ((s * servers) + target)
    done
  in
  let desirability r = -.max 0. (r -. bound) in
  Array.iter
    (fun g ->
      let z = agg.Aggregate.group_zone.(g) in
      let target = targets.(z) in
      (* all members of a group share a zone, hence a forwarding rate *)
      let forwarding = 2. *. c.World.zone_client_rate.(z) in
      let lo = agg.Aggregate.group_off.(g) and hi = agg.Aggregate.group_off.(g + 1) in
      let next = ref lo in
      fill g;
      Regret.Walk.start w;
      while !next < hi do
        let s = Regret.Walk.next w in
        if s < 0 || desirability relayed.(s) = neg_infinity then
          (* unreachable contact (partitioned backbone): never an
             answer — anything after it is no better, stop here and
             leave the rest on the direct link *)
          next := hi
        else if s = target then begin
          (* the direct link costs no forwarding: takes every
             remaining member *)
          while !next < hi do
            contacts.(agg.Aggregate.group_clients.(!next)) <- s;
            incr next
          done
        end
        else
          while !next < hi && loads.(s) +. forwarding <= capacities.(s) do
            contacts.(agg.Aggregate.group_clients.(!next)) <- s;
            loads.(s) <- loads.(s) +. forwarding;
            incr next
          done
      done)
    (Regret.rank w ~rule ~ids:late ~fill ~desirability);
  Cap_obs.Metrics.Counter.add groups_solved_total (float_of_int agg.Aggregate.groups);
  Cap_obs.Metrics.Counter.add late_groups_total (float_of_int (Array.length late));
  contacts

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let solve rng ?buckets world =
  let agg = Aggregate.build rng ?buckets world in
  let targets = assign_zones agg in
  let contacts = refine_contacts agg ~targets in
  Assignment.make ~target_of_zone:targets ~contact_of_client:contacts

(* A Two_phase.t whose phases share one aggregation per world: the
   IAP builds it (consuming one rng split, so results are a pure
   function of the seed) and the RAP reuses it. The memo is keyed on
   the world value, so a reused algorithm handle — e.g. across
   Dve_sim reassignments — re-aggregates exactly when the world
   changes. *)
let two_phase ?buckets () =
  let memo = ref None in
  let aggregation rng world =
    match !memo with
    | Some (w, agg) when w == world -> agg
    | _ ->
        let agg = Aggregate.build (Rng.split rng) ?buckets world in
        memo := Some (world, agg);
        agg
  in
  {
    Two_phase.name = "GreZ-GreC(agg)";
    iap = (fun rng world -> assign_zones (aggregation rng world));
    rap = (fun rng world ~targets -> refine_contacts (aggregation rng world) ~targets);
  }
