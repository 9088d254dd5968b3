(* The allocation-free GreZ, GreC, assign_zones and refine_contacts
   against the full-sort planner kept verbatim in oracle.ml: every
   output array must be identical, on generated worlds pushed into the
   corners the lazy walk and the top-two regret have to get right —
   tight capacities (deep walks, fallbacks), dead servers and alive
   masks, partitioned meshes (infinite relayed delays, NaN regrets),
   one-server worlds, both regret rules, and 1 vs 4 worker domains. *)

module Rng = Cap_util.Rng
module Pool = Cap_par.Pool
module Scenario = Cap_model.Scenario
module World = Cap_model.World
module Health = Cap_model.Health
module Aggregate = Cap_model.Aggregate
module Cost = Cap_core.Cost
module Regret = Cap_core.Regret
module Grez = Cap_core.Grez
module Grec = Cap_core.Grec
module Agg_solve = Cap_core.Agg_solve

let at_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

(* Topology generation dominates; the networks are memoized and each
   case draws its own clients, capacities and faults on top. *)
let networks : (int * int, World.t) Hashtbl.t = Hashtbl.create 8

let network ~servers ~seed =
  match Hashtbl.find_opt networks (servers, seed) with
  | Some w -> w
  | None ->
      let scenario =
        Scenario.make ~servers ~zones:12 ~clients:150
          ~total_capacity_mbps:(16. *. float_of_int servers) ()
      in
      let w = World.generate (Rng.create ~seed) scenario in
      Hashtbl.replace networks (servers, seed) w;
      w

type case = {
  world : World.t;
  alive : bool array option;
  rule : Regret.rule;
  rng : Rng.t;  (** what is left of the case's stream, for targets *)
}

let server_counts = [| 1; 2; 5; 8 |]

(* One seeded case: clients redrawn on a memoized network, capacities
   scaled from starved to ample, and, when the network has room for
   it, crashed servers, a degraded server and a mesh cut into two
   partitions. *)
let make_case seed =
  let rng = Rng.create ~seed in
  let servers = server_counts.(Rng.int rng (Array.length server_counts)) in
  let base = network ~servers ~seed:(1 + Rng.int rng 2) in
  let k = 40 + Rng.int rng 160 in
  let client_nodes = Array.make k 0 and client_zones = Array.make k 0 in
  for c = 0 to k - 1 do
    let node = Cap_model.Distribution.sample_node base.World.sampler rng in
    client_nodes.(c) <- node;
    client_zones.(c) <- Cap_model.Distribution.sample_zone base.World.sampler rng ~node
  done;
  let w = World.replace_clients base ~client_nodes ~client_zones in
  let scale = [| 0.02; 0.1; 0.3; 1.; 10. |].(Rng.int rng 5) in
  let w =
    {
      w with
      World.capacities = Array.map (fun c -> c *. scale) w.World.capacities;
      cache = World.fresh_cache ();
    }
  in
  let health = Health.create ~servers in
  if servers > 1 then begin
    if Rng.bool rng then Health.crash health (Rng.int rng servers);
    if Rng.bool rng then Health.degrade health (Rng.int rng servers) ~delay_penalty:80.;
    if Rng.bool rng then begin
      let cut = 1 + Rng.int rng (servers - 1) in
      for i = 0 to cut - 1 do
        for j = cut to servers - 1 do
          Health.cut_link health i j
        done
      done
    end
  end;
  let world = if Health.is_pristine health then w else Health.apply health w in
  let alive =
    match Rng.int rng 3 with
    | 0 -> None
    | 1 -> if Health.alive_count health > 0 then Some (Health.alive_mask health) else None
    | _ ->
        let mask = Array.init servers (fun _ -> Rng.int rng 4 > 0) in
        mask.(Rng.int rng servers) <- true;
        Some mask
  in
  let rule = if Rng.bool rng then Regret.Best_minus_second else Regret.Second_minus_best in
  { world; alive; rule; rng }

(* Arbitrary targets too, shed zones and dead servers included: GreC
   must agree on any input, not only on GreZ's answers. *)
let random_targets case =
  let servers = World.server_count case.world in
  Array.init (World.zone_count case.world) (fun _ ->
      Rng.int case.rng (servers + 1) - 1)

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let same name a b =
  if a = b then true
  else QCheck.Test.fail_reportf "%s differs from the full-sort oracle" name

let check_grez case =
  let { world; alive; rule; _ } = case in
  let costs = Oracle.Cost.initial_matrix world in
  same "zone tables" (costs, Oracle.Grez.mean_delay_matrix world) (Cost.zone_tables world)
  && same "C^I matrix" costs (Cost.initial_matrix world)
  && List.for_all
       (fun dynamic ->
         same
           (if dynamic then "dynamic GreZ" else "GreZ")
           (outcome (fun () -> Oracle.Grez.assign ~rule ~dynamic ?alive world))
           (outcome (fun () -> Grez.assign ~rule ~dynamic ?alive world)))
       [ false; true ]

let check_grec case =
  let { world; alive; rule; _ } = case in
  let grez =
    match outcome (fun () -> Grez.assign ~rule ?alive world) with
    | Ok targets -> [ targets ]
    | Error _ -> []
  in
  List.for_all
    (fun targets ->
      same "GreC"
        (outcome (fun () -> Oracle.Grec.assign ~rule ?alive world ~targets))
        (outcome (fun () -> Grec.assign ~rule ?alive world ~targets)))
    (random_targets case :: grez)

let check_aggregated case =
  let { world; rule; rng; _ } = case in
  let buckets = [| 1; 2; 4; 16 |].(Rng.int rng 4) in
  let agg = Aggregate.build (Rng.split rng) ~buckets world in
  let zones = outcome (fun () -> Agg_solve.assign_zones ~rule agg) in
  same "assign_zones" (outcome (fun () -> Oracle.Agg_solve.assign_zones ~rule agg)) zones
  && List.for_all
       (fun targets ->
         same "refine_contacts"
           (outcome (fun () -> Oracle.Agg_solve.refine_contacts ~rule agg ~targets))
           (outcome (fun () -> Agg_solve.refine_contacts ~rule agg ~targets)))
       (random_targets case :: (match zones with Ok t -> [ t ] | Error _ -> []))

let prop name ?(count = 60) check =
  QCheck.Test.make ~name ~count QCheck.(int_bound 1_000_000) (fun seed ->
      check (make_case seed))

let prop_grez = prop "GreZ (static and dynamic) matches the oracle" check_grez
let prop_grec = prop "GreC matches the oracle" check_grec
let prop_aggregated = prop "assign_zones and refine_contacts match the oracle" check_aggregated

(* The zone tables fill row-parallel: at 4 domains the solvers must
   still match the oracle run at 1. *)
let prop_jobs =
  prop "jobs 4 matches the oracle at jobs 1" ~count:20 (fun case ->
      let { world; alive; rule; _ } = case in
      let targets = random_targets case in
      let solve () =
        World.invalidate world;
        ( outcome (fun () -> Grez.assign ~rule ?alive world),
          outcome (fun () -> Grec.assign ~rule ?alive world ~targets) )
      in
      let oracle () =
        World.invalidate world;
        ( outcome (fun () -> Oracle.Grez.assign ~rule ?alive world),
          outcome (fun () -> Oracle.Grec.assign ~rule ?alive world ~targets) )
      in
      same "jobs 4" (at_jobs 1 oracle) (at_jobs 4 solve))

(* The generator must reach the corners the properties are for. *)
let test_corners () =
  let partitioned = ref 0 and starved = ref 0 and single = ref 0 in
  for seed = 0 to 199 do
    let w = (make_case seed).world in
    let ss = (World.cached w).World.ss_rtt in
    let cut = ref false in
    for i = 0 to Bigarray.Array1.dim ss - 1 do
      if Bigarray.Array1.get ss i = infinity then cut := true
    done;
    if !cut then incr partitioned;
    if Array.fold_left ( +. ) 0. w.World.capacities < World.total_demand w then incr starved;
    if World.server_count w = 1 then incr single
  done;
  Alcotest.(check bool) "some cases are partitioned" true (!partitioned > 10);
  Alcotest.(check bool) "some cases are starved" true (!starved > 10);
  Alcotest.(check bool) "some cases have one server" true (!single > 10)

let tests =
  [
    ( "core/oracle",
      [
        Alcotest.test_case "generator reaches every corner" `Quick test_corners;
        QCheck_alcotest.to_alcotest prop_grez;
        QCheck_alcotest.to_alcotest prop_grec;
        QCheck_alcotest.to_alcotest prop_aggregated;
        QCheck_alcotest.to_alcotest prop_jobs;
      ] );
  ]
