module World = Cap_model.World
module Assignment = Cap_model.Assignment
module Aggregate = Cap_model.Aggregate
module Rng = Cap_util.Rng
module Samples = Common.Samples

let now_ns = Common.now_ns
let since = Common.since

type spec = {
  servers : int;
  zones : int;
  clients : int;
  aggregated : bool;
}

let exact = { servers = 100; zones = 400; clients = 50_000; aggregated = false }
let aggregated = { servers = 200; zones = 1000; clients = 200_000; aggregated = true }

let solve spec rng world =
  if spec.aggregated then Cap_core.Agg_solve.solve rng world
  else Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec rng world

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, since t0)

(* The solve again, one stage at a time: the per-layer split. The
   caches are rebuilt first so no stage inherits another's work. *)
let decompose spec rng world =
  World.invalidate world;
  let (_ : World.cache), cache_s = timed (fun () -> World.cached world) in
  if spec.aggregated then begin
    let agg, build_s = timed (fun () -> Aggregate.build rng world) in
    let targets, zones_s = timed (fun () -> Cap_core.Agg_solve.assign_zones agg) in
    let contacts, contacts_s =
      timed (fun () -> Cap_core.Agg_solve.refine_contacts agg ~targets)
    in
    ( Assignment.make ~target_of_zone:targets ~contact_of_client:contacts,
      [
        ("model.world_cache_s", cache_s);
        ("model.aggregate_build_s", build_s);
        ("core.agg_zones_s", zones_s);
        ("core.agg_contacts_s", contacts_s);
      ],
      1000. *. float_of_int (Aggregate.group_count agg) /. float_of_int (World.client_count world)
    )
  end
  else begin
    let (_ : World.dense), dense_s = timed (fun () -> World.dense world) in
    let targets, grez_s = timed (fun () -> Cap_core.Grez.assign world) in
    let contacts, grec_s = timed (fun () -> Cap_core.Grec.assign world ~targets) in
    ( Assignment.make ~target_of_zone:targets ~contact_of_client:contacts,
      [
        ("model.world_cache_s", cache_s);
        ("model.world_dense_s", dense_s);
        ("core.grez_s", grez_s);
        ("core.grec_s", grec_s);
      ],
      0. )
  end

let same a b =
  a.Assignment.target_of_zone = b.Assignment.target_of_zone
  && a.Assignment.contact_of_client = b.Assignment.contact_of_client

(* Set-up runs before the solves and again after them, so its median
   samples both ends of the run. *)
let setup_repeats = 7

let run spec ~seed ~worlds ~repeats ~trace () =
  ignore (Cap_par.Pool.ensure ~jobs:1);
  let scenario =
    Common.scale_scenario ~servers:spec.servers ~zones:spec.zones ~clients:spec.clients
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let failed = ref 0 in
  let fail i fmt =
    incr failed;
    Printf.ksprintf (fun m -> problem "world %d: %s" i m) fmt
  in
  (* The network (topology, servers, capacities) is the deployment and
     is the same on every run; the seed draws each world's clients.
     Networks of one scenario differ up to 2x in solve time, client
     draws on one network by a few percent. *)
  let network_rng = Rng.create ~seed:Common.world_seed in
  let setups = Common.Samples.create () in
  let setup () =
    let network, s = timed (fun () -> World.generate (Rng.copy network_rng) scenario) in
    Samples.push setups s;
    network
  in
  let network = setup () in
  for _ = 2 to setup_repeats / 2 do
    ignore (setup () : World.t)
  done;
  let topology = if trace then Common.topology_s scenario network_rng else 0. in
  (* The quality of the plan is measured on the network's own clients,
     which --seed does not change: pqos is then exact from run to run,
     so a solver change that costs quality shows however small. *)
  let pqos =
    let a = solve spec (Rng.create ~seed:Common.world_seed) network in
    World.invalidate network;
    if not (Assignment.is_valid a network) then
      problem "the network's own clients: invalid assignment: %s"
        (String.concat "; " (Assignment.violations a network));
    Assignment.pqos a network
  in
  let generated =
    Array.map
      (fun rng ->
        let sampler = network.World.sampler in
        let client_nodes = Array.make spec.clients 0 in
        let client_zones = Array.make spec.clients 0 in
        for c = 0 to spec.clients - 1 do
          let node = Cap_model.Distribution.sample_node sampler rng in
          client_nodes.(c) <- node;
          client_zones.(c) <- Cap_model.Distribution.sample_zone sampler rng ~node
        done;
        (World.replace_clients network ~client_nodes ~client_zones, Rng.split rng))
      (Rng.split_n (Rng.create ~seed) worlds)
  in
  Gc.full_major ();
  (* Repeats go round-robin over the worlds, so each world's solves are
     spread across the run, and a world's solve time is its fastest
     repeat. Every solve rebuilds the caches, as a one-shot planner run
     does, and drops them after so memory stays bounded. A traced run
     follows each solve with the same solve one stage at a time, and
     keeps each stage's fastest repeat too. *)
  let times = Array.make_matrix worlds repeats 0. in
  let first = Array.make worlds None in
  let traced = Array.make worlds infinity in
  let stages = Array.init worlds (fun _ -> Hashtbl.create 8) in
  let groups = ref 0. in
  for r = 0 to repeats - 1 do
    Array.iteri
      (fun i (world, solve_rng) ->
        World.invalidate world;
        let a, s = timed (fun () -> solve spec (Rng.copy solve_rng) world) in
        World.invalidate world;
        times.(i).(r) <- s;
        (match first.(i) with
        | None -> first.(i) <- Some a
        | Some a0 -> if not (same a a0) then fail i "a repeated solve gave another assignment");
        if trace then begin
          let (d, parts, g), wall = timed (fun () -> decompose spec (Rng.copy solve_rng) world) in
          World.invalidate world;
          traced.(i) <- Float.min traced.(i) wall;
          List.iter
            (fun (name, s) ->
              Hashtbl.replace stages.(i) name
                (Float.min s (Option.value ~default:infinity (Hashtbl.find_opt stages.(i) name))))
            parts;
          if r = 0 then groups := !groups +. g;
          if not (same a d) then fail i "the stage-by-stage solve differs from the one-call solve"
        end)
      generated
  done;
  for _ = 1 + (setup_repeats / 2) to setup_repeats do
    ignore (setup () : World.t)
  done;
  let per_world = Array.map (Quantile.best ~higher:false) times in
  Array.iteri
    (fun i (world, _) ->
      let a = Option.get first.(i) in
      if not (Assignment.is_valid a world) then
        fail i "invalid assignment: %s" (String.concat "; " (Assignment.violations a world)))
    generated;
  let stage_total = Hashtbl.create 8 in
  Array.iter
    (Hashtbl.iter (fun name s ->
         Hashtbl.replace stage_total name
           (s +. Option.value ~default:0. (Hashtbl.find_opt stage_total name))))
    stages;
  let untraced = Array.fold_left ( +. ) 0. per_world in
  let attributed = Hashtbl.fold (fun _ s acc -> acc +. s) stage_total 0. in
  let traced = Array.fold_left ( +. ) 0. traced in
  let mean x = x /. float_of_int worlds in
  let generate_s = Quantile.median (Samples.to_array setups) in
  {
    Catalog.attempted = worlds * repeats;
    failed = !failed;
    problems = List.rev !problems;
    end_to_end =
      [
        ("setup_s", generate_s);
        ("throughput_per_s", float_of_int (spec.clients * worlds) /. untraced);
        ("latency_p50_us", 1e6 *. Quantile.median per_world);
        ("latency_tail_us", 1e6 *. Array.fold_left Float.max 0. per_world);
        ("pqos", pqos);
        (* Every client gets a contact server: validity checks it. *)
        ("admitted_ratio", 1.);
      ];
    per_layer =
      (if not trace then []
       else
         [
           ("topology.generate_s", topology);
           ("model.world_generate_s", generate_s);
           ("model.groups_per_kclient", mean !groups);
           ("trace.overhead_pct", 100. *. (traced -. untraced) /. untraced);
           ("trace.unattributed_pct", 100. *. (untraced -. attributed) /. untraced);
         ]
         @ Hashtbl.fold (fun name s acc -> (name, mean s) :: acc) stage_total []);
    notes =
      [
        Printf.sprintf "%d client draws (seed %d) on the %s network of seed %d, %d solves each, jobs 1"
          worlds seed (Cap_model.Scenario.notation scenario) Common.world_seed repeats;
        Printf.sprintf "pqos %.6f on the network's own clients" pqos;
        Printf.sprintf "solve_s %.4f s (sum over worlds); tail = slowest world"
          untraced;
      ];
  }
