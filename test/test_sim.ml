module Sim = Cap_sim.Dve_sim
module Policy = Cap_sim.Policy
module Trace = Cap_sim.Trace
module World = Cap_model.World
module Rng = Cap_util.Rng

let case name f = Alcotest.test_case name `Quick f

let config ?(policy = Policy.Never) ?(duration = 100.) ?flash_crowd
    ?(movement = Sim.Teleport) ?diurnal () =
  {
    Sim.duration;
    arrival_rate = 1.;
    mean_session = 80.;
    mean_move_interval = 40.;
    sample_interval = 10.;
    policy;
    flash_crowd;
    movement;
    diurnal;
    faults = [];
    failover_moves = 16;
    retry_interval = 10.;
  }

let run ?policy ?duration ?flash_crowd ?(seed = 1) () =
  let w = Fixtures.generated ~seed () in
  Sim.run (Rng.create ~seed) (config ?policy ?duration ?flash_crowd ())
    ~world:w ~algorithm:Cap_core.Two_phase.grez_grec

let test_policy_module () =
  Alcotest.(check string) "never" "never" (Policy.describe Policy.Never);
  Alcotest.(check string) "periodic" "periodic(30s)" (Policy.describe (Policy.Periodic 30.));
  Alcotest.(check string) "threshold" "threshold(pQoS<0.9)"
    (Policy.describe (Policy.On_threshold { pqos = 0.9; min_interval = 0. }));
  Alcotest.(check string) "threshold with cooldown" "threshold(pQoS<0.9, cooldown 60s)"
    (Policy.describe (Policy.On_threshold { pqos = 0.9; min_interval = 60. }));
  Alcotest.check_raises "bad period" (Invalid_argument "Policy: period must be positive")
    (fun () -> ignore (Policy.validate (Policy.Periodic 0.)));
  Alcotest.check_raises "bad threshold" (Invalid_argument "Policy: threshold outside (0, 1]")
    (fun () -> ignore (Policy.validate (Policy.On_threshold { pqos = 1.5; min_interval = 0. })));
  Alcotest.check_raises "bad cooldown" (Invalid_argument "Policy: negative cooldown")
    (fun () -> ignore (Policy.validate (Policy.On_threshold { pqos = 0.9; min_interval = -1. })))

let test_trace_module () =
  let t = Trace.create () in
  Alcotest.(check int) "empty" 0 (List.length (Trace.points t));
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Trace.mean_pqos t);
  Alcotest.(check (float 1e-9)) "min empty" 1. (Trace.min_pqos t);
  Alcotest.(check bool) "final empty" true (Trace.final t = None);
  let point time pqos =
    {
      Trace.time;
      clients = 10;
      pqos;
      utilization = 0.5;
      reassignments = 0;
      unassigned = 0;
      down_servers = 0;
      components = 1;
    }
  in
  Trace.record t (point 1. 0.8);
  Trace.record t (point 2. 0.6);
  Alcotest.(check int) "length" 2 (List.length (Trace.points t));
  Alcotest.(check (float 1e-9)) "mean" 0.7 (Trace.mean_pqos t);
  Alcotest.(check (float 1e-9)) "min" 0.6 (Trace.min_pqos t);
  (match Trace.final t with
  | Some p -> Alcotest.(check (float 1e-9)) "final is last" 2. p.Trace.time
  | None -> Alcotest.fail "expected final");
  let times = List.map (fun p -> p.Trace.time) (Trace.points t) in
  Alcotest.(check (list (float 1e-9))) "chronological" [ 1.; 2. ] times;
  Alcotest.(check bool) "csv has header and rows" true
    (String.length (Trace.to_csv t) > 20)

let test_samples_on_grid () =
  let outcome = run ~duration:100. () in
  (* samples at 10, 20, ..., 100 *)
  Alcotest.(check int) "ten samples" 10 (List.length (Trace.points outcome.Sim.trace));
  List.iteri
    (fun i p ->
      Alcotest.(check (float 1e-6)) "sample time" (float_of_int (i + 1) *. 10.) p.Trace.time)
    (Trace.points outcome.Sim.trace)

let test_policy_never () =
  let outcome = run ~policy:Policy.Never () in
  Alcotest.(check int) "no reassignments" 0 outcome.Sim.reassignments

let test_policy_periodic () =
  let outcome = run ~policy:(Policy.Periodic 25.) ~duration:100. () in
  (* reassignments at 25, 50, 75, 100 *)
  Alcotest.(check int) "four reassignments" 4 outcome.Sim.reassignments

let test_policy_threshold_reacts () =
  let never = run ~policy:Policy.Never ~duration:200. () in
  let threshold =
    run ~policy:(Policy.On_threshold { pqos = 0.99; min_interval = 0. }) ~duration:200. ()
  in
  (* an aggressive threshold must trigger at least once where the
     static assignment drifts *)
  Alcotest.(check bool) "triggered" true (threshold.Sim.reassignments > 0);
  Alcotest.(check bool) "mean pQoS at least as good" true
    (Trace.mean_pqos threshold.Sim.trace >= Trace.mean_pqos never.Sim.trace -. 0.02)

let test_threshold_cooldown_limits () =
  (* an aggressive threshold with no cooldown fires on (nearly) every
     sample; a cooldown as long as the run allows at most one firing *)
  let eager =
    run ~policy:(Policy.On_threshold { pqos = 0.99; min_interval = 0. }) ~duration:200. ()
  in
  let cooled =
    run ~policy:(Policy.On_threshold { pqos = 0.99; min_interval = 1000. }) ~duration:200. ()
  in
  Alcotest.(check bool) "eager fires more than once" true (eager.Sim.reassignments > 1);
  Alcotest.(check bool) "cooldown caps at one" true (cooled.Sim.reassignments <= 1)

let test_final_sample_off_grid () =
  (* 95 s duration with a 10 s grid: samples at 10..90 plus a final
     flush at exactly t = 95 *)
  let outcome = run ~duration:95. () in
  let times = List.map (fun p -> p.Trace.time) (Trace.points outcome.Sim.trace) in
  Alcotest.(check int) "ten samples" 10 (List.length times);
  match List.rev times with
  | last :: _ -> Alcotest.(check (float 1e-6)) "last at duration" 95. last
  | [] -> Alcotest.fail "expected samples"

let test_population_evolves () =
  let outcome = run ~duration:150. () in
  let populations = List.map (fun p -> p.Trace.clients) (Trace.points outcome.Sim.trace) in
  Alcotest.(check bool) "positive populations" true (List.for_all (fun c -> c >= 0) populations);
  Alcotest.(check bool) "population actually changes" true
    (List.sort_uniq compare populations |> List.length > 1)

let test_determinism () =
  let a = run ~seed:5 () and b = run ~seed:5 () in
  Alcotest.(check bool) "same trace" true
    (Trace.points a.Sim.trace = Trace.points b.Sim.trace);
  Alcotest.(check int) "same final population" (World.client_count a.Sim.final_world)
    (World.client_count b.Sim.final_world)

let test_validation () =
  let w = Fixtures.generated () in
  let bad config =
    try
      ignore (Sim.run (Rng.create ~seed:1) config ~world:w ~algorithm:Cap_core.Two_phase.grez_grec);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "duration" true (bad { (config ()) with Sim.duration = 0. });
  Alcotest.(check bool) "arrival" true (bad { (config ()) with Sim.arrival_rate = -1. });
  Alcotest.(check bool) "session" true (bad { (config ()) with Sim.mean_session = 0. });
  Alcotest.(check bool) "sample" true (bad { (config ()) with Sim.sample_interval = 0. })

let test_flash_crowd_concentrates () =
  let flash = { Sim.at = 95.; fraction = 1.0; target_zone = Some 0 } in
  let outcome = run ~flash_crowd:flash ~duration:100. () in
  let population = World.zone_population outcome.Sim.final_world in
  let total = Array.fold_left ( + ) 0 population in
  (* everyone alive at t=95 piled into zone 0; only post-flash arrivals
     and movers can be elsewhere *)
  Alcotest.(check bool) "zone 0 dominates" true
    (float_of_int population.(0) > 0.6 *. float_of_int total)

let test_diurnal_arrivals () =
  let w = Fixtures.generated () in
  (* a one-region-only day/night model with amplitude 1 and a very long
     period: region with phase 0.25 sits at its peak (factor 2) at t=0
     while all others (phase 0.75) sit at the trough (factor 0) *)
  let phases =
    Array.init w.Cap_model.World.regions (fun r -> if r = 0 then 0.25 else 0.75)
  in
  let diurnal = Cap_sim.Diurnal.make ~period:1e7 ~amplitude:1. ~phases () in
  let cfg =
    { (config ~diurnal ~duration:200. ()) with Sim.arrival_rate = 5.; mean_session = 1e6 }
  in
  let outcome =
    Sim.run (Rng.create ~seed:11) cfg ~world:w ~algorithm:Cap_core.Two_phase.grez_grec
  in
  (* count clients of the final world whose node is in region 0, among
     arrivals (initial population was placed uniformly) *)
  let initial = Cap_model.World.client_count w in
  let final = outcome.Sim.final_world in
  let arrivals = ref 0 and in_region0 = ref 0 in
  let k = Cap_model.World.client_count final in
  (* sim ids are assigned in order: the first [initial] live clients
     are a superset of survivors; with mean_session huge nobody leaves,
     and snapshot order is sim-id order, so clients beyond [initial]
     are arrivals *)
  for c = initial to k - 1 do
    incr arrivals;
    let node = final.Cap_model.World.client_nodes.(c) in
    if final.Cap_model.World.region_of_node.(node) = 0 then incr in_region0
  done;
  Alcotest.(check bool) "some arrivals happened" true (!arrivals > 50);
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d arrivals in the peak region" !in_region0 !arrivals)
    true
    (!in_region0 = !arrivals)

let test_diurnal_mismatch () =
  let w = Fixtures.generated () in
  let diurnal = Cap_sim.Diurnal.make ~phases:[| 0.1 |] () in
  Alcotest.check_raises "wrong region count"
    (Invalid_argument "Dve_sim: diurnal model does not match the world's regions") (fun () ->
      ignore
        (Sim.run (Rng.create ~seed:1) (config ~diurnal ())
           ~world:w ~algorithm:Cap_core.Two_phase.grez_grec))

let test_roaming_movement () =
  let w = Fixtures.generated () in
  let map = Cap_model.Zone_map.square_for ~zones:(World.zone_count w) in
  let outcome =
    Sim.run (Rng.create ~seed:9)
      (config ~movement:(Sim.Roam map) ~duration:150. ())
      ~world:w ~algorithm:Cap_core.Two_phase.grez_grec
  in
  Alcotest.(check bool) "runs and samples" true
    (Cap_sim.Trace.points outcome.Sim.trace <> [])

let test_roaming_map_mismatch () =
  let w = Fixtures.generated () in
  let map = Cap_model.Zone_map.grid ~rows:1 ~columns:2 in
  Alcotest.check_raises "wrong zone map"
    (Invalid_argument "Dve_sim: zone map does not match the world's zone count") (fun () ->
      ignore
        (Sim.run (Rng.create ~seed:9)
           (config ~movement:(Sim.Roam map) ())
           ~world:w ~algorithm:Cap_core.Two_phase.grez_grec))

let test_flash_crowd_validation () =
  let w = Fixtures.generated () in
  let bad flash_crowd =
    try
      ignore
        (Sim.run (Rng.create ~seed:1)
           (config ~flash_crowd ())
           ~world:w ~algorithm:Cap_core.Two_phase.grez_grec);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad fraction" true
    (bad { Sim.at = 10.; fraction = 1.5; target_zone = None });
  Alcotest.(check bool) "negative time" true
    (bad { Sim.at = -1.; fraction = 0.5; target_zone = None })

let test_final_state_consistent () =
  let outcome = run () in
  Alcotest.(check bool) "final assignment matches final world" true
    (Array.length outcome.Sim.final_assignment.Cap_model.Assignment.contact_of_client
    = World.client_count outcome.Sim.final_world)

let prop_pqos_in_range =
  QCheck.Test.make ~name:"sampled pQoS within [0,1]" ~count:8 QCheck.small_nat (fun seed ->
      let outcome = run ~seed:(seed + 1) () in
      List.for_all
        (fun p -> p.Trace.pqos >= 0. && p.Trace.pqos <= 1.)
        (Trace.points outcome.Sim.trace))

let tests =
  [
    ( "sim/dve_sim",
      [
        case "policy module" test_policy_module;
        case "trace module" test_trace_module;
        case "samples on grid" test_samples_on_grid;
        case "policy never" test_policy_never;
        case "policy periodic" test_policy_periodic;
        case "policy threshold reacts" test_policy_threshold_reacts;
        case "threshold cooldown limits reassignments" test_threshold_cooldown_limits;
        case "final sample off grid" test_final_sample_off_grid;
        case "population evolves" test_population_evolves;
        case "determinism" test_determinism;
        case "validation" test_validation;
        case "diurnal arrivals" test_diurnal_arrivals;
        case "diurnal mismatch" test_diurnal_mismatch;
        case "roaming movement" test_roaming_movement;
        case "roaming map mismatch" test_roaming_map_mismatch;
        case "flash crowd concentrates" test_flash_crowd_concentrates;
        case "flash crowd validation" test_flash_crowd_validation;
        case "final state consistent" test_final_state_consistent;
        QCheck_alcotest.to_alcotest prop_pqos_in_range;
      ] );
  ]
