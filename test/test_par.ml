(* Cap_par: pool semantics, and the PR's headline property — every
   parallel section produces bitwise-identical results at any pool
   size (assignments, solver reports, simulation traces, chaos
   reports). *)

module Rng = Cap_util.Rng
module Pool = Cap_par.Pool
module World = Cap_model.World
module Scenario = Cap_model.Scenario
module Fault = Cap_faults.Fault

let case name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Run [f] with the process-wide default pool at [jobs], restoring the
   serial default afterwards so test order never matters. *)
let at_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)

let test_covers_every_index () =
  with_pool 4 @@ fun pool ->
  let hits = Array.make 1000 0 in
  Pool.parallel_for pool ~n:1000 (fun i -> hits.(i) <- hits.(i) + 1);
  check_bool "each index exactly once" true (Array.for_all (fun h -> h = 1) hits)

let test_edge_counts () =
  with_pool 2 @@ fun pool ->
  Pool.parallel_for pool ~n:0 (fun _ -> failwith "must not run");
  Alcotest.check_raises "negative n" (Invalid_argument "Pool.parallel_for: negative count")
    (fun () -> Pool.parallel_for pool ~n:(-1) (fun _ -> ()))

let test_exception_propagates () =
  with_pool 4 @@ fun pool ->
  Alcotest.check_raises "body failure re-raised" (Failure "boom") (fun () ->
      Pool.parallel_for pool ~n:100 (fun i -> if i = 17 then failwith "boom"));
  (* the pool survives a failed batch *)
  let hits = Array.make 50 0 in
  Pool.parallel_for pool ~n:50 (fun i -> hits.(i) <- 1);
  check_bool "pool usable after failure" true (Array.for_all (fun h -> h = 1) hits)

let test_nested_runs_inline () =
  check_bool "not inside outside a task" false (Pool.inside ());
  with_pool 3 @@ fun pool ->
  let grid = Array.make_matrix 4 8 0 in
  (* recorded per task and checked afterwards: Alcotest's formatter is
     not safe to drive from several domains at once *)
  let inside = Array.make 4 false in
  Pool.parallel_for pool ~n:4 (fun i ->
      inside.(i) <- Pool.inside ();
      Pool.parallel_for pool ~n:8 (fun j -> grid.(i).(j) <- grid.(i).(j) + 1));
  check_bool "inside a task" true (Array.for_all Fun.id inside);
  Array.iter
    (fun row -> check_bool "nested cells once" true (Array.for_all (fun h -> h = 1) row))
    grid

let test_parallel_map_order () =
  with_pool 3 @@ fun pool ->
  let input = Array.init 100 (fun i -> i) in
  let out = Pool.parallel_map pool (fun x -> x * x) input in
  check_bool "ordered like Array.map" true (out = Array.map (fun x -> x * x) input)

let test_map_seeds_matches_serial_split () =
  let draw pool =
    Pool.map_seeds pool ~rng:(Rng.create ~seed:42) ~runs:8 (fun _ rng -> Rng.bits64 rng)
  in
  let serial = with_pool 1 draw in
  let parallel = with_pool 4 draw in
  let by_hand =
    let master = Rng.create ~seed:42 in
    Array.map Rng.bits64 (Rng.split_n master 8)
  in
  check_bool "serial pool = hand split" true (serial = by_hand);
  check_bool "parallel pool = hand split" true (parallel = by_hand)

let test_split_n_matches_split () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let streams = Rng.split_n a 5 in
  let manual = Array.init 5 (fun _ -> Rng.split b) in
  for i = 0 to 4 do
    Alcotest.(check int64)
      (Printf.sprintf "stream %d" i)
      (Rng.bits64 manual.(i)) (Rng.bits64 streams.(i))
  done;
  (* the master advances identically *)
  Alcotest.(check int64) "master state" (Rng.bits64 b) (Rng.bits64 a)

let test_with_local_nested_is_serial () =
  with_pool 2 @@ fun pool ->
  let sizes = Array.make 2 0 in
  Pool.parallel_for pool ~n:2 (fun i ->
      Pool.with_local ~domains:4 (fun local -> sizes.(i) <- Pool.domains local));
  Array.iter (check_int "nested local pool is serial" 1) sizes;
  Pool.with_local ~domains:3 (fun local ->
      check_int "top-level local pool full size" 3 (Pool.domains local))

let test_default_pool_resize () =
  at_jobs 3 @@ fun () ->
  check_int "default_jobs" 3 (Pool.default_jobs ());
  check_int "default pool size" 3 (Pool.domains (Pool.default ()));
  Pool.set_default_jobs 1;
  check_int "resized down" 1 (Pool.domains (Pool.default ()))

(* ------------------------------------------------------------------ *)
(* Serial-vs-parallel bitwise identity                                 *)

let small_scenario = List.hd Scenario.small_configurations
let seeds = [ 1; 2; 3 ]

(* World generation and every matrix fill below happen under the jobs
   setting in force, so regenerating per setting exercises the
   parallel cache fills end to end. *)
let world_at ~seed () = World.generate (Rng.create ~seed) small_scenario

let test_matrices_identical () =
  List.iter
    (fun seed ->
      let compute () =
        let w = world_at ~seed () in
        (* Grez.assign exercises the mean-delay tie-break matrix too. *)
        let targets = Cap_core.Grez.assign w in
        (Cap_core.Cost.initial_matrix w, targets, Cap_core.Cost.refined_matrix w ~targets)
      in
      let serial = at_jobs 1 compute in
      let parallel = at_jobs 4 compute in
      check_bool
        (Printf.sprintf "matrices and assignment identical (seed %d)" seed)
        true
        (compare serial parallel = 0))
    seeds

let genetic_params =
  { Cap_core.Genetic.default_params with population = 10; generations = 15 }

let test_solvers_identical () =
  List.iter
    (fun seed ->
      let solve jobs domains =
        at_jobs jobs @@ fun () ->
        let w = world_at ~seed () in
        let targets = Cap_core.Grez.assign w in
        let annealed =
          Cap_core.Annealing.improve (Rng.create ~seed) ~restarts:3 ~domains w ~targets
        in
        let evolved =
          Cap_core.Genetic.improve (Rng.create ~seed) ~params:genetic_params ~domains w
            ~targets
        in
        let searched =
          Cap_core.Local_search.improve ~restarts:3 ~rng:(Rng.create ~seed) ~domains w
            ~targets
        in
        (annealed, evolved, searched)
      in
      let serial = solve 1 1 in
      let parallel = solve 4 4 in
      check_bool
        (Printf.sprintf "solver reports identical (seed %d)" seed)
        true
        (compare serial parallel = 0))
    seeds

let test_single_restart_consumes_caller_rng () =
  (* restarts = 1 must be the historical path: same draws as a direct
     single chain, no splitting. *)
  let w = world_at ~seed:1 () in
  let targets = Cap_core.Grez.assign w in
  let direct = Cap_core.Annealing.improve (Rng.create ~seed:5) w ~targets in
  let explicit = Cap_core.Annealing.improve (Rng.create ~seed:5) ~restarts:1 ~domains:4 w ~targets in
  check_bool "restarts:1 = historical chain" true (compare direct explicit = 0)

let test_restart_validation () =
  let w = world_at ~seed:1 () in
  let targets = Cap_core.Grez.assign w in
  Alcotest.check_raises "annealing restarts < 1"
    (Invalid_argument "Annealing: restarts must be positive") (fun () ->
      ignore (Cap_core.Annealing.improve (Rng.create ~seed:1) ~restarts:0 w ~targets));
  Alcotest.check_raises "local search restarts need rng"
    (Invalid_argument "Local_search: restarts > 1 requires an rng") (fun () ->
      ignore (Cap_core.Local_search.improve ~restarts:2 w ~targets))

let test_multi_start_no_worse () =
  List.iter
    (fun seed ->
      let w = world_at ~seed () in
      let targets = Cap_core.Grez.assign w in
      let single = Cap_core.Local_search.improve w ~targets in
      let multi =
        Cap_core.Local_search.improve ~restarts:4 ~rng:(Rng.create ~seed) w ~targets
      in
      check_bool
        (Printf.sprintf "multi-start <= single (seed %d)" seed)
        true
        (multi.Cap_core.Local_search.cost_after <= single.Cap_core.Local_search.cost_after);
      check_int "cost_before is the seed's" single.Cap_core.Local_search.cost_before
        multi.Cap_core.Local_search.cost_before)
    seeds

let sim_config faults =
  {
    Cap_sim.Dve_sim.default_config with
    Cap_sim.Dve_sim.duration = 60.;
    sample_interval = 10.;
    faults;
  }

let test_traces_and_chaos_identical () =
  List.iter
    (fun seed ->
      let run jobs =
        at_jobs jobs @@ fun () ->
        let w = world_at ~seed () in
        let faults =
          Fault.validate ~servers:(World.server_count w)
            [
              { Fault.at = 10.; event = Fault.Crash 0 };
              { Fault.at = 30.; event = Fault.Recover 0 };
            ]
        in
        let outcome =
          Cap_sim.Dve_sim.run (Rng.create ~seed) (sim_config faults) ~world:w
            ~algorithm:Cap_core.Two_phase.grez_grec
        in
        (Cap_sim.Trace.to_csv outcome.Cap_sim.Dve_sim.trace,
         outcome.Cap_sim.Dve_sim.reassignments,
         outcome.Cap_sim.Dve_sim.faults,
         Cap_sim.Chaos.analyze outcome)
      in
      let csv1, re1, f1, report1 = run 1 in
      let csv4, re4, f4, report4 = run 4 in
      Alcotest.(check string) (Printf.sprintf "trace CSV identical (seed %d)" seed) csv1 csv4;
      check_int "reassignments identical" re1 re4;
      check_bool "fault report identical" true (compare f1 f4 = 0);
      check_bool "chaos report identical" true (compare report1 report4 = 0))
    seeds

let test_replicate_identical () =
  let body rng =
    let w = World.generate rng small_scenario in
    let targets = Cap_core.Grez.assign w in
    (Rng.bits64 rng, targets)
  in
  let serial = Cap_experiments.Common.replicate ~jobs:1 ~runs:4 ~seed:9 body in
  let parallel = Cap_experiments.Common.replicate ~jobs:4 ~runs:4 ~seed:9 body in
  Pool.set_default_jobs 1;
  check_bool "replicate runs identical at any jobs" true (compare serial parallel = 0)

let tests =
  [
    ( "par/pool",
      [
        case "covers every index" test_covers_every_index;
        case "edge counts" test_edge_counts;
        case "exception propagates" test_exception_propagates;
        case "nested runs inline" test_nested_runs_inline;
        case "parallel_map order" test_parallel_map_order;
        case "map_seeds = serial split" test_map_seeds_matches_serial_split;
        case "split_n = repeated split" test_split_n_matches_split;
        case "with_local nests serial" test_with_local_nested_is_serial;
        case "default pool resize" test_default_pool_resize;
      ] );
    ( "par/identity",
      [
        case "matrices and grez" test_matrices_identical;
        case "solver reports" test_solvers_identical;
        case "restarts:1 is historical" test_single_restart_consumes_caller_rng;
        case "restart validation" test_restart_validation;
        case "multi-start no worse" test_multi_start_no_worse;
        case "traces and chaos reports" test_traces_and_chaos_identical;
        case "replicate" test_replicate_identical;
      ] );
  ]
