(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (with the published values inline for comparison); the number of
   averaged runs comes from CAP_RUNS (default 10 here; the paper and
   the capsim CLI use 50).

   Part 2 runs Bechamel micro-benchmarks: one timed kernel per paper
   artifact (the work behind one data point of each table/figure) plus
   the main substrate kernels.

   Part 3 runs the cap/scale kernels: million-client world build plus
   aggregated two-phase solve, timed manually (each run takes seconds,
   far beyond Bechamel's sampling budget) and merged into the same
   cap-bench/1 output.

   Environment knobs:
   - CAP_RUNS=n       replicate count for part 1 (default 10)
   - CAP_JOBS=n       domain-pool size for parallel sections (default 1)
   - CAP_BENCH_ONLY=1 skip part 1; kernels only (CI smoke mode)
   - CAP_SCALE_ONLY=1 skip parts 1 and 2; scale kernels only
   - CAP_SCALE_MAX_CLIENTS=n  skip scale kernels larger than n clients
   - CAP_SCALE_EXACT=1  scale kernels solve per-client instead of
     aggregated; kernel names get an "-exact" suffix
   - CAP_BENCH_JSON=f write kernel results as cap-bench/1 JSON to f
   - CAP_BENCH_BASELINE=f  compare kernels against a committed
     cap-bench/1 file; exit 1 if any regresses beyond
     CAP_BENCH_THRESHOLD x (default 2) its baseline ns/run
     (noisy OLS fits warn instead of gating; see Bench_json.reliable)
   - CAP_OBS=1        telemetry summary for part 1 (forces CAP_JOBS=1) *)

module Rng = Cap_util.Rng
module Scenario = Cap_model.Scenario
module World = Cap_model.World
module Assignment = Cap_model.Assignment

(* Telemetry hook: CAP_OBS=1 instruments the reproduction report with
   Cap_obs and prints the span/metric summary after it (optionally
   exporting CAP_OBS_METRICS / CAP_OBS_TRACE files). Telemetry is
   switched off again before the Bechamel kernels run, so the
   micro-benchmarks always measure the disabled fast path. *)
let obs_hook =
  match Sys.getenv_opt "CAP_OBS" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let obs_report () =
  if obs_hook then begin
    print_endline "\n==============================";
    print_endline "= Cap_obs telemetry summary  =";
    print_endline "==============================";
    Cap_obs.Summary.print ();
    (match Sys.getenv_opt "CAP_OBS_METRICS" with
    | None | Some "" -> ()
    | Some file ->
        Cap_obs.Prometheus.write file;
        Printf.printf "wrote Prometheus metrics to %s\n" file);
    (match Sys.getenv_opt "CAP_OBS_TRACE" with
    | None | Some "" -> ()
    | Some file ->
        Cap_obs.Jsonl.write file;
        Printf.printf "wrote JSONL trace to %s\n" file);
    Cap_obs.Control.disable ()
  end

let report_runs () =
  match Sys.getenv_opt "CAP_RUNS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n > 0 -> n
      | Some _ | None -> 10)
  | None -> 10

let env_flag name =
  match Sys.getenv_opt name with None | Some "" | Some "0" -> false | Some _ -> true

let requested_jobs () =
  match Sys.getenv_opt "CAP_JOBS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)
  | None -> 1

let reproduction_report () =
  let runs = report_runs () in
  Printf.printf
    "Reproduction report: averaging %d runs per data point (CAP_RUNS to change; \
     the paper uses 50).\n"
    runs;
  Cap_experiments.Report.print_all ~runs ~seed:1 ~optimal_time_limit:2. ()

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)

open Bechamel
open Toolkit

(* Each kernel registers a warmup thunk alongside its Bechamel test:
   one untimed invocation before sampling starts fills the lazy world
   caches and faults in the code paths, so the timed samples never
   straddle a cold first run (the cold run was what dragged the OLS
   r-square of the longest kernels down to ~0.6 and made the 2x gate
   flap). *)
let make_tests () =
  let warmups = ref [] in
  let kernel name fn =
    warmups := (fun () -> ignore (fn ())) :: !warmups;
    Test.make ~name (Staged.stage fn)
  in
  let rng = Rng.create ~seed:99 in
  let default_world = World.generate rng Scenario.default in
  let small_world = World.generate rng (List.hd Scenario.small_configurations) in
  let big_world = World.generate rng (List.nth Scenario.table1_configurations 3) in
  let big_assignment = Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec rng big_world in
  let iap_gap = Cap_milp.Optimal.iap_instance small_world in
  let iap_lp = Cap_milp.Gap.lp_relaxation iap_gap in
  let grid = Array.init 26 (fun i -> 250. +. (10. *. float_of_int i)) in
  let bench_rng = Rng.create ~seed:123 in
  let correlated =
    { Scenario.default with Scenario.correlation = 1.0; delay_bound = 200. }
  in
  let clustered =
    let physical, virtual_world = Cap_experiments.Fig6.distribution_of_type 4 in
    { Scenario.default with Scenario.physical; virtual_world }
  in
  let sim_config =
    { Cap_sim.Dve_sim.default_config with Cap_sim.Dve_sim.duration = 60.; sample_interval = 10. }
  in
  let tests =
    [
      (* Table 1: one data point = one two-phase algorithm on one world. *)
      kernel "table1/ranz-virc-20s" (fun () ->
          Cap_core.Two_phase.run Cap_core.Two_phase.ranz_virc (Rng.split bench_rng)
            default_world);
      kernel "table1/grez-virc-20s" (fun () ->
          Cap_core.Two_phase.run Cap_core.Two_phase.grez_virc (Rng.split bench_rng)
            default_world);
      kernel "table1/grez-grec-20s" (fun () ->
          Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.split bench_rng)
            default_world);
      kernel "table1/grez-grec-30s" (fun () ->
          Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.split bench_rng)
            big_world);
      (* Table 1, optimal column: branch-and-bound on the small config. *)
      kernel "table1/optimal-iap-bb-5s" (fun () ->
          let options =
            { Cap_milp.Branch_bound.default_options with time_limit = 1.; max_nodes = 200_000 }
          in
          Cap_milp.Branch_bound.solve ~options iap_gap);
      (* Fig 4: delay samples + CDF evaluation over the plotting grid. *)
      kernel "fig4/delay-cdf-30s" (fun () ->
          let cdf =
            Cap_util.Stats.Cdf.of_samples (Assignment.delay_samples big_assignment big_world)
          in
          Array.map (Cap_util.Stats.Cdf.eval cdf) grid);
      (* Fig 5: one data point = a correlated world + the best algorithm. *)
      kernel "fig5/correlated-point" (fun () ->
          let world = World.generate (Rng.split bench_rng) correlated in
          Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.split bench_rng) world);
      (* Fig 6: one data point = a clustered world + the best algorithm. *)
      kernel "fig6/clustered-point" (fun () ->
          let world = World.generate (Rng.split bench_rng) clustered in
          Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.split bench_rng) world);
      (* Table 3: churn perturbation + assignment adaptation. *)
      kernel "table3/churn-adapt" (fun () ->
          let outcome =
            Cap_model.Churn.apply (Rng.split bench_rng) Cap_model.Churn.paper_spec
              default_world
          in
          let initial =
            Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.split bench_rng)
              default_world
          in
          Cap_model.Churn.adapt outcome ~old:initial);
      (* Table 4: perturbing the delay model with estimation error. *)
      kernel "table4/estimation-error-e2" (fun () ->
          World.with_estimation_error (Rng.split bench_rng) ~factor:2. default_world);
      (* Substrates. *)
      kernel "substrate/brite-topology-500" (fun () ->
          Cap_topology.Hierarchical.generate (Rng.split bench_rng)
            Cap_topology.Hierarchical.default_params);
      kernel "substrate/world-gen-default" (fun () ->
          World.generate (Rng.split bench_rng) Scenario.default);
      kernel "substrate/simplex-iap-lp-5s" (fun () -> Cap_milp.Simplex.solve iap_lp);
      kernel "substrate/transit-stub-topology-500" (fun () ->
          Cap_topology.Transit_stub.generate (Rng.split bench_rng)
            Cap_topology.Transit_stub.default_params);
      (* Extensions. *)
      kernel "extension/vivaldi-embed-500" (fun () ->
          Cap_topology.Vivaldi.estimate (Rng.split bench_rng) default_world.World.delay);
      kernel "extension/incremental-refresh" (fun () ->
          let outcome =
            Cap_model.Churn.apply (Rng.split bench_rng) Cap_model.Churn.paper_spec
              default_world
          in
          let initial =
            Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.split bench_rng)
              default_world
          in
          let adapted = Cap_model.Churn.adapt outcome ~old:initial in
          Cap_core.Incremental.refresh outcome.Cap_model.Churn.world ~previous:adapted);
      kernel "extension/lp-rounding-iap-20s" (fun () ->
          Cap_milp.Lp_rounding.iap_targets default_world);
      (* Online service: one client event against a warm daemon engine,
         periodic background re-optimization amortized in. *)
      kernel "service/placement-event"
        (let engine =
           let assignment =
             Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.split bench_rng)
               default_world
           in
           Cap_service.Engine.create ~world:default_world ~assignment
             Cap_service.Engine.default_config
         in
         let zones = World.zone_count default_world in
         let zone = ref 0 in
         fun () ->
           zone := (!zone + 1) mod zones;
           Cap_service.Engine.handle engine
             (Cap_service.Proto.Move { id = 0; zone = !zone }));
      (* WAL append: the durability cost on the event hot path — one
         length+CRC framed write(2), fsync batched at the default 32. *)
      kernel "service/wal-append"
        (let path = Filename.temp_file "cap_bench_wal" ".wal" in
         let writer = Cap_service.Wal.create_writer ~path () in
         at_exit (fun () ->
             Cap_service.Wal.close_writer writer;
             try Sys.remove path with Sys_error _ -> ());
         let payload = "join 123456 654321 42" in
         fun () -> Cap_service.Wal.append writer payload);
      (* WAL append on the segmented layout: the same hot path plus the
         amortized cost of segment rotation (8 KiB segments) and the
         periodic snapshot-anchored GC that keeps the chain short. *)
      kernel "service/wal-rotate"
        (let base = Filename.temp_file "cap_bench_walrot" ".wal" in
         Sys.remove base;
         let writer =
           Cap_service.Wal.create_writer ~segment_bytes:8192 ~path:base ()
         in
         at_exit (fun () ->
             Cap_service.Wal.close_writer writer;
             let dir = Filename.dirname base and stem = Filename.basename base in
             Array.iter
               (fun name ->
                 if
                   String.length name >= String.length stem
                   && String.sub name 0 (String.length stem) = stem
                 then
                   try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
               (Sys.readdir dir));
         let payload = "join 123456 654321 42" in
         fun () ->
           Cap_service.Wal.append writer payload;
           let written = Cap_service.Wal.records_written writer in
           if written mod 1024 = 0 then
             ignore (Cap_service.Wal.gc writer ~covered:written : int));
      (* Reactor front-end overhead: one request line through the
         simulated fabric — wait, read, frame, deadline bookkeeping,
         response enqueue and flush — with a trivial handler, so the
         engine's cost (service/placement-event) is excluded. *)
      kernel "service/conn-event"
        (let module Net = Cap_service.Net in
         let sim = Net.Sim.create () in
         let peer = Net.Sim.add_peer sim ~name:"bench" [] in
         let reactor = Net.Reactor.create (Net.Sim.backend sim) in
         let on_line r ~conn _line =
           Net.Reactor.send r conn "ok 0 0";
           `Continue
         in
         let poll () =
           ignore
             (Net.Reactor.poll_once reactor ~on_line
               : [ `Progress | `Stopped | `Stalled ])
         in
         poll () (* accept the benchmark connection *);
         fun () ->
           Net.Sim.inject sim peer "t 1.5\n";
           poll ());
      kernel "substrate/dve-sim-60s" (fun () ->
          Cap_sim.Dve_sim.run (Rng.split bench_rng) sim_config ~world:default_world
            ~algorithm:Cap_core.Two_phase.grez_grec);
    ]
  in
  (tests, List.rev !warmups)

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 1.) ~kde:None ~stabilize:false ()
  in
  let tests, warmups = make_tests () in
  List.iter (fun warm -> warm ()) warmups;
  let tests = Test.make_grouped ~name:"cap" tests in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  (raw, Analyze.merge ols instances results)

(* Flatten the monotonic-clock OLS table into baseline entries: one
   (kernel name, ns/run) per test, sorted by name for stable files. *)
let kernel_entries raw results =
  let clock = Measure.label Instance.monotonic_clock in
  match Hashtbl.find_opt results clock with
  | None -> []
  | Some table ->
      Hashtbl.fold
        (fun name ols acc ->
          let ns_per_run =
            match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
          in
          let samples =
            match Hashtbl.find_opt raw name with
            | Some (b : Benchmark.t) -> b.Benchmark.stats.Benchmark.samples
            | None -> 0
          in
          { Bench_json.name; ns_per_run; r_square = Analyze.OLS.r_square ols; samples }
          :: acc)
        table []
      |> List.sort (fun a b -> compare a.Bench_json.name b.Bench_json.name)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> String.trim line
    | _ -> "unknown"
  with _ -> "unknown"

let today () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let print_benchmarks () =
  print_endline "\n==============================";
  print_endline "= Bechamel micro-benchmarks  =";
  print_endline "==============================";
  List.iter
    (fun instance -> Bechamel_notty.Unit.add instance (Measure.unit instance))
    Instance.[ monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  let raw, results = benchmark () in
  let image =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results
  in
  Notty_unix.output_image (Notty_unix.eol image);
  kernel_entries raw results

(* ------------------------------------------------------------------ *)
(* cap/scale kernels: million-client world build + aggregated solve.

   One run takes seconds — far past Bechamel's sampling budget — so
   each kernel is timed with a single manual wall-clock run and
   recorded with [r_square] omitted and [samples] = 1; the regression
   gate treats manual timings as reliable. The scenario is capbench's
   scale family (Capbench.Common.scale_scenario) at 500 servers and
   1000 zones: the paper's shape at data-center scale, per-client
   traffic capped at 50 visible peers, and total capacity provisioned
   at 1.6 Mbps per client so the instance stays feasible. Neither
   solver materializes the client x server delay matrix; the
   aggregated one runs the 1M kernel in O(clients + zones x servers)
   memory. *)

let scale_max_clients () =
  match Sys.getenv_opt "CAP_SCALE_MAX_CLIENTS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 0 -> n
      | Some _ | None -> max_int)
  | None -> max_int

let scale_benchmarks () =
  let variants =
    [
      ("scale/10k-clients", 10_000);
      ("scale/100k-clients", 100_000);
      ("scale/1m-clients", 1_000_000);
    ]
  in
  let cap = scale_max_clients () in
  (* CAP_SCALE_EXACT=1 solves the same worlds with the per-client
     GreZ-GreC instead — the comparison column of EXPERIMENTS.md. It
     reads client rows through the node x server tier, so it never
     builds the client x server matrices either. The "-exact" suffix
     keeps these out of the committed baseline's kernel names. *)
  let exact = env_flag "CAP_SCALE_EXACT" in
  print_endline "\n==============================";
  print_endline "= Scale kernels (wall clock) =";
  print_endline "==============================";
  List.filter_map
    (fun (name, clients) ->
      let name = if exact then name ^ "-exact" else name in
      if clients > cap then begin
        Printf.printf "cap/%s: skipped (CAP_SCALE_MAX_CLIENTS=%d)\n%!" name cap;
        None
      end
      else begin
        let scenario = Capbench.Common.scale_scenario ~servers:500 ~zones:1000 ~clients in
        let t0 = Unix.gettimeofday () in
        let rng = Rng.create ~seed:42 in
        let world = World.generate rng scenario in
        let assignment =
          if exact then
            Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.split rng) world
          else Cap_core.Agg_solve.solve (Rng.split rng) world
        in
        let seconds = Unix.gettimeofday () -. t0 in
        Printf.printf "cap/%s: %.2f s (utilization %.3f, valid %b, max RSS %d KiB)\n%!"
          name seconds
          (Assignment.utilization assignment world)
          (Assignment.is_valid assignment world)
          (Capbench.Common.max_rss_kib ());
        Some
          {
            Bench_json.name = "cap/" ^ name;
            ns_per_run = seconds *. 1e9;
            r_square = None;
            samples = 1;
          }
      end)
    variants

let bench_threshold () =
  match Sys.getenv_opt "CAP_BENCH_THRESHOLD" with
  | Some v -> (
      match float_of_string_opt (String.trim v) with
      | Some t when t > 1. -> t
      | Some _ | None -> 2.)
  | None -> 2.

let check_baseline entries =
  match Sys.getenv_opt "CAP_BENCH_BASELINE" with
  | None | Some "" -> true
  | Some path ->
      let baseline = Bench_json.read_baseline path in
      let threshold = bench_threshold () in
      let slow, noisy = Bench_json.regressions ~baseline ~threshold entries in
      List.iter
        (fun (name, old, current) ->
          Printf.eprintf
            "warning: %s exceeded %gx (%.0f -> %.0f ns/run) but one side's fit is too \
             noisy to gate on\n"
            name threshold old current)
        noisy;
      (match slow with
      | [] ->
          Printf.printf "baseline check: no kernel regressed beyond %gx vs %s\n" threshold
            path
      | _ ->
          List.iter
            (fun (name, old, current) ->
              Printf.eprintf "REGRESSION %s: %.0f ns/run -> %.0f ns/run (> %gx)\n" name old
                current threshold)
            slow);
      slow = []

let () =
  let jobs = requested_jobs () in
  let jobs =
    if obs_hook && jobs > 1 then begin
      prerr_endline "warning: CAP_OBS telemetry is single-domain; forcing CAP_JOBS=1";
      1
    end
    else jobs
  in
  ignore (Cap_par.Pool.ensure ~jobs);
  let scale_only = env_flag "CAP_SCALE_ONLY" in
  if (not (env_flag "CAP_BENCH_ONLY")) && not scale_only then begin
    if obs_hook then Cap_obs.Control.enable ();
    reproduction_report ();
    obs_report ()
  end;
  let entries = if scale_only then [] else print_benchmarks () in
  let entries =
    List.sort
      (fun a b -> compare a.Bench_json.name b.Bench_json.name)
      (entries @ scale_benchmarks ())
  in
  (match Sys.getenv_opt "CAP_BENCH_JSON" with
  | None | Some "" -> ()
  | Some path ->
      Bench_json.write ~path ~date:(today ()) ~git_rev:(git_rev ()) ~jobs
        ~runs:(report_runs ()) entries;
      Printf.printf "wrote benchmark JSON to %s\n" path);
  if not (check_baseline entries) then exit 1
