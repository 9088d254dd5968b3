(* capsim — command-line driver for the client-assignment experiments.

   Subcommands:
     report     reproduce the paper's tables and figures
     run        run one algorithm on one configuration
     optimal    run the branch-and-bound baseline on one configuration
     compare    run every algorithm on one world
     plan       find the capacity a target pQoS needs
     plots      export figure data and gnuplot scripts
     sim        run the dynamic churn simulation
     chaos      run the simulation under injected server and link faults
     resume     continue a checkpointed sim/chaos run from a snapshot
     loadgen    emit a deterministic cap-stream/1 event stream
     serve      run the online assignment daemon on a cap-stream/1 feed
     supervise  run serve under restart supervision (optionally a standby)
     torture    prove crash, disk-fault and network-fault recovery
     validate   check scenario notation / worlds / trace CSVs / snapshots / WALs

   Exit codes (unified convention):
     0  success
     1  invariant or QoS failure (e.g. chaos invariant violations)
     2  usage, parse, or validation error *)

module Rng = Cap_util.Rng
module Table = Cap_util.Table
module Scenario = Cap_model.Scenario
module Validate = Cap_model.Validate
module World = Cap_model.World
module Assignment = Cap_model.Assignment
module Dve_sim = Cap_sim.Dve_sim
module Envelope = Cap_snapshot.Envelope
module Sim_run = Cap_snapshot.Sim_run
module Service_run = Cap_snapshot.Service_run
module Engine = Cap_service.Engine
module Daemon = Cap_service.Daemon
module Loadgen = Cap_service.Loadgen
module Proto = Cap_service.Proto
module Wal = Cap_service.Wal
module Follower = Cap_service.Follower
module Supervisor = Cap_service.Supervisor
module Client = Cap_service.Client
module Disk_torture = Cap_service.Disk_torture
module Daemon_net = Cap_service.Net
module Net_torture = Cap_service.Net_torture

open Cmdliner

let exit_violation = 1
let exit_usage = 2

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info exit_violation
      ~doc:
        "on an invariant or QoS failure: the inputs were valid but the run ended in a \
         bad state (e.g. $(b,chaos) post-event invariant violations).";
    Cmd.Exit.info exit_usage
      ~doc:
        "on usage, parse, or validation errors: malformed scenario notation, bad \
         flags, malformed trace CSVs, or unreadable/corrupt/mismatched snapshot \
         files.";
  ]

let binary_version = "1.3.0"

let version_string =
  Printf.sprintf "capsim %s (snapshot format v%d)" binary_version
    Envelope.format_version

let runs_arg =
  let doc = "Number of simulation runs to average (the paper uses 50)." in
  Arg.(value & opt (some int) None & info [ "runs"; "r" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Base random seed; every run derives its own stream from it." in
  Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

let config_info =
  let doc = "DVE configuration in paper notation, e.g. 20s-80z-1000c-500cp." in
  Arg.info [ "config"; "c" ] ~docv:"CONF" ~doc

let default_config = "20s-80z-1000c-500cp"

(* The notation is kept verbatim next to the parsed scenario: snapshots
   record the recipe exactly as given. *)
let parse_config s =
  match Validate.scenario_notation s with
  | Ok scenario -> Ok (s, scenario)
  | Error issue -> Error (`Msg ("invalid scenario: " ^ Validate.describe issue))

let config_arg =
  let config = Arg.conv (parse_config, fun ppf (s, _) -> Format.pp_print_string ppf s) in
  Arg.(value & opt config (Result.get_ok (parse_config default_config)) & config_info)

let scenario_arg = Term.(const snd $ config_arg)

let time_limit_arg =
  let doc = "Wall-clock seconds budget per branch-and-bound phase." in
  Arg.(value & opt float 5. & info [ "time-limit" ] ~docv:"SECONDS" ~doc)

let algorithm_conv =
  let parse name =
    match Cap_core.Two_phase.find name with
    | Some algorithm -> Ok algorithm
    | None -> Error (`Msg ("unknown algorithm: " ^ name))
  in
  Arg.conv
    (parse, fun ppf (a : Cap_core.Two_phase.t) -> Format.pp_print_string ppf a.name)

let algorithm_arg doc =
  Arg.(
    value
    & opt algorithm_conv Cap_core.Two_phase.grez_grec
    & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)

let ( let* ) = Result.bind

(* A usage error prints its one line and exits 2. *)
let or_usage = function
  | Ok code -> code
  | Error m ->
      prerr_endline m;
      exit_usage

(* [f] over every element, or the error of the last failing one *)
let traverse f xs =
  List.fold_right
    (fun x acc ->
      match acc, f x with
      | Error e, _ | _, Error e -> Error e
      | Ok tail, Ok y -> Ok (y :: tail))
    xs (Ok [])

(* --aggregate / --buckets: solve over weighted client aggregates
   instead of individual clients (run and sim subcommands). *)

let aggregate_arg =
  let doc =
    "Solve over weighted client aggregates (zone $(i,x) coordinate cluster) \
     instead of individual clients: same two-phase structure, thousands of \
     groups instead of millions of clients, never materializes the client x \
     server delay matrix. Only meaningful with the GreZ-GreC algorithm."
  in
  Arg.(value & flag & info [ "aggregate" ] ~doc)

let buckets_arg =
  let doc = "Coordinate clusters per zone used by $(b,--aggregate)." in
  Arg.(
    value
    & opt int Cap_model.Aggregate.default_buckets
    & info [ "buckets" ] ~docv:"N" ~doc)

(* The bucket count to aggregate with ([None] = per-client), or the
   flag conflict. *)
let aggregation ~aggregate ~buckets (algorithm : Cap_core.Two_phase.t) =
  if not aggregate then Ok None
  else if buckets < 1 then Error "capsim: --buckets must be at least 1"
  else if algorithm.name <> Cap_core.Two_phase.grez_grec.name then
    Error
      (Printf.sprintf "capsim: --aggregate only supports the GreZ-GreC algorithm (got %s)"
         algorithm.name)
  else Ok (Some buckets)

(* ------------------------------------------------------------------ *)
(* telemetry (Cap_obs), shared by every subcommand                     *)

type obs_options = {
  metrics_file : string option;
  trace_file : string option;
  obs_summary : bool;
  jobs : int;
}

let obs_term =
  let metrics_arg =
    let doc = "Write Prometheus text-format metrics to $(docv) on exit." in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE.prom" ~doc)
  in
  let trace_arg =
    let doc = "Write the span/event stream as JSON Lines to $(docv) on exit." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.jsonl" ~doc)
  in
  let summary_arg =
    let doc = "Print a per-span timing and metrics summary after the command." in
    Arg.(value & flag & info [ "obs-summary" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for parallel sections (delay-matrix fills, replicate \
       runs). Results are bitwise-identical at any value; 1 (the default) \
       disables parallelism."
    in
    let env = Cmd.Env.info "CAP_JOBS" ~doc:"Default for $(b,--jobs)." in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc ~env)
  in
  Term.(
    const (fun metrics_file trace_file obs_summary jobs ->
        { metrics_file; trace_file; obs_summary; jobs })
    $ metrics_arg $ trace_arg $ summary_arg $ jobs_arg)

(* Enable telemetry iff any sink was requested, run the command, then
   drain the sinks. Telemetry stays fully disabled (the no-op fast
   path) when no flag is given. *)
let with_obs obs body =
  if obs.jobs < 1 then begin
    prerr_endline "capsim: --jobs must be at least 1";
    exit exit_usage
  end;
  let telemetry = obs.metrics_file <> None || obs.trace_file <> None || obs.obs_summary in
  (* Span tracing keeps one global stack; running it from several
     domains at once would interleave frames. Metrics alone would only
     risk benignly dropped increments, but the sinks are requested
     together, so be conservative and run serial whenever telemetry is
     on. *)
  let jobs =
    if telemetry && obs.jobs > 1 then begin
      prerr_endline "warning: telemetry sinks are single-domain; forcing --jobs 1";
      1
    end
    else obs.jobs
  in
  Cap_par.Pool.set_default_jobs jobs;
  if telemetry then Cap_obs.Control.enable ();
  let code = body () in
  (match obs.metrics_file with
  | None -> ()
  | Some file ->
      Cap_obs.Prometheus.write file;
      Printf.eprintf "wrote Prometheus metrics to %s\n" file);
  (match obs.trace_file with
  | None -> ()
  | Some file ->
      Cap_obs.Jsonl.write file;
      Printf.eprintf "wrote JSONL trace to %s\n" file);
  if obs.obs_summary then Cap_obs.Summary.print ();
  code

(* ------------------------------------------------------------------ *)
(* report                                                              *)

let report_cmd =
  let sections_arg =
    let doc =
      "Sections to reproduce: table1, fig4, fig5, fig6, table3, table4, timing, \
       ablation, backbone, dynamics. Default: all."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"SECTION" ~doc)
  in
  let run obs runs seed time_limit sections =
    with_obs obs @@ fun () ->
    let resolve name =
      match Cap_experiments.Report.section_of_string name with
      | Some s -> Ok s
      | None -> Error ("unknown section: " ^ name)
    in
    let sections =
      match sections with
      | [] -> Ok Cap_experiments.Report.all_sections
      | names -> traverse resolve names
    in
    or_usage
    @@
    let* sections = sections in
    List.iter
      (Cap_experiments.Report.print_section ?runs ~seed ~optimal_time_limit:time_limit)
      sections;
    Ok 0
  in
  let term =
    Term.(const run $ obs_term $ runs_arg $ seed_arg $ time_limit_arg $ sections_arg)
  in
  let info =
    Cmd.info "report" ~exits
      ~doc:"Reproduce the paper's tables and figures (with paper values inline)."
  in
  Cmd.v info term

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let error_arg =
    let doc = "Delay estimation error factor e >= 1 (1 = perfect input)." in
    Arg.(value & opt float 1. & info [ "error-factor"; "e" ] ~docv:"E" ~doc)
  in
  let delays_csv_arg =
    let doc = "Write every client's delay to this CSV file (for CDF plots)." in
    Arg.(value & opt (some string) None & info [ "delays-csv" ] ~docv:"FILE" ~doc)
  in
  let run obs scenario algorithm aggregate buckets seed error_factor delays_csv =
    with_obs obs @@ fun () ->
    or_usage
    @@
    let* buckets = aggregation ~aggregate ~buckets algorithm in
    let algorithm =
      match buckets with
      | None -> algorithm
      | Some buckets -> Cap_core.Agg_solve.two_phase ~buckets ()
    in
    let rng = Rng.create ~seed in
    let world = World.generate rng scenario in
    let world =
      if error_factor > 1. then
        World.with_estimation_error (Rng.split rng) ~factor:error_factor world
      else world
    in
    let assignment, seconds =
      Cap_experiments.Common.time_wall (fun () ->
          Cap_core.Two_phase.run algorithm (Rng.split rng) world)
    in
    let table = Table.create ~headers:[ "metric"; "value" ] () in
    Table.add_row table [ "configuration"; Scenario.notation scenario ];
    Table.add_row table [ "algorithm"; algorithm.Cap_core.Two_phase.name ];
    Table.add_row table [ "pQoS"; Printf.sprintf "%.4f" (Assignment.pqos assignment world) ];
    Table.add_row table
      [ "resource utilization"; Printf.sprintf "%.4f" (Assignment.utilization assignment world) ];
    Table.add_row table
      [ "valid (capacities)"; string_of_bool (Assignment.is_valid assignment world) ];
    Table.add_row table [ "wall time (s)"; Printf.sprintf "%.4f" seconds ];
    Table.print table;
    (match delays_csv with
    | None -> ()
    | Some file ->
        let delays = Assignment.delay_samples assignment world in
        let out = open_out file in
        output_string out "client,delay_ms\n";
        Array.iteri (fun c d -> Printf.fprintf out "%d,%.3f\n" c d) delays;
        close_out out;
        Printf.printf "wrote %d delays to %s\n" (Array.length delays) file);
    Ok 0
  in
  let term =
    Term.(
      const run $ obs_term $ scenario_arg
      $ algorithm_arg
          "Algorithm: RanZ-VirC, RanZ-GreC, GreZ-VirC, GreZ-GreC (and extensions)."
      $ aggregate_arg $ buckets_arg $ seed_arg $ error_arg $ delays_csv_arg)
  in
  Cmd.v (Cmd.info "run" ~exits ~doc:"Run one assignment algorithm on one configuration.") term

(* ------------------------------------------------------------------ *)
(* optimal                                                             *)

let optimal_cmd =
  let run obs scenario seed time_limit =
    with_obs obs @@ fun () ->
    let rng = Rng.create ~seed in
    let world = World.generate rng scenario in
    let options = { Cap_milp.Branch_bound.default_options with time_limit } in
    (match Cap_milp.Optimal.solve ~options world with
    | None ->
        print_endline "no feasible initial assignment found within budget";
        ()
    | Some (assignment, iap, rap) ->
        let table = Table.create ~headers:[ "metric"; "value" ] () in
        Table.add_row table [ "pQoS"; Printf.sprintf "%.4f" (Assignment.pqos assignment world) ];
        Table.add_row table
          [
            "resource utilization";
            Printf.sprintf "%.4f" (Assignment.utilization assignment world);
          ];
        Table.add_row table
          [ "IAP"; Printf.sprintf "cost %.0f, %d nodes, %.3fs, optimal=%b"
              iap.Cap_milp.Optimal.objective iap.Cap_milp.Optimal.nodes
              iap.Cap_milp.Optimal.elapsed iap.Cap_milp.Optimal.proven_optimal ];
        Table.add_row table
          [ "RAP"; Printf.sprintf "cost %.0f, %d nodes, %.3fs, optimal=%b"
              rap.Cap_milp.Optimal.objective rap.Cap_milp.Optimal.nodes
              rap.Cap_milp.Optimal.elapsed rap.Cap_milp.Optimal.proven_optimal ];
        Table.print table);
    0
  in
  let term = Term.(const run $ obs_term $ scenario_arg $ seed_arg $ time_limit_arg) in
  Cmd.v
    (Cmd.info "optimal" ~exits
       ~doc:"Run the branch-and-bound baseline (the lp_solve substitute).")
    term

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_cmd =
  let with_optimal_arg =
    let doc = "Also run the branch-and-bound baseline (small configurations only)." in
    Arg.(value & flag & info [ "optimal" ] ~doc)
  in
  let run obs scenario seed time_limit with_optimal =
    with_obs obs @@ fun () ->
    let rng = Rng.create ~seed in
    let world = World.generate rng scenario in
    let loadz_virc =
      {
        Cap_core.Two_phase.name = "LoadZ-VirC (related work)";
        iap = (fun _rng w -> Cap_core.Balance.assign w);
        rap = (fun _rng w ~targets -> Cap_core.Virc.assign w ~targets);
      }
    in
    let candidates =
      Cap_core.Two_phase.all
      @ [
          loadz_virc;
          Cap_core.Two_phase.grez_grec_dynamic;
          Cap_core.Two_phase.grez_grec_paper_regret;
        ]
    in
    let table =
      Table.create
        ~headers:
          [ "algorithm"; "pQoS"; "R"; "median(ms)"; "p95(ms)"; "Jain"; "time(s)" ]
        ()
    in
    let row name (s : Cap_model.Metrics.summary) seconds =
      Table.add_row table
        [
          name;
          Printf.sprintf "%.3f" s.Cap_model.Metrics.pqos;
          Printf.sprintf "%.3f" s.Cap_model.Metrics.utilization;
          Printf.sprintf "%.0f" s.Cap_model.Metrics.median_delay;
          Printf.sprintf "%.0f" s.Cap_model.Metrics.p95_delay;
          Printf.sprintf "%.3f" s.Cap_model.Metrics.jain_fairness;
          Printf.sprintf "%.4f" seconds;
        ]
    in
    List.iter
      (fun algorithm ->
        let assignment, seconds =
          Cap_experiments.Common.time_wall (fun () ->
              Cap_core.Two_phase.run algorithm (Rng.split rng) world)
        in
        row algorithm.Cap_core.Two_phase.name
          (Cap_model.Metrics.summary assignment world)
          seconds)
      candidates;
    if with_optimal then begin
      let options = { Cap_milp.Branch_bound.default_options with time_limit } in
      match Cap_milp.Optimal.solve ~options world with
      | Some (assignment, iap, rap) ->
          row
            (Printf.sprintf "optimal B&B%s"
               (if
                  iap.Cap_milp.Optimal.proven_optimal
                  && rap.Cap_milp.Optimal.proven_optimal
                then ""
                else " (budget hit)"))
            (Cap_model.Metrics.summary assignment world)
            (iap.Cap_milp.Optimal.elapsed +. rap.Cap_milp.Optimal.elapsed)
      | None -> print_endline "optimal: no feasible assignment found within budget"
    end;
    Printf.printf "one world, configuration %s, seed %d:\n" (Scenario.notation scenario)
      seed;
    Table.print table;
    0
  in
  let term =
    Term.(
      const run $ obs_term $ scenario_arg $ seed_arg $ time_limit_arg $ with_optimal_arg)
  in
  Cmd.v
    (Cmd.info "compare" ~exits
       ~doc:"Compare every algorithm (and the load-balancing baseline) on one world.")
    term

(* ------------------------------------------------------------------ *)
(* plan                                                                *)

let plan_cmd =
  let target_arg =
    let doc = "Target pQoS in (0, 1]." in
    Arg.(value & opt float 0.9 & info [ "target-pqos"; "t" ] ~docv:"PQOS" ~doc)
  in
  let run obs scenario seed runs target algorithm =
    with_obs obs @@ fun () ->
    try
      let plan =
        Cap_experiments.Planner.plan ?runs ~seed ~algorithm ~target_pqos:target scenario
      in
      Table.print (Cap_experiments.Planner.to_table plan);
      (match plan.Cap_experiments.Planner.required_mbps with
      | Some mbps ->
          Printf.printf "target pQoS %.2f needs about %.0f Mbps of total capacity\n" target
            mbps
      | None ->
          Printf.printf "target pQoS %.2f is out of reach on this topology (ceiling %.3f)\n"
            target plan.Cap_experiments.Planner.ceiling_pqos);
      0
    with Invalid_argument m ->
      prerr_endline m;
      exit_usage
  in
  let term =
    Term.(
      const run $ obs_term $ scenario_arg $ seed_arg $ runs_arg $ target_arg
      $ algorithm_arg "Algorithm.")
  in
  Cmd.v
    (Cmd.info "plan" ~exits
       ~doc:"Find the total capacity needed for a target pQoS (bisection).")
    term

(* ------------------------------------------------------------------ *)
(* plots                                                               *)

let plots_cmd =
  let out_arg =
    let doc = "Output directory for CSV data and gnuplot scripts." in
    Arg.(value & opt string "plots" & info [ "out"; "o" ] ~docv:"DIR" ~doc)
  in
  let run obs runs seed out =
    with_obs obs @@ fun () ->
    let written = Cap_experiments.Export.write_all ?runs ~seed ~directory:out () in
    Printf.printf "wrote %d files to %s:\n" (List.length written.Cap_experiments.Export.files)
      written.Cap_experiments.Export.directory;
    List.iter (Printf.printf "  %s\n") written.Cap_experiments.Export.files;
    print_endline "render the figures with e.g.: gnuplot -p plots/fig4_delay_cdf.gp";
    0
  in
  let term = Term.(const run $ obs_term $ runs_arg $ seed_arg $ out_arg) in
  Cmd.v
    (Cmd.info "plots" ~exits ~doc:"Export figure data as CSV plus gnuplot scripts.")
    term

(* ------------------------------------------------------------------ *)
(* sim                                                                 *)

let parse_policy s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "never" ] -> Ok Cap_sim.Policy.Never
  | [ "periodic"; v ] -> (
      match float_of_string_opt v with
      | Some f when f > 0. -> Ok (Cap_sim.Policy.Periodic f)
      | Some _ | None -> Error "periodic: bad period")
  | [ "threshold"; v ] -> (
      match float_of_string_opt v with
      | Some f when f > 0. && f <= 1. ->
          Ok (Cap_sim.Policy.On_threshold { pqos = f; min_interval = 0. })
      | Some _ | None -> Error "threshold: bad level")
  | [ "threshold"; v; cooldown ] -> (
      match float_of_string_opt v, float_of_string_opt cooldown with
      | Some f, Some c when f > 0. && f <= 1. && c >= 0. ->
          Ok (Cap_sim.Policy.On_threshold { pqos = f; min_interval = c })
      | _ -> Error "threshold: bad level or cooldown")
  | _ -> Error ("unknown policy: " ^ s)

(* ------------------------------------------------------------------ *)
(* checkpointing, shared by sim, chaos and resume                      *)

type checkpoint_options = {
  ck_path : string option;
  ck_every : float option;
}

let checkpoint_term =
  let path_arg =
    let doc =
      "Write crash-safe snapshots of the running simulation to $(docv) (atomically: \
       temp file + rename, so a crash mid-write never corrupts the previous \
       snapshot). Combine with $(b,--checkpoint-every) for periodic captures; \
       SIGTERM always captures a final snapshot and stops the run. Resume with \
       $(b,capsim resume) $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let every_arg =
    let doc =
      "Capture a snapshot every $(docv) simulated seconds (requires \
       $(b,--checkpoint))."
    in
    Arg.(value & opt (some float) None & info [ "checkpoint-every" ] ~docv:"SECONDS" ~doc)
  in
  Term.(const (fun ck_path ck_every -> { ck_path; ck_every }) $ path_arg $ every_arg)

let sigterm_requested = ref false

let install_sigterm () =
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> sigterm_requested := true))
  with Invalid_argument _ | Sys_error _ -> ()

(* Build the simulator hook for the given flags, or a usage error when
   they are inconsistent. [spec] records how to rebuild the run. *)
let checkpoint_hook options (spec : Sim_run.spec) =
  match options with
  | { ck_path = None; ck_every = Some _ } ->
      Error "--checkpoint-every requires --checkpoint FILE"
  | { ck_path = None; ck_every = None } -> Ok None
  | { ck_path = Some _; ck_every = Some t } when t <= 0. ->
      Error "--checkpoint-every: must be positive"
  | { ck_path = Some path; ck_every } ->
      install_sigterm ();
      Ok
        (Some
           {
             Dve_sim.every = ck_every;
             request = (fun () -> !sigterm_requested);
             write =
               (fun ~reason ck ->
                 match Sim_run.save ~path { Sim_run.spec; state = ck } with
                 | Ok () ->
                     if reason = Dve_sim.Requested then
                       Printf.eprintf
                         "checkpoint written to %s (t=%.1fs); continue with: capsim \
                          resume %s\n\
                          %!"
                         path
                         (Dve_sim.checkpoint_time ck)
                         path
                 | Error e ->
                     Printf.eprintf "checkpoint write failed: %s\n%!"
                       (Envelope.describe e));
           })

(* Outcome reporting shared by sim, chaos and resume; returns the exit
   code (chaos invariant violations are the QoS-failure case). *)
let report_sim_outcome ~command ~trace_csv (outcome : Dve_sim.outcome) =
  Table.print (Cap_sim.Trace.to_table outcome.Dve_sim.trace);
  Printf.printf "reassignments: %d\n" outcome.Dve_sim.reassignments;
  let violations =
    match command with
    | Sim_run.Sim -> []
    | Sim_run.Chaos ->
        let report = Cap_sim.Chaos.analyze outcome in
        Table.print (Cap_sim.Chaos.to_table outcome report);
        report.Cap_sim.Chaos.invariant_violations
  in
  (match trace_csv with
  | None -> ()
  | Some file ->
      let out = open_out file in
      output_string out (Cap_sim.Trace.to_csv outcome.Dve_sim.trace);
      close_out out;
      Printf.printf "wrote trace to %s\n" file);
  if outcome.Dve_sim.interrupted then
    print_endline
      "run interrupted: the tables above cover the simulated time up to the final \
       checkpoint";
  match violations with
  | [] -> 0
  | violations ->
      Printf.eprintf "INVARIANT VIOLATIONS (%d):\n" (List.length violations);
      List.iter (Printf.eprintf "  %s\n") violations;
      exit_violation

(* Run the run [spec] describes on its regenerated [world]: from the
   top, or from [resume]'s checkpoint. [rng] has drawn everything the
   original setup drew before the simulator config. *)
let run_spec ?resume ~ck ~trace_csv ~algorithm (spec : Sim_run.spec) rng world =
  let config = Sim_run.config spec rng world in
  let* checkpoint = checkpoint_hook ck spec in
  let outcome =
    match resume with
    | None -> Dve_sim.run ?checkpoint rng config ~world ~algorithm
    | Some snapshot ->
        Printf.printf "resuming %s\n" (Sim_run.describe snapshot);
        Dve_sim.resume ?checkpoint config ~world ~algorithm snapshot.Sim_run.state
  in
  Ok (report_sim_outcome ~command:spec.command ~trace_csv outcome)

(* flags sim and chaos share *)

let sim_duration_arg =
  Arg.(value & opt float 600. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated time.")

let sim_policy_arg =
  let doc = "Reassignment policy: never, periodic:SECONDS, or threshold:PQOS[:COOLDOWN]." in
  Arg.(value & opt string "periodic:100" & info [ "policy" ] ~docv:"POLICY" ~doc)

let sim_algorithm_arg = algorithm_arg "Algorithm."

let sim_trace_csv_arg =
  let doc = "Also write the time series to this CSV file." in
  Arg.(value & opt (some string) None & info [ "trace-csv" ] ~docv:"FILE" ~doc)

let sim_cmd =
  let roam_arg =
    let doc = "Avatars roam to adjacent zones of a grid layout instead of teleporting." in
    Arg.(value & flag & info [ "roam" ] ~doc)
  in
  let flash_arg =
    let doc = "Flash crowd as AT:FRACTION, e.g. 300:0.6." in
    Arg.(value & opt (some string) None & info [ "flash" ] ~docv:"AT:FRACTION" ~doc)
  in
  let diurnal_arg =
    let doc = "Diurnal arrival modulation with this amplitude in [0,1] (random region phases)." in
    Arg.(value & opt (some float) None & info [ "diurnal" ] ~docv:"AMPLITUDE" ~doc)
  in
  let parse_flash s =
    match String.split_on_char ':' s with
    | [ at; fraction ] -> (
        match float_of_string_opt at, float_of_string_opt fraction with
        | Some at, Some fraction -> Ok { Dve_sim.at; fraction; target_zone = None }
        | _ -> Error ("bad flash spec: " ^ s))
    | _ -> Error ("bad flash spec: " ^ s)
  in
  let run obs (notation, scenario) seed duration policy algorithm aggregate buckets roam
      flash diurnal trace_csv ck =
    with_obs obs @@ fun () ->
    or_usage
    @@
    let* policy = parse_policy policy in
    let* buckets = aggregation ~aggregate ~buckets algorithm in
    let* flash =
      match flash with
      | None -> Ok None
      | Some s -> Result.map Option.some (parse_flash s)
    in
    let rng = Rng.create ~seed in
    let world = World.generate rng scenario in
    let spec =
      {
        Sim_run.command = Sim_run.Sim;
        scenario = notation;
        seed;
        algorithm = algorithm.Cap_core.Two_phase.name;
        buckets;
        duration;
        policy;
        roam;
        flash;
        diurnal_amplitude = diurnal;
        faults = [];
        failover_moves = Dve_sim.default_config.Dve_sim.failover_moves;
        world_fingerprint = Sim_run.fingerprint world;
      }
    in
    let* algorithm = Sim_run.solver spec in
    run_spec ~ck ~trace_csv ~algorithm spec rng world
  in
  let term =
    Term.(
      const run $ obs_term $ config_arg $ seed_arg $ sim_duration_arg $ sim_policy_arg
      $ sim_algorithm_arg $ aggregate_arg $ buckets_arg $ roam_arg $ flash_arg
      $ diurnal_arg $ sim_trace_csv_arg $ checkpoint_term)
  in
  Cmd.v (Cmd.info "sim" ~exits ~doc:"Run the dynamic churn simulation.") term

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)

let chaos_cmd =
  let module Fault = Cap_faults.Fault in
  let crash_arg =
    let doc =
      "Crash SERVER at time AT. SERVER is an index, or 'max' for the initially \
       most-loaded server. Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "crash" ] ~docv:"AT:SERVER" ~doc)
  in
  let recover_arg =
    let doc = "Recover SERVER at time AT. Repeatable." in
    Arg.(value & opt_all string [] & info [ "recover" ] ~docv:"AT:SERVER" ~doc)
  in
  let degrade_arg =
    let doc = "Add MS of delay to every path through SERVER from time AT. Repeatable." in
    Arg.(value & opt_all string [] & info [ "degrade" ] ~docv:"AT:SERVER:MS" ~doc)
  in
  let mtbf_arg =
    let doc = "Mean time between failures for the Poisson fault generator (with --mttr)." in
    Arg.(value & opt (some float) None & info [ "mtbf" ] ~docv:"SECONDS" ~doc)
  in
  let mttr_arg =
    let doc = "Mean time to repair for the Poisson fault generator (with --mtbf)." in
    Arg.(value & opt (some float) None & info [ "mttr" ] ~docv:"SECONDS" ~doc)
  in
  let cut_link_arg =
    let doc = "Cut the backbone link between servers I and J at time AT. Repeatable." in
    Arg.(value & opt_all string [] & info [ "cut-link" ] ~docv:"AT:I-J" ~doc)
  in
  let restore_link_arg =
    let doc = "Restore the I-J backbone link at time AT. Repeatable." in
    Arg.(value & opt_all string [] & info [ "restore-link" ] ~docv:"AT:I-J" ~doc)
  in
  let degrade_link_arg =
    let doc = "Add MS of delay to the I-J backbone link from time AT. Repeatable." in
    Arg.(value & opt_all string [] & info [ "degrade-link" ] ~docv:"AT:I-J:MS" ~doc)
  in
  let partition_arg =
    let doc =
      "Split the backbone at time AT into the given server GROUPS (comma-separated \
       ids, groups separated by '|', e.g. 0,1$(i,|)2,3; unlisted servers form one \
       extra group), optionally healing after HEAL seconds. Repeatable."
    in
    Arg.(
      value & opt_all string [] & info [ "partition" ] ~docv:"AT:GROUPS[:HEAL]" ~doc)
  in
  let link_mtbf_arg =
    let doc =
      "Mean up-time per backbone link for the Gilbert-Elliott flapping generator \
       (with --link-mttr)."
    in
    Arg.(value & opt (some float) None & info [ "link-mtbf" ] ~docv:"SECONDS" ~doc)
  in
  let link_mttr_arg =
    let doc =
      "Mean down-time per backbone link for the Gilbert-Elliott flapping generator \
       (with --link-mtbf)."
    in
    Arg.(value & opt (some float) None & info [ "link-mttr" ] ~docv:"SECONDS" ~doc)
  in
  let failover_moves_arg =
    let doc = "Zone-move budget for each failure-aware refresh (evacuations are free)." in
    Arg.(value & opt int 16 & info [ "failover-moves" ] ~docv:"N" ~doc)
  in
  (* "AT:SERVER" or "AT:SERVER:MS"; SERVER is an index or "max" *)
  let parse_spec kind s =
    let server_of = function
      | "max" -> Ok `Max
      | tok -> (
          match int_of_string_opt tok with
          | Some i when i >= 0 -> Ok (`Index i)
          | Some _ | None -> Error (Printf.sprintf "bad %s spec: %s" kind s))
    in
    let parts = String.split_on_char ':' s in
    match kind, parts with
    | ("crash" | "recover"), [ at; server ] -> (
        match float_of_string_opt at, server_of server with
        | Some at, Ok server -> Ok (kind, (at, server, None))
        | _ -> Error (Printf.sprintf "bad %s spec: %s" kind s))
    | "degrade", [ at; server; ms ] -> (
        match float_of_string_opt at, server_of server, float_of_string_opt ms with
        | Some at, Ok server, Some ms -> Ok (kind, (at, server, Some ms))
        | _ -> Error (Printf.sprintf "bad %s spec: %s" kind s))
    | _ -> Error (Printf.sprintf "bad %s spec: %s (expected AT:SERVER%s)" kind s
                    (if kind = "degrade" then ":MS" else ""))
  in
  (* "AT:I-J" or "AT:I-J:MS" *)
  let parse_link_spec kind s =
    let fail () =
      Error
        (Printf.sprintf "bad %s spec: %s (expected AT:I-J%s)" kind s
           (if kind = "degrade-link" then ":MS" else ""))
    in
    let endpoints tok =
      match String.split_on_char '-' tok with
      | [ a; b ] -> (
          match int_of_string_opt a, int_of_string_opt b with
          | Some i, Some j when i >= 0 && j >= 0 && i <> j -> Ok (i, j)
          | _ -> fail ())
      | _ -> fail ()
    in
    match kind, String.split_on_char ':' s with
    | ("cut-link" | "restore-link"), [ at; link ] -> (
        match float_of_string_opt at, endpoints link with
        | Some at, Ok (i, j) -> Ok (kind, (at, i, j, None))
        | _ -> fail ())
    | "degrade-link", [ at; link; ms ] -> (
        match float_of_string_opt at, endpoints link, float_of_string_opt ms with
        | Some at, Ok (i, j), Some ms -> Ok (kind, (at, i, j, Some ms))
        | _ -> fail ())
    | _ -> fail ()
  in
  (* "AT:GROUPS[:HEAL]" with GROUPS like "0,1|2,3"; group membership is
     validated later by Fault.partition, once the server count is known *)
  let parse_partition_spec s =
    let fail () =
      Error
        (Printf.sprintf
           "bad partition spec: %s (expected AT:GROUPS[:HEAL], e.g. 120:0,1|2,3:60)" s)
    in
    let groups_of tok =
      let id_of id =
        match int_of_string_opt id with Some i when i >= 0 -> Ok i | _ -> Error ()
      in
      traverse
        (fun g -> traverse id_of (String.split_on_char ',' g))
        (String.split_on_char '|' tok)
    in
    match String.split_on_char ':' s with
    | [ at; groups ] -> (
        match float_of_string_opt at, groups_of groups with
        | Some at, Ok gs -> Ok (at, gs, None)
        | _ -> fail ())
    | [ at; groups; heal ] -> (
        match float_of_string_opt at, groups_of groups, float_of_string_opt heal with
        | Some at, Ok gs, Some heal -> Ok (at, gs, Some heal)
        | _ -> fail ())
    | _ -> fail ()
  in
  let run obs (notation, scenario) seed duration policy algorithm failover_moves crashes
      recovers degrades mtbf mttr cut_links restore_links degrade_links partitions
      link_mtbf link_mttr trace_csv ck =
    with_obs obs @@ fun () ->
    or_usage
    @@
    let* policy = parse_policy policy in
    let* crashes = traverse (parse_spec "crash") crashes in
    let* recovers = traverse (parse_spec "recover") recovers in
    let* degrades = traverse (parse_spec "degrade") degrades in
    let* cut_links = traverse (parse_link_spec "cut-link") cut_links in
    let* restore_links = traverse (parse_link_spec "restore-link") restore_links in
    let* degrade_links = traverse (parse_link_spec "degrade-link") degrade_links in
    let* partition_specs = traverse parse_partition_spec partitions in
    let specs = crashes @ recovers @ degrades in
    let link_specs = cut_links @ restore_links @ degrade_links in
    try
      let rng = Rng.create ~seed in
      let world = World.generate rng scenario in
      let most_loaded =
        (* resolved against the initial assignment, before any churn *)
        if List.exists (fun (_, (_, server, _)) -> server = `Max) specs then begin
          let a = Cap_core.Two_phase.run algorithm (Rng.split rng) world in
          let loads = Assignment.server_loads a world in
          let best = ref 0 in
          Array.iteri (fun s l -> if l > loads.(!best) then best := s) loads;
          Printf.printf "resolved 'max' to server %d (initially most loaded)\n" !best;
          Some !best
        end
        else None
      in
      let resolve = function `Index i -> i | `Max -> Option.get most_loaded in
      let manual =
        List.map
          (fun (kind, (at, server, ms)) ->
            let server = resolve server in
            let event =
              match kind, ms with
              | "crash", _ -> Fault.Crash server
              | "recover", _ -> Fault.Recover server
              | "degrade", Some delay_penalty -> Fault.Degrade { server; delay_penalty }
              | _ -> assert false
            in
            { Fault.at; event })
          specs
      in
      let link_manual =
        List.map
          (fun (kind, (at, s1, s2, ms)) ->
            let event =
              match kind, ms with
              | "cut-link", _ -> Fault.Link_cut { s1; s2 }
              | "restore-link", _ -> Fault.Link_restore { s1; s2 }
              | "degrade-link", Some delay_penalty ->
                  Fault.Link_degrade { s1; s2; delay_penalty }
              | _ -> assert false
            in
            { Fault.at; event })
          link_specs
      in
      let partition_manual =
        List.concat_map
          (fun (at, groups, heal_after) ->
            let groups = Array.of_list (List.map Array.of_list groups) in
            Fault.partition ~servers:(World.server_count world) ~groups ~at ?heal_after ())
          partition_specs
      in
      let generated =
        match mtbf, mttr with
        | Some mtbf, Some mttr ->
            Fault.poisson (Rng.split rng) ~servers:(World.server_count world) ~mtbf ~mttr
              ~duration
        | None, None -> []
        | _ -> invalid_arg "chaos: --mtbf and --mttr must be given together"
      in
      let link_generated =
        match link_mtbf, link_mttr with
        | Some mtbf, Some mttr ->
            Fault.link_flapping (Rng.split rng) ~servers:(World.server_count world) ~mtbf
              ~mttr ~duration
        | None, None -> []
        | _ -> invalid_arg "chaos: --link-mtbf and --link-mttr must be given together"
      in
      let faults =
        Fault.merge [ manual; link_manual; partition_manual; generated; link_generated ]
      in
      if faults = [] then
        invalid_arg
          "chaos: no faults given (use --crash/--degrade, --cut-link/--partition, \
           --mtbf/--mttr or --link-mtbf/--link-mttr)";
      Printf.printf "fault schedule: %s\n" (Fault.describe faults);
      let spec =
        {
          Sim_run.command = Sim_run.Chaos;
          scenario = notation;
          seed;
          algorithm = algorithm.Cap_core.Two_phase.name;
          buckets = None;
          duration;
          policy;
          roam = false;
          flash = None;
          diurnal_amplitude = None;
          (* the fully resolved schedule: resume does not replay the
             'max' lookup or the Poisson generator *)
          faults;
          failover_moves;
          world_fingerprint = Sim_run.fingerprint world;
        }
      in
      run_spec ~ck ~trace_csv ~algorithm spec rng world
    with Invalid_argument m -> Error m
  in
  let term =
    Term.(
      const run $ obs_term $ config_arg $ seed_arg $ sim_duration_arg $ sim_policy_arg
      $ sim_algorithm_arg $ failover_moves_arg $ crash_arg $ recover_arg $ degrade_arg
      $ mtbf_arg $ mttr_arg $ cut_link_arg $ restore_link_arg $ degrade_link_arg
      $ partition_arg $ link_mtbf_arg $ link_mttr_arg $ sim_trace_csv_arg
      $ checkpoint_term)
  in
  Cmd.v
    (Cmd.info "chaos" ~exits
       ~doc:
         "Run the churn simulation under an injected server- and link-fault schedule \
          and report availability, MTTR, pQoS-during-failure and partition-tolerance \
          metrics.")
    term

(* ------------------------------------------------------------------ *)
(* resume                                                              *)

let resume_cmd =
  let path_arg =
    let doc = "Snapshot file written by $(b,sim)/$(b,chaos) $(b,--checkpoint)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SNAPSHOT" ~doc)
  in
  let trace_csv_arg =
    let doc = "Also write the time series (full, from t=0) to this CSV file." in
    Arg.(value & opt (some string) None & info [ "trace-csv" ] ~docv:"FILE" ~doc)
  in
  let run obs path ck trace_csv =
    with_obs obs @@ fun () ->
    or_usage
    @@
    let capsim_error describe e = "capsim: " ^ describe e in
    let* ({ Sim_run.spec; _ } as snapshot) =
      Result.map_error (capsim_error Envelope.describe) (Sim_run.load ~path)
    in
    let* scenario =
      Result.map_error
        (capsim_error (fun i -> "snapshot scenario: " ^ Validate.describe i))
        (Validate.scenario_notation spec.Sim_run.scenario)
    in
    let* algorithm =
      Result.map_error (capsim_error (( ^ ) "snapshot ")) (Sim_run.solver spec)
    in
    (* replay the original setup order exactly: create the seeded RNG,
       generate the world, then let Sim_run.config draw what the
       original setup drew — the simulation RNG itself is restored
       from the checkpoint *)
    let rng = Rng.create ~seed:spec.Sim_run.seed in
    let world = World.generate rng scenario in
    let fingerprint = Sim_run.fingerprint world in
    if fingerprint <> spec.Sim_run.world_fingerprint then
      Error
        (Printf.sprintf
           "capsim: snapshot world mismatch: regenerated fingerprint %s but the \
            snapshot recorded %s (produced by a different capsim build?)"
           fingerprint spec.Sim_run.world_fingerprint)
    else
      (* keep checkpointing to the same file unless told otherwise *)
      let ck = { ck with ck_path = Some (Option.value ck.ck_path ~default:path) } in
      try run_spec ~resume:snapshot ~ck ~trace_csv ~algorithm spec rng world
      with Invalid_argument m -> Error ("capsim: " ^ m)
  in
  let term =
    Term.(const run $ obs_term $ path_arg $ checkpoint_term $ trace_csv_arg)
  in
  Cmd.v
    (Cmd.info "resume" ~exits
       ~doc:
         "Continue a checkpointed $(b,sim) or $(b,chaos) run from a snapshot file. The \
          resumed run is deterministic: its trace is identical to the uninterrupted \
          run's, including the prefix recorded before the checkpoint. Checkpointing \
          continues to the same file unless $(b,--checkpoint) overrides it.")
    term

(* ------------------------------------------------------------------ *)
(* loadgen                                                             *)

let loadgen_cmd =
  let rate_arg =
    let doc = "Mean event rate, events per second of stream time." in
    Arg.(value & opt float 10_000. & info [ "rate" ] ~docv:"EVENTS/S" ~doc)
  in
  let duration_arg =
    let doc = "Stream length in seconds of stream time." in
    Arg.(value & opt float 1. & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let mix_arg =
    let doc = "Relative join:leave:move weights." in
    Arg.(value & opt string "3:2:5" & info [ "mix" ] ~docv:"J:L:M" ~doc)
  in
  let diurnal_arg =
    let doc = "Modulate the instantaneous rate by a diurnal sinusoid over the stream." in
    Arg.(value & flag & info [ "diurnal" ] ~doc)
  in
  let ctrl_arg =
    let doc = "Inject a chaos control event (crash/recover/degrade) every $(docv) events." in
    Arg.(value & opt (some int) None & info [ "ctrl-every" ] ~docv:"N" ~doc)
  in
  let no_time_arg =
    let doc = "Omit the $(b,t) stream-clock lines." in
    Arg.(value & flag & info [ "no-time" ] ~doc)
  in
  let run obs scenario seed rate duration mix diurnal ctrl_every no_time =
    with_obs obs @@ fun () ->
    or_usage
    @@
    let* mix =
      match String.split_on_char ':' mix |> List.map float_of_string_opt with
      | [ Some join; Some leave; Some move ] -> Ok { Loadgen.join; leave; move }
      | _ -> Error "loadgen: --mix wants three numbers, e.g. 3:2:5"
    in
    let gen_config =
      { Loadgen.rate; duration; mix; diurnal; ctrl_every; emit_time = not no_time }
    in
    let* () = Result.map_error (( ^ ) "loadgen: ") (Loadgen.validate gen_config) in
    let rng = Rng.create ~seed in
    let world = World.generate rng scenario in
    let events_rng = Rng.split rng in
    let buf = Buffer.create 65536 in
    let emit line =
      Buffer.add_string buf
        (match line with
        | Proto.Hello { scenario; seed } -> Proto.format_hello ~scenario ~seed
        | Proto.Time at -> Proto.format_time at
        | Proto.Event event -> Proto.format_event event
        | Proto.Resume seq -> Proto.format_resume seq
        | Proto.End -> Proto.format_end);
      Buffer.add_char buf '\n';
      if Buffer.length buf >= 65536 then begin
        Buffer.output_buffer stdout buf;
        Buffer.clear buf
      end
    in
    let events =
      Loadgen.run events_rng ~world ~world_seed:seed gen_config ~emit
    in
    Buffer.output_buffer stdout buf;
    flush stdout;
    Printf.eprintf "loadgen: %d events for %s seed %d\n" events
      (Scenario.notation scenario) seed;
    Ok 0
  in
  let term =
    Term.(
      const run $ obs_term $ scenario_arg $ seed_arg $ rate_arg $ duration_arg $ mix_arg
      $ diurnal_arg $ ctrl_arg $ no_time_arg)
  in
  Cmd.v
    (Cmd.info "loadgen" ~exits
       ~doc:
         "Emit a deterministic open-loop cap-stream/1 event stream to stdout: Poisson \
          arrivals at $(b,--rate), a join/leave/move mix, optional diurnal modulation \
          and chaos control events. Pipe into $(b,capsim serve --stdin). The stream \
          is a pure function of the scenario, seed and flags.")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

type serve_params = {
  sv_stdin : bool;
  sv_listen : string option;
  sv_expect : string option;
  sv_algorithm : Cap_core.Two_phase.t;
  sv_reopt_every : int;
  sv_reopt_moves : int;
  sv_max_inflight : int option;
  sv_ck_path : string option;
  sv_ck_every : int option;
  sv_resume : string option;
  sv_latency_jsonl : string option;
  sv_quiet : bool;
  sv_wal : string option;
  sv_fsync_every : int;
  sv_segment_bytes : int option;
  sv_follow : bool;
  (* reactor front-end knobs (--listen mode only) *)
  sv_backlog : int;
  sv_idle_timeout : float;
  sv_max_write_buffer : int;
  sv_max_conns : int;
  sv_max_events_per_sec : float option;
}

let default_serve_params =
  {
    sv_stdin = false;
    sv_listen = None;
    sv_expect = None;
    sv_algorithm = Cap_core.Two_phase.grez_grec;
    sv_reopt_every = 512;
    sv_reopt_moves = 8;
    sv_max_inflight = None;
    sv_ck_path = None;
    sv_ck_every = None;
    sv_resume = None;
    sv_latency_jsonl = None;
    sv_quiet = false;
    sv_wal = None;
    sv_fsync_every = 32;
    sv_segment_bytes = None;
    sv_follow = false;
    sv_backlog = Daemon_net.default_config.Daemon_net.backlog;
    sv_idle_timeout = Daemon_net.default_config.Daemon_net.idle_timeout;
    sv_max_write_buffer = Daemon_net.default_config.Daemon_net.max_write_buffer;
    sv_max_conns = Daemon_net.default_config.Daemon_net.max_conns;
    sv_max_events_per_sec =
      Daemon_net.default_config.Daemon_net.max_events_per_sec;
  }

let engine_config p =
  {
    Engine.max_inflight = p.sv_max_inflight;
    reopt_every = p.sv_reopt_every;
    reopt_moves = p.sv_reopt_moves;
  }

(* hello -> world and bootstrap assignment: regenerate the world from
   the notation + seed and run the batch solve. Shared by serve and the
   in-process torture harnesses so both build byte-identical daemons. *)
let serve_bootstrap ~algorithm ~scenario ~seed =
  match Validate.scenario_notation scenario with
  | Error issue ->
      Error (Printf.sprintf "invalid scenario in hello: %s" (Validate.describe issue))
  | Ok parsed ->
      let rng = Rng.create ~seed in
      let world = World.generate rng parsed in
      Ok (world, Cap_core.Two_phase.run algorithm (Rng.split rng) world)

(* the serve engine room — also what the children of [capsim supervise]
   run after fork (no exec), so everything is parameterised by
   [serve_params] rather than read from Cmdliner *)
let serve_main p =
  Cap_obs.Control.enable ();
  let usage m =
    Printf.eprintf "serve: %s\n%!" m;
    exit exit_usage
  in
  let broken m =
    Printf.eprintf "serve: %s\n%!" m;
    exit exit_violation
  in
  if p.sv_stdin = Option.is_some p.sv_listen then
    usage "pick exactly one of --stdin and --listen SOCKET";
  if p.sv_reopt_every < 0 then usage "--reopt-every: must be >= 0";
  if p.sv_reopt_moves < 0 then usage "--reopt-moves: must be >= 0";
  if p.sv_fsync_every < 0 then usage "--fsync-every: must be >= 0";
  (match p.sv_segment_bytes with
  | Some n when n <= 0 -> usage "--wal-segment-bytes: must be positive"
  | Some _ when p.sv_wal = None -> usage "--wal-segment-bytes needs --wal FILE"
  | _ -> ());
  (match p.sv_max_inflight with
  | Some n when n < 0 -> usage "--max-inflight: must be >= 0"
  | _ -> ());
  (match p.sv_ck_every, p.sv_ck_path with
  | Some _, None -> usage "--checkpoint-every requires --checkpoint FILE"
  | Some n, Some _ when n <= 0 -> usage "--checkpoint-every: must be positive"
  | _ -> ());
  if p.sv_follow && (p.sv_wal = None || p.sv_listen = None) then
    usage "--follow needs --wal FILE and --listen SOCKET";
  if p.sv_backlog <= 0 then usage "--backlog: must be positive";
  if p.sv_idle_timeout <= 0. then usage "--idle-timeout: must be positive";
  if p.sv_max_write_buffer <= 0 then usage "--max-write-buffer: must be positive";
  if p.sv_max_conns <= 0 then usage "--max-conns: must be positive";
  (match p.sv_max_events_per_sec with
  | Some r when r <= 0. -> usage "--max-events-per-sec: must be positive"
  | _ -> ());
  let snapshot =
    match p.sv_resume with
    | None -> None
    | Some path -> (
        match Service_run.load ~path with
        | Ok snap -> Some snap
        | Error e -> usage (Envelope.describe e))
  in
  let engine_config =
    match snapshot with
    | Some snap -> Service_run.config snap
    | None -> engine_config p
  in
  (* set by resolve (or the eager snapshot path), read by the sink *)
  let identity = ref None in
  let resolve ~scenario ~seed =
    match p.sv_expect with
    | Some want when want <> scenario ->
        Error
          (Printf.sprintf "hello scenario %s does not match --expect %s" scenario want)
    | _ ->
        let* world, assignment =
          serve_bootstrap ~algorithm:p.sv_algorithm ~scenario ~seed
        in
        identity := Some (scenario, seed, world);
        Ok (Engine.create ~world ~assignment engine_config)
  in
  (* shared by eager --resume and the snapshot-bootstrapped standby *)
  let resume_engine snap =
    let spec = snap.Service_run.spec in
    let scenario = spec.Service_run.scenario in
    let seed = spec.Service_run.seed in
    (match p.sv_expect with
    | Some want when want <> scenario ->
        usage (Printf.sprintf "snapshot is for %s, --expect says %s" scenario want)
    | _ -> ());
    let parsed =
      match Validate.scenario_notation scenario with
      | Ok s -> s
      | Error issue ->
          usage (Printf.sprintf "snapshot scenario: %s" (Validate.describe issue))
    in
    let world = World.generate (Rng.create ~seed) parsed in
    identity := Some (scenario, seed, world);
    match Service_run.resume ~world snap with
    | Ok engine -> (engine, spec)
    | Error m -> usage m
  in
  (* the live writer, for snapshot-anchored GC from the checkpoint sink *)
  let wal_ref = ref None in
  let checkpoint_sink =
    match p.sv_ck_path with
    | None -> None
    | Some path ->
        Some
          (fun engine ~wal_records ~response_seq ->
            match !identity with
            | None -> ()
            | Some (scenario, seed, world) -> (
                let snap =
                  Service_run.of_engine ~wal_position:wal_records ~response_seq
                    ~scenario ~seed ~world engine_config engine
                in
                match Service_run.save ~path snap with
                | Ok () ->
                    (* the checkpoint is durable: segments wholly below
                       its WAL position are dead weight *)
                    Option.iter
                      (fun w ->
                        let deleted = Wal.gc w ~covered:wal_records in
                        if deleted > 0 then
                          Printf.eprintf
                            "serve: wal gc: %d segment(s) dropped, %d bytes live\n%!"
                            deleted (Wal.total_bytes w))
                      !wal_ref
                | Error e ->
                    Printf.eprintf "checkpoint write failed: %s\n%!"
                      (Envelope.describe e)))
  in
  let daemon_config =
    {
      Daemon.resolve;
      checkpoint_every = p.sv_ck_every;
      checkpoint_sink;
      echo_responses = not p.sv_quiet;
      resume_window = Daemon.default_resume_window;
    }
  in
  let note fmt = Printf.ksprintf (fun m -> Printf.eprintf "serve: %s\n%!" m) fmt in
  let new_writer ~path =
    Wal.create_writer ~fsync_every:p.sv_fsync_every
      ?segment_bytes:p.sv_segment_bytes ~path ()
  in
  let reopen ~path =
    Wal.open_append ~fsync_every:p.sv_fsync_every
      ?segment_bytes:p.sv_segment_bytes ~path ()
  in
  (* --- build the session: fresh, snapshot+WAL recovery, or standby --- *)
  let build_session () =
    if p.sv_follow then begin
      (* hot standby: tail the primary's WAL until promoted (SIGUSR1) *)
      let wal_path = Option.get p.sv_wal in
      let promote_now = ref false in
      Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> promote_now := true));
      let orphaned () = Unix.getppid () = 1 in
      let rec wait_for_wal () =
        if (not (Wal.log_exists ~path:wal_path ())) && not !promote_now then begin
          if orphaned () then exit 0;
          Unix.sleepf 0.02;
          wait_for_wal ()
        end
      in
      wait_for_wal ();
      if not (Wal.log_exists ~path:wal_path ()) then begin
        (* promoted before the primary wrote anything: start fresh *)
        if snapshot <> None then
          usage
            "a checkpoint exists but the log is gone; refusing to serve fresh \
             state over recorded history";
        note "promoted with no WAL yet; starting fresh";
        let writer = new_writer ~path:wal_path in
        wal_ref := Some writer;
        Daemon.make_session ~wal:writer daemon_config
      end
      else
        let follower =
          match snapshot with
          | None -> Follower.create daemon_config ~path:wal_path
          | Some snap ->
              (* GC may have dropped the log\'s head behind the latest
                 checkpoint: restore the snapshot and tail from its
                 recorded WAL position instead of record 0 *)
              let engine, spec = resume_engine snap in
              let session =
                Daemon.resume_session daemon_config ~engine
                  ~scenario:spec.Service_run.scenario
                  ~seed:spec.Service_run.seed
                  ~wal_records:spec.Service_run.wal_position
                  ~response_seq:spec.Service_run.response_seq
              in
              Follower.create ~session ~from:spec.Service_run.wal_position
                daemon_config ~path:wal_path
        in
        match follower with
        | Error m -> usage m
        | Ok follower ->
            let rec tail () =
              if not !promote_now then begin
                if orphaned () then exit 0;
                (match Follower.poll follower with
                | Ok _ -> ()
                | Error m -> broken (Printf.sprintf "standby tail: %s" m));
                if not !promote_now then Unix.sleepf 0.02;
                tail ()
              end
            in
            tail ();
            (match
               Follower.promote follower ~fsync_every:p.sv_fsync_every
                 ?segment_bytes:p.sv_segment_bytes ()
             with
            | Error m -> broken (Printf.sprintf "promotion failed: %s" m)
            | Ok extra ->
                note "promoted standby: %d records tailed, %d caught up at promotion"
                  (Follower.records_applied follower) extra;
                Follower.session follower)
    end
    else
      match snapshot with
      | Some snap -> (
          (* eager resume: the engine must exist before the WAL suffix
             can replay, so the hello is not what builds it here *)
          let engine, spec = resume_engine snap in
          let scenario = spec.Service_run.scenario in
          let seed = spec.Service_run.seed in
          let wal, suffix =
            match p.sv_wal with
            | None -> (None, [])
            | Some path ->
                if not (Wal.log_exists ~path ()) then
                  usage
                    (Printf.sprintf
                       "--resume with --wal %s: the log is missing, so events \
                        past the snapshot are unrecoverable"
                       path)
                else (
                  match reopen ~path with
                  | Error e -> usage (Wal.describe_read_error e)
                  | Ok (writer, records) ->
                      wal_ref := Some writer;
                      let base = Wal.base_index writer in
                      let have = base + List.length records in
                      if have < spec.Service_run.wal_position then
                        usage
                          (Printf.sprintf
                             "snapshot is ahead of the WAL (%d records recorded, \
                              %d in the log)"
                             spec.Service_run.wal_position have)
                      else if base > spec.Service_run.wal_position then
                        usage
                          (Printf.sprintf
                             "the log was GC\'d past this snapshot (oldest \
                              surviving record %d, snapshot at %d) — resume \
                              from the checkpoint that anchored the GC"
                             base spec.Service_run.wal_position)
                      else
                        ( Some writer,
                          List.filteri
                            (fun i _ -> base + i >= spec.Service_run.wal_position)
                            records ))
          in
          let session =
            Daemon.resume_session ?wal daemon_config ~engine ~scenario ~seed
              ~wal_records:spec.Service_run.wal_position
              ~response_seq:spec.Service_run.response_seq
          in
          match Daemon.replay session suffix with
          | Ok () ->
              if suffix <> [] then
                note "recovered %d WAL records past the snapshot"
                  (List.length suffix);
              session
          | Error m -> broken (Printf.sprintf "WAL replay failed: %s" m))
      | None -> (
          match p.sv_wal with
          | None -> Daemon.make_session daemon_config
          | Some path ->
              if not (Wal.log_exists ~path ()) then begin
                let writer = new_writer ~path in
                wal_ref := Some writer;
                Daemon.make_session ~wal:writer daemon_config
              end
              else (
                (* crash recovery from the log alone: replay everything *)
                match reopen ~path with
                | Error e -> usage (Wal.describe_read_error e)
                | Ok (writer, records) -> (
                    if Wal.base_index writer > 0 then
                      usage
                        (Printf.sprintf
                           "the log was GC\'d (oldest surviving record %d): \
                            replay from the log alone cannot rebuild the \
                            engine — pass --resume with the anchoring \
                            checkpoint"
                           (Wal.base_index writer));
                    wal_ref := Some writer;
                    let session = Daemon.make_session ~wal:writer daemon_config in
                    match Daemon.replay session records with
                    | Ok () ->
                        if records <> [] then
                          note "recovered %d WAL records" (List.length records);
                        session
                    | Error m -> broken (Printf.sprintf "WAL replay failed: %s" m))))
  in
  let session =
    try build_session ()
    with Wal.Write_error { path; error } ->
      usage (Printf.sprintf "wal %s: %s" path (Unix.error_message error))
  in
  let result =
    try
      match p.sv_listen with
      | Some path -> (
          let net =
            {
              Daemon_net.max_conns = p.sv_max_conns;
              backlog = p.sv_backlog;
              idle_timeout = p.sv_idle_timeout;
              max_write_buffer = p.sv_max_write_buffer;
              max_events_per_sec = p.sv_max_events_per_sec;
            }
          in
          match Daemon.serve_unix_session ~net session ~path with
          | Ok stats -> Ok stats
          | Error (Daemon.Bind e) ->
              (* structured diagnostic + usage exit, not a raw Unix_error *)
              Printf.eprintf "serve: %s\n%!" (Daemon.describe_bind_error e);
              exit exit_usage
          | Error (Daemon.Fatal m) -> Error m)
      | None -> Daemon.serve_session session ~input:stdin ~output:stdout
    with Wal.Fsync_error { path; error } ->
      (* fsyncgate: the kernel may have dropped the dirty pages while
         clearing the error, so a retried fsync can claim success over
         lost data — exit and recover by replay instead *)
      Printf.eprintf
        "serve: wal fsync failed on %s (%s); exiting to recover by replay — a \
         failed fsync is never retried\n%!"
        path (Unix.error_message error);
      exit exit_usage
  in
  let write_latency () =
    match p.sv_latency_jsonl with
    | None -> ()
    | Some file ->
        Cap_obs.Jsonl.write_metrics file;
        Printf.eprintf "wrote metrics JSONL to %s\n" file
  in
  match result with
  | Error m ->
      write_latency ();
      Printf.eprintf "serve: %s\n" m;
      exit_usage
  | Ok stats ->
      write_latency ();
      let latency = Daemon.latency_histogram () in
      let q pct =
        let v = Cap_obs.Metrics.Histogram.quantile latency pct in
        if Float.is_finite v then Printf.sprintf "%.0f" (v *. 1e6) else "-"
      in
      let rate =
        if stats.Daemon.wall_s > 0. then
          float_of_int stats.Daemon.events /. stats.Daemon.wall_s
        else 0.
      in
      let shed_rate =
        if stats.Daemon.events > 0 then
          float_of_int stats.Daemon.sheds /. float_of_int stats.Daemon.events
        else 0.
      in
      Printf.eprintf
        "serve: %d events in %.3fs (%.0f events/s), latency p50=%sus p99=%sus, %d \
         sheds (rate %.4f), %d readmits, %d reopts, %d resumes, %d live, %d still \
         shed, %d protocol errors\n"
        stats.Daemon.events stats.Daemon.wall_s rate (q 0.5) (q 0.99)
        stats.Daemon.sheds shed_rate stats.Daemon.readmits stats.Daemon.reopts
        stats.Daemon.resumes stats.Daemon.live stats.Daemon.shed_pool
        stats.Daemon.errors;
      if stats.Daemon.violations <> [] then begin
        Printf.eprintf "INVARIANT VIOLATIONS (%d):\n"
          (List.length stats.Daemon.violations);
        List.iter (Printf.eprintf "  %s\n") stats.Daemon.violations;
        exit_violation
      end
      else
        match stats.Daemon.degraded with
        | Some reason ->
            (* unrecoverable exit: restarting onto the same full disk
               would just crash-loop, so the supervisor must stop *)
            Printf.eprintf
              "serve: served degraded after a wal write failure (%s); exiting \
               unrecoverable\n"
              reason;
            exit_usage
        | None -> if stats.Daemon.errors > 0 then exit_usage else 0

(* WAL flags serve, supervise and torture share *)

let fsync_every_arg =
  let doc =
    "fsync the WAL every $(docv) appended records (0 = only at shutdown). \
     Batching trades machine-crash durability for throughput; process crashes \
     (SIGKILL) lose nothing at any setting."
  in
  Arg.(
    value
    & opt int default_serve_params.sv_fsync_every
    & info [ "fsync-every" ] ~docv:"N" ~doc)

let segment_bytes_arg =
  let doc =
    "Rotate the WAL into numbered segment files ($(i,FILE).000001, ...) once \
     the active one reaches $(docv) bytes; segments wholly covered by the \
     latest checkpoint are garbage-collected, bounding the log's disk \
     footprint. $(b,serve) requires $(b,--wal) with it; $(b,torture \
     --disk-faults) defaults it to 4096, so rotation sits inside the tortured \
     window."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "wal-segment-bytes" ] ~docv:"BYTES" ~doc)

(* The daemon flags serve and supervise share, over [default_serve_params]. *)
let daemon_term =
  let expect_arg =
    let doc =
      "Refuse streams whose hello names a different scenario (the world recipe is \
       otherwise adopted from the hello line)."
    in
    Arg.(value & opt (some string) None & info [ "expect" ] ~docv:"CONF" ~doc)
  in
  let ck_path_arg =
    let doc =
      "Write crash-safe engine snapshots to $(docv) (atomic temp-file + rename). \
       Always captured once at shutdown; combine with $(b,--checkpoint-every) for \
       periodic captures. $(b,serve --resume) $(docv) restores one; supervised \
       restarts resume from it."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let ck_every_arg =
    let doc = "Capture a snapshot every $(docv) events (requires $(b,--checkpoint))." in
    Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"EVENTS" ~doc)
  in
  let quiet_arg =
    let doc = "Do not echo responses (placement answers) to the output channel." in
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc)
  in
  Term.(
    const
      (fun sv_expect sv_algorithm sv_ck_path sv_ck_every sv_fsync_every sv_segment_bytes
           sv_quiet ->
        {
          default_serve_params with
          sv_expect;
          sv_algorithm;
          sv_ck_path;
          sv_ck_every;
          sv_fsync_every;
          sv_segment_bytes;
          sv_quiet;
        })
    $ expect_arg
    $ algorithm_arg "Bootstrap algorithm for the initial batch solve."
    $ ck_path_arg $ ck_every_arg $ fsync_every_arg $ segment_bytes_arg $ quiet_arg)

let serve_cmd =
  let stdin_arg =
    let doc = "Read the event stream from stdin (pipe mode)." in
    Arg.(value & flag & info [ "stdin" ] ~doc)
  in
  let listen_arg =
    let doc =
      "Listen on a Unix-domain socket at $(docv), serving connections concurrently \
       against the same engine until a stream sends $(b,end). See $(b,--backlog), \
       $(b,--idle-timeout), $(b,--max-write-buffer), $(b,--max-conns) and \
       $(b,--max-events-per-sec) for the front-end's hardening knobs."
    in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"SOCKET" ~doc)
  in
  let reopt_every_arg =
    let doc = "Events between background re-optimizations (0 disables the periodic pass)." in
    Arg.(
      value
      & opt int default_serve_params.sv_reopt_every
      & info [ "reopt-every" ] ~docv:"N" ~doc)
  in
  let reopt_moves_arg =
    let doc = "Zone-move budget per background re-optimization." in
    Arg.(
      value
      & opt int default_serve_params.sv_reopt_moves
      & info [ "reopt-moves" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc = "Admission cap on live clients; joins beyond it are shed." in
    Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let resume_arg =
    let doc =
      "Restore the engine from this service snapshot instead of a fresh batch solve; \
       the stream's hello must repeat the snapshot's scenario and seed."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let latency_jsonl_arg =
    let doc =
      "Write the metrics registry (including the per-event latency histogram \
       $(b,service/event_latency_seconds)) as JSON Lines to $(docv) on exit."
    in
    Arg.(value & opt (some string) None & info [ "latency-jsonl" ] ~docv:"FILE" ~doc)
  in
  let wal_arg =
    let doc =
      "Append every accepted request line to a write-ahead log at $(docv) before \
       answering it. If the file already exists the daemon first replays it \
       (crash recovery), truncating any torn tail, then continues appending."
    in
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"FILE" ~doc)
  in
  let follow_arg =
    let doc =
      "Run as a hot standby: tail the primary's WAL (given by $(b,--wal)), \
       applying records as they land, and take over serving on SIGUSR1 \
       (promotion). Requires $(b,--listen). With $(b,--resume) the standby \
       bootstraps from the checkpoint and tails from its WAL position, which \
       is how a standby joins a log whose head was garbage-collected."
    in
    Arg.(value & flag & info [ "follow" ] ~doc)
  in
  let backlog_arg =
    let doc = "listen(2) backlog for the daemon's socket." in
    Arg.(
      value
      & opt int default_serve_params.sv_backlog
      & info [ "backlog" ] ~docv:"N" ~doc)
  in
  let idle_timeout_arg =
    let doc =
      "Evict a connection that has not completed a request line within $(docv) \
       seconds — whether silent or trickling bytes without a newline."
    in
    Arg.(
      value
      & opt float default_serve_params.sv_idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_write_buffer_arg =
    let doc =
      "Evict a connection as a slow consumer once it owes the daemon more than \
       $(docv) unsent response bytes."
    in
    Arg.(
      value
      & opt int default_serve_params.sv_max_write_buffer
      & info [ "max-write-buffer" ] ~docv:"BYTES" ~doc)
  in
  let max_conns_arg =
    let doc =
      "Concurrent connections served; accepts beyond the cap are shed with a \
       one-line $(b,busy) response and closed."
    in
    Arg.(
      value
      & opt int default_serve_params.sv_max_conns
      & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let max_events_per_sec_arg =
    let doc =
      "Per-connection token-bucket rate limit (burst of one second's budget); \
       a connection exceeding it is evicted. Off by default."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "max-events-per-sec" ] ~docv:"RATE" ~doc)
  in
  let run obs daemon sv_stdin sv_listen sv_reopt_every sv_reopt_moves sv_max_inflight
      sv_resume sv_latency_jsonl sv_wal sv_follow sv_backlog sv_idle_timeout
      sv_max_write_buffer sv_max_conns sv_max_events_per_sec =
    with_obs obs @@ fun () ->
    serve_main
      {
        daemon with
        sv_stdin;
        sv_listen;
        sv_reopt_every;
        sv_reopt_moves;
        sv_max_inflight;
        sv_resume;
        sv_latency_jsonl;
        sv_wal;
        sv_follow;
        sv_backlog;
        sv_idle_timeout;
        sv_max_write_buffer;
        sv_max_conns;
        sv_max_events_per_sec;
      }
  in
  let term =
    Term.(
      const run $ obs_term $ daemon_term $ stdin_arg $ listen_arg $ reopt_every_arg
      $ reopt_moves_arg $ max_inflight_arg $ resume_arg $ latency_jsonl_arg $ wal_arg
      $ follow_arg $ backlog_arg $ idle_timeout_arg $ max_write_buffer_arg
      $ max_conns_arg $ max_events_per_sec_arg)
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the online assignment daemon: read a cap-stream/1 event stream \
          ($(b,--stdin) or $(b,--listen) SOCKET), answer every join/leave/move with a \
          contact-server placement in bounded time, shed what cannot be admitted, and \
          re-optimize in the background every $(b,--reopt-every) events. The world is \
          regenerated from the stream's hello line (scenario notation + seed); the \
          initial population gets a batch two-phase solve. With $(b,--wal) every \
          accepted line is logged before its response, so a killed daemon recovers \
          by replay; $(b,--follow) runs a hot standby that tails the log and is \
          promoted with SIGUSR1. Exits 0 on a clean stream, 1 if the final \
          self-check reports invariant violations, 2 on protocol errors, unusable \
          flags, or an unbindable socket.")
    term

(* ------------------------------------------------------------------ *)
(* supervise                                                           *)

type supervise_params = {
  sp_serve : serve_params;  (** template for the children *)
  sp_socket : string;
  sp_wal : string;
  sp_standby : bool;
  sp_pid_file : string option;
  sp_backoff_base : float;
  sp_backoff_max : float;
  sp_crash_window : float;
  sp_max_crashes : int;
}

(* Fork without exec: the child runs [f] and exits with its code (3 if
   it raises, logged under [name]). The children run [serve_main]
   directly, so the forking process must never have spawned Cap_par
   domains. *)
let fork_run ~name f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try f ()
        with e ->
          Printf.eprintf "%s: %s\n%!" name (Printexc.to_string e);
          3
      in
      flush stdout;
      flush stderr;
      Unix._exit code
  | pid -> pid

let supervise_main p =
  let write_pid pid =
    match p.sp_pid_file with
    | None -> ()
    | Some path ->
        let tmp = path ^ ".tmp" in
        Out_channel.with_open_bin tmp (fun out ->
            Printf.fprintf out "%d\n" pid);
        Sys.rename tmp path
  in
  let child_params role =
    {
      p.sp_serve with
      sv_stdin = false;
      sv_listen = Some p.sp_socket;
      sv_wal = Some p.sp_wal;
      sv_follow = role = Supervisor.Standby;
      (* a restart resumes from the latest checkpoint when there is one;
         the WAL suffix replay covers the rest. A standby spawned after
         GC cannot replay the log from record 0: it bootstraps from the
         checkpoint and tails from there (and keeps checkpointing after
         promotion) *)
      sv_resume =
        (match p.sp_serve.sv_ck_path with
        | Some ck when Sys.file_exists ck -> Some ck
        | _ -> None);
    }
  in
  let spawn role =
    let params = child_params role in
    let name = Printf.sprintf "serve (%s)" (Supervisor.role_name role) in
    match fork_run ~name (fun () -> serve_main params) with
    | pid ->
        if role = Supervisor.Primary then write_pid pid;
        Ok pid
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "fork: %s" (Unix.error_message e))
  in
  let rec wait () =
    match Unix.wait () with
    | r -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let actions =
    {
      Supervisor.spawn;
      promote =
        (fun ~pid ->
          match Unix.kill pid Sys.sigusr1 with
          | () ->
              write_pid pid;
              Ok ()
          | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "kill -USR1 %d: %s" pid (Unix.error_message e)));
      wait;
      kill =
        (fun ~pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      sleep = Unix.sleepf;
      now = Unix.gettimeofday;
      log = (fun m -> Printf.eprintf "supervise: %s\n%!" m);
    }
  in
  let config =
    {
      Supervisor.backoff_base = p.sp_backoff_base;
      backoff_max = p.sp_backoff_max;
      crash_window = p.sp_crash_window;
      max_crashes = p.sp_max_crashes;
      with_standby = p.sp_standby;
    }
  in
  let outcome = Supervisor.run config actions in
  (* reap whatever the policy killed so nothing leaks as a zombie *)
  (try
     while fst (Unix.waitpid [ Unix.WNOHANG ] (-1)) <> 0 do
       ()
     done
   with Unix.Unix_error _ -> ());
  Printf.eprintf "supervise: %s\n%!" (Supervisor.describe_outcome outcome);
  match outcome with
  | Supervisor.Clean_exit -> 0
  | Supervisor.Crash_loop _ -> exit_violation
  | Supervisor.Unrecoverable _ | Supervisor.Action_error _ -> exit_usage

let supervise_cmd =
  let socket_arg =
    let doc = "Unix-domain socket the supervised daemon serves on." in
    Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"SOCKET" ~doc)
  in
  let wal_arg =
    let doc = "Write-ahead log shared by the primary and any standby." in
    Arg.(required & opt (some string) None & info [ "wal" ] ~docv:"FILE" ~doc)
  in
  let standby_arg =
    let doc =
      "Keep a hot standby tailing the WAL; on a primary crash it is promoted \
       (SIGUSR1) instead of cold-restarting."
    in
    Arg.(value & flag & info [ "standby" ] ~doc)
  in
  let pid_file_arg =
    let doc = "Track the current primary's pid in $(docv) (updated on failover)." in
    Arg.(value & opt (some string) None & info [ "pid-file" ] ~docv:"FILE" ~doc)
  in
  let backoff_base_arg =
    let doc = "Initial restart backoff in seconds (doubles per crash in the window)." in
    Arg.(value & opt float 0.1 & info [ "backoff-base" ] ~docv:"SECONDS" ~doc)
  in
  let backoff_max_arg =
    let doc = "Backoff ceiling in seconds." in
    Arg.(value & opt float 5.0 & info [ "backoff-max" ] ~docv:"SECONDS" ~doc)
  in
  let crash_window_arg =
    let doc = "Sliding window in seconds for the crash-loop circuit breaker." in
    Arg.(value & opt float 30.0 & info [ "crash-window" ] ~docv:"SECONDS" ~doc)
  in
  let max_crashes_arg =
    let doc = "Crashes tolerated inside the window before the breaker opens." in
    Arg.(value & opt int 5 & info [ "max-crashes" ] ~docv:"N" ~doc)
  in
  let run obs socket wal standby pid_file backoff_base backoff_max crash_window
      max_crashes sp_serve =
    with_obs obs @@ fun () ->
    if backoff_base < 0. || backoff_max < 0. then begin
      Printf.eprintf "supervise: backoff values must be >= 0\n";
      exit exit_usage
    end;
    if max_crashes < 0 then begin
      Printf.eprintf "supervise: --max-crashes must be >= 0\n";
      exit exit_usage
    end;
    supervise_main
      {
        sp_serve;
        sp_socket = socket;
        sp_wal = wal;
        sp_standby = standby;
        sp_pid_file = pid_file;
        sp_backoff_base = backoff_base;
        sp_backoff_max = backoff_max;
        sp_crash_window = crash_window;
        sp_max_crashes = max_crashes;
      }
  in
  let term =
    Term.(
      const run $ obs_term $ socket_arg $ wal_arg $ standby_arg $ pid_file_arg
      $ backoff_base_arg $ backoff_max_arg $ crash_window_arg $ max_crashes_arg
      $ daemon_term)
  in
  Cmd.v
    (Cmd.info "supervise" ~exits
       ~doc:
         "Run $(b,capsim serve --listen) under supervision: the daemon is forked, \
          restarted with exponential backoff when it crashes, and guarded by a \
          crash-loop circuit breaker. With $(b,--standby) a second daemon tails \
          the WAL and is promoted in place of a cold restart when the primary \
          dies. Exits 0 when the daemon finishes cleanly, 1 when the breaker \
          opens, 2 on unrecoverable configuration.")
    term

(* ------------------------------------------------------------------ *)
(* torture                                                             *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let make_temp_dir prefix =
  let base = Filename.get_temp_dir_name () in
  let rec go n =
    let path =
      Filename.concat base
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) n)
    in
    match Unix.mkdir path 0o700 with
    | () -> path
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (n + 1)
  in
  go 0

let torture_cmd =
  let rate_arg =
    let doc = "Mean event rate of the generated stream, events/s." in
    Arg.(value & opt float 2_000. & info [ "rate" ] ~docv:"EVENTS/S" ~doc)
  in
  let duration_arg =
    let doc = "Stream length in seconds of stream time." in
    Arg.(value & opt float 1. & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let kills_arg =
    let doc = "SIGKILLs delivered to the primary, evenly spaced over the stream." in
    Arg.(value & opt int 2 & info [ "kills" ] ~docv:"N" ~doc)
  in
  let no_standby_arg =
    let doc =
      "Exercise the cold-restart path (WAL replay) instead of hot-standby \
       failover."
    in
    Arg.(value & flag & info [ "no-standby" ] ~doc)
  in
  let keep_arg =
    let doc = "Keep the work directory (WAL, reference stream, artifacts)." in
    Arg.(value & flag & info [ "keep" ] ~doc)
  in
  let disk_faults_arg =
    let doc =
      "In-process disk-fault torture instead of the SIGKILL suite: run the \
       stream against a WAL on an in-memory filesystem, then replay recovery \
       from every prefix of the injected write stream, from byte-granular cuts \
       inside each write, and from scheduled EIO/ENOSPC/short-write/\
       fsync-failure/power-cut faults — failing unless every recovered \
       response stream is a byte-prefix of the uninterrupted run's."
    in
    Arg.(value & flag & info [ "disk-faults" ] ~doc)
  in
  let net_faults_arg =
    let doc =
      "In-process network-fault torture instead of the SIGKILL suite: serve \
       the stream over the deterministic $(b,Net.Sim) fabric to well-behaved \
       clients with a seeded mix of adversaries attached (slowloris \
       tricklers, stallers, malformed-line flooders, mid-line resetters, \
       stalled slow consumers, oversized-line senders) — failing unless \
       every well-behaved client's byte stream is identical to an \
       undisturbed reference run, every adversary is evicted with the \
       expected typed reason, and the reactor never blocks past its idle \
       deadline."
    in
    Arg.(value & flag & info [ "net-faults" ] ~doc)
  in
  let net_clients_arg =
    let doc =
      "Well-behaved clients the stream is split across ($(b,--net-faults) \
       mode)."
    in
    Arg.(value & opt int 4 & info [ "net-clients" ] ~docv:"N" ~doc)
  in
  let net_adversaries_arg =
    let doc = "Hostile connections attached in $(b,--net-faults) mode." in
    Arg.(value & opt int 6 & info [ "net-adversaries" ] ~docv:"N" ~doc)
  in
  let dir_arg =
    let doc = "Work directory (default: a fresh one under TMPDIR)." in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let run obs scenario seed rate duration kills no_standby fsync_every keep dir
      disk_faults segment_bytes net_faults net_clients net_adversaries =
    with_obs obs @@ fun () ->
    Cap_obs.Control.enable ();
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "torture: %s\n%!" m;
          exit exit_usage)
        fmt
    in
    if kills < 0 then fail "--kills must be >= 0";
    if disk_faults && net_faults then
      fail "pick at most one of --disk-faults and --net-faults";
    let gen_config =
      { Loadgen.default_config with rate; duration; emit_time = true }
    in
    (match Loadgen.validate gen_config with
    | Ok () -> ()
    | Error m -> fail "%s" m);
    let dir =
      match dir with
      | Some d ->
          (try Unix.mkdir d 0o700
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          d
      | None -> make_temp_dir "capsim-torture"
    in
    let in_dir f = Filename.concat dir f in
    let socket = in_dir "daemon.sock" in
    let wal = in_dir "daemon.wal" in
    let pid_file = in_dir "primary.pid" in
    let reference_file = in_dir "reference.txt" in
    let stream_file = in_dir "stream.txt" in
    let notation = Scenario.notation scenario in
    (* --- the prepared event stream (hello/end stripped: the client
       frames its own) --- *)
    let rng = Rng.create ~seed in
    let world = World.generate rng scenario in
    let events_rng = Rng.split rng in
    let lines = ref [] in
    let events =
      Loadgen.run events_rng ~world ~world_seed:seed gen_config ~emit:(function
        | Proto.Hello _ | Proto.End | Proto.Resume _ -> ()
        | Proto.Time at -> lines := Proto.format_time at :: !lines
        | Proto.Event event -> lines := Proto.format_event event :: !lines)
    in
    let lines = List.rev !lines in
    (* keep the exact request stream on disk so a FAIL is replayable
       from the artifacts alone *)
    let write_stream_artifact lines =
      Out_channel.with_open_bin stream_file (fun out ->
          List.iter
            (fun l ->
              output_string out l;
              output_char out '\n')
            (Proto.format_hello ~scenario:notation ~seed :: lines))
    in
    (* hello -> engine with the world + bootstrap assignment memoized:
       in-process torture re-resolves the same hello on every recovery
       (disk faults) or daemon pass (net faults), and Engine.create
       copies its inputs, so each resolve still gets a fresh engine *)
    let resolve =
      let cache = Hashtbl.create 4 in
      fun ~scenario ~seed ->
        let bootstrap =
          match Hashtbl.find_opt cache (scenario, seed) with
          | Some r -> r
          | None ->
              let r =
                serve_bootstrap ~algorithm:default_serve_params.sv_algorithm ~scenario
                  ~seed
              in
              Hashtbl.add cache (scenario, seed) r;
              r
        in
        let* world, assignment = bootstrap in
        Ok (Engine.create ~world ~assignment (engine_config default_serve_params))
    in
    (* every mode ends here: PASS drops the work dir unless --keep, FAIL
       always keeps it *)
    let finish = function
      | Ok (summary, details) ->
          Printf.eprintf "torture: PASS — %s\n%!" summary;
          List.iter (Printf.eprintf "torture: %s\n%!") details;
          if not keep then rm_rf dir
          else Printf.eprintf "torture: artifacts kept in %s\n%!" dir;
          0
      | Error failures ->
          List.iter (Printf.eprintf "torture: FAIL — %s\n%!") failures;
          Printf.eprintf "torture: artifacts kept in %s\n%!" dir;
          exit_violation
    in
    if disk_faults then begin
      write_stream_artifact lines;
      (* in-process every-prefix torture over an in-memory filesystem —
         no forks, no real disk; the heavy lifting is {!Disk_torture} *)
      let hello = Proto.format_hello ~scenario:notation ~seed in
      let segment_bytes = Option.value segment_bytes ~default:4096 in
      Printf.eprintf
        "torture: disk faults — %s seed %d, %d lines, %d-byte segments\n%!"
        notation seed (List.length lines + 1) segment_bytes;
      finish
        (match
           Disk_torture.run
             ~log:(fun m -> Printf.eprintf "torture: %s\n%!" m)
             ~segment_bytes ~resolve ~lines:(hello :: lines) ~seed ()
         with
        | Ok r ->
            Ok
              ( Printf.sprintf
                  "every recovery a byte-prefix of the reference (%d journal \
                   prefixes, %d mid-write cuts, %d fault runs: %d degraded, %d \
                   fsync-fatal, %d power cuts)"
                  r.Disk_torture.prefixes_checked r.Disk_torture.cuts_checked
                  r.Disk_torture.fault_runs r.Disk_torture.degraded_runs
                  r.Disk_torture.fsync_fatal r.Disk_torture.power_cut_runs,
                [] )
        | Error m -> Error [ m ])
    end
    else if net_faults then begin
      if net_clients < 1 then fail "--net-clients must be >= 1";
      if net_adversaries < 0 then fail "--net-adversaries must be >= 0";
      write_stream_artifact lines;
      (* in-process adversarial-network torture over the Net.Sim
         fabric — no forks, no real sockets; the heavy lifting is
         {!Net_torture} *)
      Printf.eprintf
        "torture: net faults — %s seed %d, %d lines across %d client(s), %d \
         adversarie(s)\n%!"
        notation seed (List.length lines) net_clients net_adversaries;
      let result =
        Net_torture.run
          ~log:(fun m -> Printf.eprintf "torture: %s\n%!" m)
          {
            Net_torture.resolve;
            scenario = notation;
            seed;
            lines;
            clients = net_clients;
            adversaries = net_adversaries;
          }
      in
      (* always drop the metrics registry next to the stream: on FAIL
         the pair is the replayable CI artifact *)
      Cap_obs.Jsonl.write_metrics (in_dir "net-metrics.jsonl");
      finish
        (match result with
        | Ok r ->
            let evictions =
              r.Net_torture.evictions
              |> List.map (fun (e, n) ->
                     Printf.sprintf "%s=%d" (Daemon_net.eviction_to_string e) n)
              |> String.concat " "
            in
            let rate_of wall =
              if wall > 0. then float_of_int r.Net_torture.events /. wall else 0.
            in
            let a2r = Daemon_net.accept_to_response_histogram () in
            let q pct =
              let v = Cap_obs.Metrics.Histogram.quantile a2r pct in
              if Float.is_finite v then Printf.sprintf "%.0f" (v *. 1e6) else "-"
            in
            Ok
              ( Printf.sprintf
                  "well-behaved streams byte-identical under adversarial load (%d \
                   events, %d numbered responses, %d client bytes; evictions %s, %d \
                   busy; max backend wait %.3fs and max read latency %.3fs within \
                   the %.3fs deadline)"
                  r.Net_torture.events r.Net_torture.responses
                  r.Net_torture.client_bytes evictions r.Net_torture.busy_rejected
                  r.Net_torture.max_wait_requested r.Net_torture.max_read_latency
                  r.Net_torture.idle_timeout,
                Printf.sprintf
                  "reference %.0f events/s (%.3fs), adversarial %.0f events/s \
                   (%.3fs), accept-to-response p50=%sus p99=%sus"
                  (rate_of r.Net_torture.reference_wall_s)
                  r.Net_torture.reference_wall_s
                  (rate_of r.Net_torture.adversarial_wall_s)
                  r.Net_torture.adversarial_wall_s (q 0.5) (q 0.99)
                :: List.map
                     (fun (name, reason) -> Printf.sprintf "  %s closed %s" name reason)
                     r.Net_torture.adversary_closes )
        | Error m -> Error [ m ])
    end
    else begin
    Printf.eprintf "torture: %s seed %d — %d events (%d lines), %d kill(s), %s\n%!"
      notation seed events (List.length lines) kills
      (if no_standby then "cold restart" else "hot standby");
    (* --- reference run: the uninterrupted response stream. Forked so
       the solver's Cap_par domains never exist in this process, which
       must keep forking cleanly afterwards. --- *)
    write_stream_artifact (lines @ [ Proto.format_end ]);
    let reference_params =
      {
        default_serve_params with
        sv_stdin = true;
        sv_fsync_every = fsync_every;
      }
    in
    let ref_pid =
      fork_run ~name:"torture reference" (fun () ->
          let input = open_in_bin stream_file in
          let output = open_out_bin reference_file in
          Unix.dup2 (Unix.descr_of_in_channel input) Unix.stdin;
          Unix.dup2 (Unix.descr_of_out_channel output) Unix.stdout;
          serve_main reference_params)
    in
    (match Unix.waitpid [] ref_pid with
    | _, Unix.WEXITED 0 -> ()
    | _, status ->
        let describe = function
          | Unix.WEXITED c -> Printf.sprintf "exited %d" c
          | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
          | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
        in
        fail "reference run failed (%s)" (describe status));
    let reference =
      In_channel.with_open_bin reference_file (fun ic ->
          let rec go acc =
            match In_channel.input_line ic with
            | Some l -> go (l :: acc)
            | None -> List.rev acc
          in
          go [])
    in
    (* --- the supervised service --- *)
    let supervise_params =
      {
        sp_serve =
          {
            default_serve_params with
            sv_fsync_every = fsync_every;
            sv_segment_bytes = segment_bytes;
          };
        sp_socket = socket;
        sp_wal = wal;
        sp_standby = not no_standby;
        sp_pid_file = Some pid_file;
        sp_backoff_base = 0.02;
        sp_backoff_max = 0.5;
        sp_crash_window = 60.0;
        sp_max_crashes = kills + 3;
      }
    in
    let sup_pid =
      fork_run ~name:"torture supervisor" (fun () -> supervise_main supervise_params)
    in
    (* --- the client, with a SIGKILL schedule riding on received lines --- *)
    let total = List.length reference in
    let thresholds =
      List.init kills (fun i -> total * (i + 1) / (kills + 1))
    in
    let received = ref 0 in
    let fired = ref 0 in
    let last_killed = ref (-1) in
    let read_pid () =
      match In_channel.with_open_bin pid_file In_channel.input_all with
      | s -> int_of_string_opt (String.trim s)
      | exception Sys_error _ -> None
    in
    let maybe_kill () =
      if !fired < kills && !received >= List.nth thresholds !fired then
        match read_pid () with
        | Some pid when pid <> !last_killed -> (
            match Unix.kill pid Sys.sigkill with
            | () ->
                last_killed := pid;
                incr fired;
                Printf.eprintf "torture: SIGKILL primary pid %d at response %d\n%!"
                  pid !received
            | exception Unix.Unix_error _ -> ())
        | _ -> ()
    in
    (* Pace the sends: the reactor drains a socket-buffered stream in
       a handful of polls, so an unthrottled client would have every
       response already in flight before it reads the first one — and
       the response-count-triggered SIGKILLs would land after the WAL
       is already complete, proving nothing. A short breath every few
       lines keeps the daemon's progress in step with the client's
       observed responses, so kills interrupt genuine mid-stream
       state. *)
    let sent = ref 0 in
    let connect () =
      match Client.unix_connect ~path:socket () with
      | Error _ as e -> e
      | Ok t ->
          Ok
            {
              t with
              Client.send_line =
                (fun line ->
                  t.Client.send_line line;
                  incr sent;
                  if !sent mod 16 = 0 then Unix.sleepf 0.001);
              Client.recv_line =
                (fun () ->
                  match t.Client.recv_line () with
                  | Some _ as r ->
                      incr received;
                      maybe_kill ();
                      r
                  | None -> None);
            }
    in
    let client_config =
      Client.make_config ~max_attempts:200 ~max_episodes:(kills * 4 + 8)
        ~backoff_base:0.005 ~backoff_max:0.2 ~connect ~scenario:notation ~seed
        ~rng:(Rng.split rng) ()
    in
    let outcome = Client.run client_config ~lines in
    let cleanup_failed () =
      (match read_pid () with
      | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | None -> ());
      (try Unix.kill sup_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] sup_pid)
    in
    finish
      (match outcome with
      | Error m ->
          cleanup_failed ();
          Error [ "client gave up: " ^ m ]
      | Ok outcome ->
          (* The supervisor exits once its daemon drains the [end]; a
             daemon that never does would wedge the harness, so the wait
             is bounded — on timeout everything is killed and the run is
             reported as a failure instead of hanging. *)
          let sup_status =
            let deadline = Unix.gettimeofday () +. 30. in
            let rec wait () =
              match Unix.waitpid [ Unix.WNOHANG ] sup_pid with
              | 0, _ ->
                  if Unix.gettimeofday () > deadline then begin
                    Printf.eprintf
                      "torture: supervisor still alive 30s after the client \
                       finished; killing it\n%!";
                    cleanup_failed ();
                    -1
                  end
                  else begin
                    Unix.sleepf 0.05;
                    wait ()
                  end
              | _, Unix.WEXITED c -> c
              | _, _ -> -1
            in
            wait ()
          in
          Cap_obs.Jsonl.write_metrics (in_dir "client-metrics.jsonl");
          let recovery = Client.recovery_histogram () in
          let q p =
            let v = Cap_obs.Metrics.Histogram.quantile recovery p in
            if Float.is_finite v then Printf.sprintf "%.0fms" (v *. 1e3) else "-"
          in
          (* --- the proof: byte-for-byte equality with the unbroken run --- *)
          let rec first_divergence i ref_lines got_lines =
            match ref_lines, got_lines with
            | [], [] -> None
            | r :: _, [] -> Some (i, r, "<missing>")
            | [], g :: _ -> Some (i, "<end of reference>", g)
            | r :: rt, g :: gt ->
                if String.equal r g then first_divergence (i + 1) rt gt
                else Some (i, r, g)
          in
          let divergence = first_divergence 0 reference outcome.Client.responses in
          Printf.eprintf
            "torture: %d/%d responses, %d reconnect(s), %d kill(s) fired, %d err \
             line(s), supervisor exited %d, recovery p50=%s p95=%s max=%s\n%!"
            (List.length outcome.Client.responses)
            total outcome.Client.reconnects !fired
            (List.length outcome.Client.errors)
            sup_status (q 0.5) (q 0.95) (q 1.0);
          let failures =
            List.filter_map Fun.id
              [
                Option.map
                  (fun (i, want, got) ->
                    Printf.sprintf
                      "stream diverges at response %d:\n  reference: %s\n  observed:  %s"
                      i want got)
                  divergence;
                (if !fired <> kills then
                   Some (Printf.sprintf "only %d/%d kills fired" !fired kills)
                 else None);
                (if outcome.Client.errors <> [] then
                   Some
                     ("daemon answered err: " ^ String.concat "; " outcome.Client.errors)
                 else None);
                (if sup_status <> 0 then
                   Some (Printf.sprintf "supervisor exited %d" sup_status)
                 else None);
              ]
          in
          if failures = [] then
            Ok ("client stream is byte-identical to the uninterrupted run", [])
          else Error failures)
    end
  in
  let term =
    Term.(
      const run $ obs_term $ scenario_arg $ seed_arg $ rate_arg $ duration_arg
      $ kills_arg $ no_standby_arg $ fsync_every_arg $ keep_arg $ dir_arg
      $ disk_faults_arg $ segment_bytes_arg $ net_faults_arg $ net_clients_arg
      $ net_adversaries_arg)
  in
  Cmd.v
    (Cmd.info "torture" ~exits
       ~doc:
         "Crash-recovery proof: run a supervised daemon, drive a seeded loadgen \
          stream through the reconnecting client, SIGKILL the primary at seeded \
          points mid-stream, and verify the client-observed response stream is \
          byte-for-byte identical to an uninterrupted run. Reports client-side \
          recovery-time percentiles. $(b,--disk-faults) swaps in the in-process \
          disk-fault suite (every-prefix WAL recovery); $(b,--net-faults) swaps \
          in the adversarial-network suite (hostile peers on the simulated \
          fabric must not perturb well-behaved streams). Exits 0 on an exact \
          match, 1 on divergence or lost kills.")
    term

(* ------------------------------------------------------------------ *)
(* validate                                                            *)

let validate_cmd =
  let trace_csv_arg =
    let doc = "Also validate this trace CSV (as written by $(b,--trace-csv))." in
    Arg.(value & opt (some string) None & info [ "trace-csv" ] ~docv:"FILE" ~doc)
  in
  let snapshot_arg =
    let doc = "Also validate this snapshot file (envelope, checksum and payload)." in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let wal_arg =
    let doc =
      "Also report the health of this write-ahead log: record count, and whether \
       the tail is clean, torn (recoverable — a crash mid-append), or the log is \
       corrupted mid-stream (unrecoverable)."
    in
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"FILE" ~doc)
  in
  let run obs config seed trace_csv snapshot wal =
    with_obs obs @@ fun () ->
    let problem = ref false in
    (match Validate.scenario_notation config with
    | Error issue ->
        problem := true;
        Printf.eprintf "scenario %s: %s\n" config (Validate.describe issue)
    | Ok scenario -> (
        Printf.printf "scenario %s: ok\n" (Scenario.notation scenario);
        let rng = Rng.create ~seed in
        let world = World.generate rng scenario in
        match Validate.world world with
        | [] ->
            Printf.printf
              "world (seed %d): ok — %d servers, %d zones, %d clients, fingerprint %s\n"
              seed (World.server_count world) (World.zone_count world)
              (Array.length world.World.client_nodes)
              (Sim_run.fingerprint world)
        | issues ->
            problem := true;
            List.iter
              (fun i -> Printf.eprintf "world (seed %d): %s\n" seed (Validate.describe i))
              issues));
    (match trace_csv with
    | None -> ()
    | Some file -> (
        match In_channel.with_open_bin file In_channel.input_all with
        | csv -> (
            match Cap_sim.Trace.parse_csv csv with
            | Ok trace ->
                Printf.printf "trace %s: ok — %d samples\n" file
                  (List.length (Cap_sim.Trace.points trace))
            | Error e ->
                problem := true;
                Printf.eprintf "trace %s: %s\n" file (Cap_sim.Trace.describe_error e))
        | exception Sys_error reason ->
            problem := true;
            Printf.eprintf "trace %s: %s\n" file reason));
    (match snapshot with
    | None -> ()
    | Some file -> (
        match Sim_run.load ~path:file with
        | Ok snap ->
            Printf.printf "snapshot %s: ok — %s\n" file (Sim_run.describe snap)
        | Error (Envelope.Wrong_kind _) -> (
            (* not a sim/chaos snapshot; try the service-daemon kind *)
            match Service_run.load ~path:file with
            | Ok snap ->
                Printf.printf "snapshot %s: ok — %s\n" file (Service_run.describe snap)
            | Error e ->
                problem := true;
                Printf.eprintf "snapshot %s: %s\n" file (Envelope.describe e))
        | Error e ->
            problem := true;
            Printf.eprintf "snapshot %s: %s\n" file (Envelope.describe e)));
    (match wal with
    | None -> ()
    | Some file -> (
        match Wal.read_log ~path:file () with
        | Ok info ->
            let layout =
              match info.Wal.li_segments with
              | [] -> ""
              | segs ->
                  Printf.sprintf " across %d segment(s)%s" (List.length segs)
                    (if info.Wal.li_base > 0 then
                       Printf.sprintf
                         " (gc'd: oldest surviving record %d, replay needs \
                          the anchoring checkpoint)"
                         info.Wal.li_base
                     else "")
            in
            let records = List.length info.Wal.li_records in
            (match info.Wal.li_tail with
            | Wal.Clean ->
                Printf.printf "wal %s: ok — %d records%s, clean tail\n" file
                  records layout
            | Wal.Torn reason ->
                Printf.printf
                  "wal %s: ok — %d records%s, torn tail (%s); recoverable, the \
                   tail is truncated on the next open\n"
                  file records layout reason)
        | Error e ->
            problem := true;
            Printf.eprintf "wal %s: %s\n" file (Wal.describe_read_error e)));
    if !problem then exit_usage else 0
  in
  let term =
    Term.(
      const run $ obs_term
      $ Arg.(value & opt string default_config & config_info)
      $ seed_arg $ trace_csv_arg $ snapshot_arg
      $ wal_arg)
  in
  Cmd.v
    (Cmd.info "validate" ~exits
       ~doc:
         "Validate inputs without running anything: scenario notation and the world it \
          generates, and optionally a trace CSV and a snapshot file. Exits 0 when \
          everything is well-formed, 2 otherwise, with one structured diagnostic line \
          per problem.")
    term

let () =
  let doc = "client-to-server assignment for distributed virtual environments" in
  let info = Cmd.info "capsim" ~version:version_string ~doc ~exits in
  let group =
    Cmd.group info
      [
        report_cmd; run_cmd; compare_cmd; optimal_cmd; plan_cmd; sim_cmd; chaos_cmd;
        resume_cmd; serve_cmd; supervise_cmd; torture_cmd; loadgen_cmd; validate_cmd;
        plots_cmd;
      ]
  in
  (* ~catch:false + the handler below: user errors anywhere in the stack
     surface as one diagnostic line and the usage exit code, never a raw
     backtrace. cmdliner's own CLI parse failures (cli_error = 124) are
     folded into the same convention. *)
  let code =
    (* a wide margin keeps each parse diagnostic on one line *)
    let err = Format.formatter_of_out_channel stderr in
    Format.pp_set_margin err 10_000;
    try Cmd.eval' ~catch:false ~err group with
    | Invalid_argument m | Failure m | Sys_error m ->
        Printf.eprintf "capsim: %s\n" m;
        exit_usage
    | Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "capsim: %s%s: %s\n" fn
          (if arg = "" then "" else " " ^ arg)
          (Unix.error_message e);
        exit_usage
  in
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
