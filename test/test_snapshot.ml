module Rng = Cap_util.Rng
module Scenario = Cap_model.Scenario
module World = Cap_model.World
module Fault = Cap_faults.Fault
module Dve_sim = Cap_sim.Dve_sim
module Trace = Cap_sim.Trace
module Policy = Cap_sim.Policy
module Envelope = Cap_snapshot.Envelope
module Sim_run = Cap_snapshot.Sim_run

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let with_temp_file f =
  let path = Filename.temp_file "cap_snapshot_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* envelope                                                            *)

let kind = "test-kind"

let test_envelope_roundtrip () =
  with_temp_file @@ fun path ->
  let payload = "some \x00 binary \xff payload" in
  (match Envelope.write ~path ~kind payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Envelope.describe e));
  match Envelope.read ~path ~kind with
  | Ok p -> Alcotest.(check string) "payload preserved" payload p
  | Error e -> Alcotest.failf "read failed: %s" (Envelope.describe e)

let test_envelope_overwrite () =
  with_temp_file @@ fun path ->
  ignore (Envelope.write ~path ~kind "first");
  ignore (Envelope.write ~path ~kind "second");
  match Envelope.read ~path ~kind with
  | Ok p -> Alcotest.(check string) "latest wins" "second" p
  | Error e -> Alcotest.failf "read failed: %s" (Envelope.describe e)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun o -> Out_channel.output_string o s)

let test_envelope_truncated () =
  with_temp_file @@ fun path ->
  ignore (Envelope.write ~path ~kind "a payload long enough to truncate");
  let raw = read_file path in
  (* every proper prefix must read back as Truncated (or Not_a_snapshot
     for prefixes shorter than the magic) *)
  List.iter
    (fun keep ->
      write_file path (String.sub raw 0 keep);
      match Envelope.read ~path ~kind with
      | Error (Envelope.Truncated _) | Error (Envelope.Not_a_snapshot _) -> ()
      | Ok _ -> Alcotest.failf "accepted a %d-byte prefix" keep
      | Error e ->
          Alcotest.failf "prefix %d: unexpected error %s" keep (Envelope.describe e))
    [ 0; 4; 8; 10; String.length raw / 2; String.length raw - 1 ]

let test_envelope_corrupted () =
  with_temp_file @@ fun path ->
  ignore (Envelope.write ~path ~kind "payload that will be corrupted in place");
  let raw = read_file path in
  let flipped = Bytes.of_string raw in
  let i = String.length raw - 3 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0xff));
  write_file path (Bytes.to_string flipped);
  (match Envelope.read ~path ~kind with
  | Error (Envelope.Corrupted _) -> ()
  | Ok _ -> Alcotest.fail "accepted a corrupted payload"
  | Error e -> Alcotest.failf "unexpected error: %s" (Envelope.describe e));
  (* trailing garbage is also corruption *)
  write_file path (raw ^ "x");
  match Envelope.read ~path ~kind with
  | Error (Envelope.Corrupted _) -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error e -> Alcotest.failf "unexpected error: %s" (Envelope.describe e)

let test_envelope_not_a_snapshot () =
  with_temp_file @@ fun path ->
  write_file path "definitely not a capsim snapshot, but long enough to read";
  match Envelope.read ~path ~kind with
  | Error (Envelope.Not_a_snapshot _) -> ()
  | Ok _ -> Alcotest.fail "accepted junk"
  | Error e -> Alcotest.failf "unexpected error: %s" (Envelope.describe e)

let test_envelope_wrong_kind () =
  with_temp_file @@ fun path ->
  ignore (Envelope.write ~path ~kind:"other-kind" "payload");
  match Envelope.read ~path ~kind with
  | Error (Envelope.Wrong_kind { found = "other-kind"; _ }) -> ()
  | Ok _ -> Alcotest.fail "accepted the wrong kind"
  | Error e -> Alcotest.failf "unexpected error: %s" (Envelope.describe e)

let test_envelope_missing_file () =
  match Envelope.read ~path:"/nonexistent/capsim.snap" ~kind with
  | Error (Envelope.Io_error _) -> ()
  | Ok _ -> Alcotest.fail "read a nonexistent file"
  | Error e -> Alcotest.failf "unexpected error: %s" (Envelope.describe e)

let test_envelope_atomic_write () =
  with_temp_file @@ fun path ->
  ignore (Envelope.write ~path ~kind "the good snapshot");
  (* force the next write to fail mid-flight: its temp file path is
     occupied by a directory, so open_out_bin raises Sys_error *)
  let tmp = path ^ ".tmp" in
  Sys.mkdir tmp 0o755;
  Fun.protect
    ~finally:(fun () -> try Sys.rmdir tmp with Sys_error _ -> ())
    (fun () ->
      (match Envelope.write ~path ~kind "the replacement" with
      | Error (Envelope.Io_error _) -> ()
      | Ok () -> Alcotest.fail "write succeeded through a directory"
      | Error e -> Alcotest.failf "unexpected error: %s" (Envelope.describe e));
      match Envelope.read ~path ~kind with
      | Ok p -> Alcotest.(check string) "previous snapshot intact" "the good snapshot" p
      | Error e -> Alcotest.failf "previous snapshot damaged: %s" (Envelope.describe e))

let test_envelope_no_tmp_left_behind () =
  with_temp_file @@ fun path ->
  ignore (Envelope.write ~path ~kind "payload");
  Alcotest.(check bool) "tmp removed" false (Sys.file_exists (path ^ ".tmp"))

(* ------------------------------------------------------------------ *)
(* deterministic resume                                                *)

let scenario_notation = "8s-32z-200c-400cp"

let make_world seed =
  World.generate (Rng.create ~seed) (Scenario.of_notation scenario_notation)

let algorithm = Option.get (Cap_core.Two_phase.find "GreZ-GreC")

let sim_config =
  {
    Dve_sim.default_config with
    duration = 300.;
    policy = Policy.Periodic 60.;
    flash_crowd = Some { Dve_sim.at = 130.; fraction = 0.5; target_zone = None };
  }

let chaos_config =
  {
    Dve_sim.default_config with
    duration = 300.;
    policy = Policy.Periodic 60.;
    failover_moves = 8;
    faults =
      [
        { Fault.at = 50.; event = Fault.Crash 2 };
        { Fault.at = 90.; event = Fault.Degrade { server = 0; delay_penalty = 25. } };
        { Fault.at = 150.; event = Fault.Recover 2 };
      ];
  }

(* Run to completion while stashing every scheduled checkpoint. *)
let run_with_checkpoints config seed =
  let captured = ref [] in
  let hook =
    {
      Dve_sim.every = Some 60.;
      request = (fun () -> false);
      write = (fun ~reason:_ ck -> captured := ck :: !captured);
    }
  in
  let outcome = Dve_sim.run ~checkpoint:hook (Rng.create ~seed) config ~world:(make_world seed) ~algorithm in
  (outcome, List.rev !captured)

let check_resume_deterministic config seed =
  let reference, checkpoints = run_with_checkpoints config seed in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d captured checkpoints" seed)
    true
    (List.length checkpoints >= 3);
  List.iteri
    (fun i ck ->
      (* a fresh world, as capsim resume rebuilds it *)
      let resumed = Dve_sim.resume config ~world:(make_world seed) ~algorithm ck in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d ck %d: trace identical (t=%.0f)" seed i
           (Dve_sim.checkpoint_time ck))
        true
        (Trace.points resumed.Dve_sim.trace = Trace.points reference.Dve_sim.trace);
      Alcotest.(check int)
        (Printf.sprintf "seed %d ck %d: reassignments" seed i)
        reference.Dve_sim.reassignments resumed.Dve_sim.reassignments)
    checkpoints

let test_sim_resume_deterministic () =
  List.iter (check_resume_deterministic sim_config) [ 1; 2; 3 ]

let test_chaos_resume_deterministic () =
  List.iter (check_resume_deterministic chaos_config) [ 1; 2; 3 ]

let test_chaos_resume_fault_report () =
  (* resuming before the first fault reproduces the full fault report *)
  let seed = 4 in
  let reference, checkpoints = run_with_checkpoints chaos_config seed in
  let first = List.hd checkpoints in
  let resumed = Dve_sim.resume chaos_config ~world:(make_world seed) ~algorithm first in
  let strip (r : Dve_sim.fault_report) =
    (r.crashes, r.recoveries, r.degradations, r.failovers, r.shed_peak, r.episodes)
  in
  Alcotest.(check bool)
    "fault reports agree" true
    (strip reference.Dve_sim.faults = strip resumed.Dve_sim.faults)

let test_interrupt_and_resume () =
  (* stop mid-run via the request hook (the SIGTERM path), then resume
     from the final requested checkpoint and match the uninterrupted
     reference *)
  let seed = 9 in
  let reference = Dve_sim.run (Rng.create ~seed) sim_config ~world:(make_world seed) ~algorithm in
  let final = ref None in
  let events = ref 0 in
  let hook =
    {
      Dve_sim.every = None;
      request =
        (fun () ->
          incr events;
          !events > 500);
      write =
        (fun ~reason ck ->
          Alcotest.(check bool) "reason is Requested" true (reason = Dve_sim.Requested);
          final := Some ck);
    }
  in
  let interrupted =
    Dve_sim.run ~checkpoint:hook (Rng.create ~seed) sim_config ~world:(make_world seed)
      ~algorithm
  in
  Alcotest.(check bool) "flagged interrupted" true interrupted.Dve_sim.interrupted;
  Alcotest.(check bool) "reference not interrupted" false reference.Dve_sim.interrupted;
  match !final with
  | None -> Alcotest.fail "no checkpoint written on request"
  | Some ck ->
      Alcotest.(check bool)
        "stopped strictly mid-run" true
        (Dve_sim.checkpoint_time ck < sim_config.Dve_sim.duration);
      let resumed = Dve_sim.resume sim_config ~world:(make_world seed) ~algorithm ck in
      Alcotest.(check bool) "resumed to completion" false resumed.Dve_sim.interrupted;
      Alcotest.(check bool)
        "trace identical" true
        (Trace.points resumed.Dve_sim.trace = Trace.points reference.Dve_sim.trace)

let test_resume_world_mismatch () =
  let _, checkpoints = run_with_checkpoints sim_config 1 in
  let other_world =
    World.generate (Rng.create ~seed:1) (Scenario.of_notation "6s-32z-150c-400cp")
  in
  match Dve_sim.resume sim_config ~world:other_world ~algorithm (List.hd checkpoints) with
  | _ -> Alcotest.fail "resumed against the wrong world"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* sim_run save/load                                                   *)

let spec_for seed world =
  {
    Sim_run.command = Sim_run.Sim;
    scenario = scenario_notation;
    seed;
    algorithm = "GreZ-GreC";
    buckets = None;
    duration = sim_config.Dve_sim.duration;
    policy = sim_config.Dve_sim.policy;
    roam = false;
    flash = sim_config.Dve_sim.flash_crowd;
    diurnal_amplitude = None;
    faults = [];
    failover_moves = sim_config.Dve_sim.failover_moves;
    world_fingerprint = Sim_run.fingerprint world;
  }

let test_sim_run_roundtrip () =
  with_temp_file @@ fun path ->
  let seed = 2 in
  let reference, checkpoints = run_with_checkpoints sim_config seed in
  let ck = List.nth checkpoints 1 in
  let snapshot = { Sim_run.spec = spec_for seed (make_world seed); state = ck } in
  (match Sim_run.save ~path snapshot with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" (Envelope.describe e));
  match Sim_run.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" (Envelope.describe e)
  | Ok loaded ->
      Alcotest.(check bool) "spec preserved" true (loaded.Sim_run.spec = snapshot.Sim_run.spec);
      Alcotest.(check string)
        "rng state preserved"
        (Dve_sim.checkpoint_rng_state ck)
        (Dve_sim.checkpoint_rng_state loaded.Sim_run.state);
      (* the strongest check: resuming from the marshalled-and-back
         checkpoint reproduces the reference run exactly *)
      let resumed =
        Dve_sim.resume sim_config ~world:(make_world seed) ~algorithm
          loaded.Sim_run.state
      in
      Alcotest.(check bool)
        "resume from disk identical" true
        (Trace.points resumed.Dve_sim.trace = Trace.points reference.Dve_sim.trace)

let test_fingerprint_sensitivity () =
  let w1 = make_world 1 in
  Alcotest.(check string)
    "fingerprint is a function of the world"
    (Sim_run.fingerprint w1)
    (Sim_run.fingerprint (make_world 1));
  Alcotest.(check bool)
    "different seed, different fingerprint" true
    (Sim_run.fingerprint w1 <> Sim_run.fingerprint (make_world 2));
  let w = make_world 1 in
  (* one ulp: %h is exact, so even the smallest representable change shows *)
  w.World.capacities.(0) <- Float.succ w.World.capacities.(0);
  Alcotest.(check bool)
    "one-ulp capacity change changes the fingerprint" true
    (Sim_run.fingerprint w1 <> Sim_run.fingerprint w)

(* ------------------------------------------------------------------ *)
(* the CLI's path: config and solver derived from the spec              *)

let spec_of ?(command = Sim_run.Sim) ?buckets ?(roam = false) ?flash ?diurnal_amplitude
    ?(faults = []) seed =
  {
    Sim_run.command;
    scenario = scenario_notation;
    seed;
    algorithm = "GreZ-GreC";
    buckets;
    duration = 300.;
    policy = Policy.Periodic 60.;
    roam;
    flash;
    diurnal_amplitude;
    faults;
    failover_moves = 8;
    world_fingerprint = Sim_run.fingerprint (make_world seed);
  }

let solver spec =
  match Sim_run.solver spec with Ok a -> a | Error m -> Alcotest.fail m

(* As capsim sim/chaos set a run up: seeded RNG, world, then the
   spec's config (which may draw the diurnal model from the RNG). *)
let run_spec ?checkpoint ~algorithm spec =
  let rng = Rng.create ~seed:spec.Sim_run.seed in
  let world = make_world spec.Sim_run.seed in
  Dve_sim.run ?checkpoint rng (Sim_run.config spec rng world) ~world ~algorithm

(* Checkpoint the run, save + load every checkpoint, and resume it as
   capsim resume does: the config and solver come from the loaded spec. *)
let check_spec_resume spec =
  let captured = ref [] in
  let hook =
    {
      Dve_sim.every = Some 100.;
      request = (fun () -> false);
      write = (fun ~reason:_ ck -> captured := ck :: !captured);
    }
  in
  let reference = run_spec ~checkpoint:hook ~algorithm:(solver spec) spec in
  Alcotest.(check bool) "captured checkpoints" true (List.length !captured >= 2);
  List.iter
    (fun ck ->
      with_temp_file @@ fun path ->
      (match Sim_run.save ~path { Sim_run.spec; state = ck } with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save failed: %s" (Envelope.describe e));
      match Sim_run.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" (Envelope.describe e)
      | Ok { Sim_run.spec = loaded; state } ->
          Alcotest.(check bool) "spec preserved" true (loaded = spec);
          let rng = Rng.create ~seed:loaded.Sim_run.seed in
          let world = make_world loaded.Sim_run.seed in
          let resumed =
            Dve_sim.resume (Sim_run.config loaded rng world) ~world
              ~algorithm:(solver loaded) state
          in
          Alcotest.(check bool)
            (Printf.sprintf "trace identical from t=%.0f" (Dve_sim.checkpoint_time ck))
            true
            (Trace.points resumed.Dve_sim.trace = Trace.points reference.Dve_sim.trace))
    (List.rev !captured);
  reference

let test_spec_resume_sim () =
  ignore
    (check_spec_resume
       (spec_of ~roam:true
          ~flash:{ Dve_sim.at = 130.; fraction = 0.5; target_zone = None }
          ~diurnal_amplitude:0.5 5))

let test_spec_resume_chaos () =
  ignore
    (check_spec_resume
       (spec_of ~command:Sim_run.Chaos ~faults:chaos_config.Dve_sim.faults 6))

let test_spec_resume_aggregated () =
  let spec = spec_of ~buckets:1 7 in
  let reference = check_spec_resume spec in
  (* not vacuous: the per-client solver would give a different trace *)
  let exact = run_spec ~algorithm spec in
  Alcotest.(check bool)
    "aggregated and per-client traces differ" false
    (Trace.points exact.Dve_sim.trace = Trace.points reference.Dve_sim.trace)

(* Every earlier payload layout is refused, not misread: v4 predates
   the aggregated solver's [buckets], v5 the simulator's state record,
   v6 the plain-data event queue, the carried histograms and the
   engine's state record. *)
let test_old_version_refused () =
  with_temp_file @@ fun path ->
  let _, checkpoints = run_with_checkpoints sim_config 1 in
  let snapshot = { Sim_run.spec = spec_of 1; state = List.hd checkpoints } in
  ignore (Sim_run.save ~path snapshot);
  let current = read_file path in
  List.iter
    (fun old ->
      (* the version is the big-endian int32 right after the 8-byte magic *)
      let raw = Bytes.of_string current in
      Bytes.set_int32_be raw 8 (Int32.of_int old);
      write_file path (Bytes.to_string raw);
      match Sim_run.load ~path with
      | Error (Envelope.Unsupported_version { found; expected; _ }) ->
          Alcotest.(check int) "reports the file's version" old found;
          Alcotest.(check int) "expects the current version" Envelope.format_version expected
      | Ok _ -> Alcotest.failf "read a version-%d snapshot at the current payload type" old
      | Error e -> Alcotest.failf "unexpected error: %s" (Envelope.describe e))
    [ 4; 5; 6 ]

(* A resumed run that checkpoints again, resumed once more from its own
   checkpoint, still ends exactly as the uninterrupted run: capsim
   resume keeps checkpointing to the same file, so a run preempted twice
   takes this path. Each hop goes through save and load. *)
let check_chained_resume config seed =
  let reference, hops = run_with_checkpoints config seed in
  let through_disk ck =
    with_temp_file @@ fun path ->
    (match Sim_run.save ~path { Sim_run.spec = spec_of seed; state = ck } with
    | Ok () -> ()
    | Error e -> Alcotest.failf "save failed: %s" (Envelope.describe e));
    match Sim_run.load ~path with
    | Ok loaded -> loaded.Sim_run.state
    | Error e -> Alcotest.failf "load failed: %s" (Envelope.describe e)
  in
  let second = ref [] in
  let hook =
    {
      Dve_sim.every = Some 70.;
      request = (fun () -> false);
      write = (fun ~reason:_ ck -> second := ck :: !second);
    }
  in
  let resumed =
    Dve_sim.resume ~checkpoint:hook config ~world:(make_world seed) ~algorithm
      (through_disk (List.hd hops))
  in
  let last = match !second with ck :: _ -> ck | [] -> Alcotest.fail "no second checkpoint" in
  Alcotest.(check bool)
    "second checkpoint later than the first" true
    (Dve_sim.checkpoint_time last > Dve_sim.checkpoint_time (List.hd hops));
  let chained = Dve_sim.resume config ~world:(make_world seed) ~algorithm (through_disk last) in
  List.iter
    (fun (name, (outcome : Dve_sim.outcome)) ->
      Alcotest.(check bool)
        (name ^ ": trace identical") true
        (Trace.points outcome.Dve_sim.trace = Trace.points reference.Dve_sim.trace);
      Alcotest.(check bool)
        (name ^ ": fault report identical") true
        (outcome.Dve_sim.faults = reference.Dve_sim.faults);
      Alcotest.(check int) (name ^ ": reassignments") reference.Dve_sim.reassignments
        outcome.Dve_sim.reassignments)
    [ ("first resume", resumed); ("second resume", chained) ]

let test_chained_resume () =
  check_chained_resume sim_config 3;
  check_chained_resume chaos_config 4

(* Telemetry is part of the checkpoint: a resumed run that starts from
   zeroed instruments ends with the uninterrupted run's histograms, not
   just its counters. Histogram counts are compared everywhere; the
   simulated-time histograms are compared bucket for bucket (the
   wall-clock ones only agree in count). *)
let test_resume_keeps_histograms () =
  let module Metrics = Cap_obs.Metrics in
  let histograms () =
    List.filter_map
      (fun (s : Metrics.sample) ->
        match s.data with
        | Metrics.Histogram_sample h ->
            let simulated = String.starts_with ~prefix:"faults_" s.name in
            Some (s.name, s.labels, h.count, if simulated then h.counts else [||])
        | Metrics.Counter_sample _ | Metrics.Gauge_sample _ -> None)
      (Metrics.collect ())
  in
  let seed = 4 in
  Cap_obs.Control.enable ();
  Fun.protect
    ~finally:(fun () ->
      Cap_obs.Control.disable ();
      Metrics.reset ())
    (fun () ->
      Metrics.reset ();
      ignore (Dve_sim.run (Rng.create ~seed) chaos_config ~world:(make_world seed) ~algorithm);
      let reference = histograms () in
      Metrics.reset ();
      let _, checkpoints = run_with_checkpoints chaos_config seed in
      (* past the crash, the degradation and the recovery *)
      let ck = List.find (fun ck -> Dve_sim.checkpoint_time ck > 150.) checkpoints in
      Metrics.reset ();
      ignore (Dve_sim.resume chaos_config ~world:(make_world seed) ~algorithm ck);
      let recovered =
        List.exists (fun (name, _, count, _) -> name = "faults_recovery_seconds" && count > 0)
          reference
      in
      Alcotest.(check bool) "the run closes a recovery episode" true recovered;
      Alcotest.(check bool) "histograms equal the uninterrupted run's" true
        (histograms () = reference))

let tests =
  [
    ( "snapshot/envelope",
      [
        case "roundtrip" test_envelope_roundtrip;
        case "overwrite" test_envelope_overwrite;
        case "truncated" test_envelope_truncated;
        case "corrupted" test_envelope_corrupted;
        case "not a snapshot" test_envelope_not_a_snapshot;
        case "wrong kind" test_envelope_wrong_kind;
        case "missing file" test_envelope_missing_file;
        case "atomic write keeps the previous snapshot" test_envelope_atomic_write;
        case "no tmp left behind" test_envelope_no_tmp_left_behind;
        case "old versions refused" test_old_version_refused;
      ] );
    ( "snapshot/resume",
      [
        slow_case "sim resume deterministic (3 seeds)" test_sim_resume_deterministic;
        slow_case "chaos resume deterministic (3 seeds)" test_chaos_resume_deterministic;
        case "chaos resume reproduces the fault report" test_chaos_resume_fault_report;
        case "interrupt via request, then resume" test_interrupt_and_resume;
        case "resume rejects the wrong world" test_resume_world_mismatch;
        case "save/load roundtrip" test_sim_run_roundtrip;
        case "world fingerprint sensitivity" test_fingerprint_sensitivity;
        case "spec config: sim with roam, flash and diurnal" test_spec_resume_sim;
        case "spec config: chaos with faults" test_spec_resume_chaos;
        case "spec config: aggregated sim" test_spec_resume_aggregated;
        case "chained resume: sim and chaos" test_chained_resume;
        case "resume keeps histograms" test_resume_keeps_histograms;
      ] );
  ]
