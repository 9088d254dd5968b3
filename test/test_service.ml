module Proto = Cap_service.Proto
module Engine = Cap_service.Engine
module Loadgen = Cap_service.Loadgen
module Daemon = Cap_service.Daemon
module Service_run = Cap_snapshot.Service_run
module Sim_run = Cap_snapshot.Sim_run
module World = Cap_model.World
module Assignment = Cap_model.Assignment
module Scenario = Cap_model.Scenario
module Two_phase = Cap_core.Two_phase
module Grec = Cap_core.Grec
module Rng = Cap_util.Rng

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)

let test_line_round_trip () =
  let lines =
    [
      Proto.Hello { scenario = "20s-80z-1000c-500cp"; seed = 42 };
      Proto.Time 1.25;
      Proto.Event (Proto.Join { id = 7; node = 3; zone = 11 });
      Proto.Event (Proto.Leave { id = 7 });
      Proto.Event (Proto.Move { id = 9; zone = 0 });
      Proto.Event (Proto.Ctrl (Proto.Crash 2));
      Proto.Event (Proto.Ctrl (Proto.Recover 2));
      Proto.Event (Proto.Ctrl (Proto.Degrade (1, 80.)));
      Proto.Resume 17;
      Proto.Resume 0;
      Proto.End;
    ]
  in
  List.iter
    (fun line ->
      let formatted =
        match line with
        | Proto.Hello { scenario; seed } -> Proto.format_hello ~scenario ~seed
        | Proto.Time at -> Proto.format_time at
        | Proto.Event event -> Proto.format_event event
        | Proto.Resume seq -> Proto.format_resume seq
        | Proto.End -> Proto.format_end
      in
      match Proto.parse_line formatted with
      | Ok parsed ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %S" formatted)
            true (parsed = line)
      | Error e ->
          Alcotest.failf "%S failed to parse: %s" formatted
            (Proto.describe_parse_error e))
    lines

let test_response_round_trip () =
  let responses =
    [
      Proto.Assigned { id = 3; server = 1 };
      Proto.Shed { id = 4; reason = Proto.Admission };
      Proto.Shed { id = 4; reason = Proto.Capacity };
      Proto.Shed { id = 4; reason = Proto.Zone_down };
      Proto.Readmitted { id = 4; server = 0 };
      Proto.Left { id = 3 };
      Proto.Ctrl_ok "crash 2";
      Proto.Err "malformed line";
      Proto.Resume_ok { events = 812; responses = 790 };
    ]
  in
  List.iter
    (fun response ->
      let formatted = Proto.format_response response in
      match Proto.parse_response formatted with
      | Ok parsed ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %S" formatted)
            true (parsed = response)
      | Error m -> Alcotest.failf "%S failed to parse: %s" formatted m)
    responses

let test_malformed_lines () =
  List.iter
    (fun raw ->
      match Proto.parse_line raw with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" raw)
    [
      "";
      "# comment";
      "join 1 2";
      "join -1 2 3";
      "join x 2 3";
      "move 1";
      "leave";
      "ctrl crash";
      "ctrl explode 3";
      "t -1";
      "t nan";
      "hello 20s 1";
      "resume";
      "resume -1";
      "resume x";
    ];
  (* CRLF and padding are tolerated *)
  match Proto.parse_line "  join 1 2 3\r" with
  | Ok (Proto.Event (Proto.Join { id = 1; node = 2; zone = 3 })) -> ()
  | _ -> Alcotest.fail "padded CRLF join should parse"

(* ------------------------------------------------------------------ *)
(* engine fixtures                                                     *)

(* generous capacity so the no-chaos streams shed nothing *)
let service_scenario =
  Scenario.make ~servers:5 ~zones:12 ~clients:120 ~total_capacity_mbps:400. ()

let make_world seed = World.generate (Rng.create ~seed) service_scenario

let make_engine ?(config = Engine.default_config) seed =
  let world = make_world seed in
  let assignment = Two_phase.run Two_phase.grez_grec (Rng.create ~seed) world in
  world, Engine.create ~world ~assignment config

(* a deterministic event log via the load generator *)
let event_log ?(ctrl_every = None) ?(events = 400) world seed =
  let log = ref [] in
  let config =
    {
      Loadgen.default_config with
      Loadgen.rate = float_of_int events;
      duration = 1.;
      ctrl_every;
    }
  in
  let emit = function Proto.Event e -> log := e :: !log | _ -> () in
  ignore (Loadgen.run (Rng.create ~seed:(seed + 1000)) ~world ~world_seed:seed config ~emit);
  List.rev !log

let apply_all engine events =
  List.concat_map (fun event -> Engine.handle engine event) events

(* ------------------------------------------------------------------ *)
(* engine properties                                                   *)

(* after any interleaving: the incrementally maintained state must
   match a from-scratch recomputation, and the final normalised
   assignment must be exactly what the batch GreC refine produces *)
let check_consistency seed =
  let world, engine = make_engine seed in
  let events = event_log world seed in
  let _ = apply_all engine events in
  Alcotest.(check (list string)) "self-check clean mid-stream" [] (Engine.self_check engine);
  let _ = Engine.finalize engine in
  Alcotest.(check (list string)) "self-check clean after finalize" [] (Engine.self_check engine);
  let world_m, _ = Engine.materialize engine in
  let a = Engine.assignment engine in
  Alcotest.(check (list string)) "no violations" [] (Assignment.violations a world_m);
  let refined =
    Grec.assign ~alive:(Array.make (World.server_count world) true) world_m
      ~targets:a.Assignment.target_of_zone
  in
  Alcotest.(check (array int)) "contacts are the batch GreC refine"
    refined a.Assignment.contact_of_client

let test_consistency_seeds () = List.iter check_consistency [ 11; 22; 33 ]

(* replay the event log independently of the daemon: with capacity to
   spare nothing is shed, so the daemon's materialised world must be
   exactly the fold of the log over the initial population *)
let check_replay seed =
  let world, engine = make_engine seed in
  let events = event_log world seed in
  let _ = apply_all engine events in
  Alcotest.(check int) "nothing shed" 0 (Engine.sheds_total engine);
  let registry = Hashtbl.create 256 in
  Array.iteri
    (fun id node -> Hashtbl.replace registry id (node, world.World.client_zones.(id)))
    world.World.client_nodes;
  List.iter
    (fun event ->
      match event with
      | Proto.Join { id; node; zone } -> Hashtbl.replace registry id (node, zone)
      | Proto.Leave { id } -> Hashtbl.remove registry id
      | Proto.Move { id; zone } ->
          let node, _ = Hashtbl.find registry id in
          Hashtbl.replace registry id (node, zone)
      | Proto.Ctrl _ -> ())
    events;
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) registry [] |> List.sort compare in
  let client_nodes = Array.of_list (List.map (fun id -> fst (Hashtbl.find registry id)) ids) in
  let client_zones = Array.of_list (List.map (fun id -> snd (Hashtbl.find registry id)) ids) in
  let replayed = World.replace_clients world ~client_nodes ~client_zones in
  let world_m, slots = Engine.materialize engine in
  Alcotest.(check int) "same population" (Array.length client_nodes) (Array.length slots);
  Alcotest.(check string) "identical world"
    (Sim_run.fingerprint replayed) (Sim_run.fingerprint world_m)

let test_replay_seeds () = List.iter check_replay [ 11; 22; 33 ]

let test_engine_rejects_bad_events () =
  let _, engine = make_engine 5 in
  let is_err = function [ Proto.Err _ ] -> true | _ -> false in
  let check name event =
    Alcotest.(check bool) name true (is_err (Engine.handle engine event))
  in
  check "duplicate join" (Proto.Join { id = 0; node = 0; zone = 0 });
  check "unknown leave" (Proto.Leave { id = 99_999 });
  check "unknown move" (Proto.Move { id = 99_999; zone = 0 });
  check "join bad zone" (Proto.Join { id = 5_000; node = 0; zone = 99 });
  check "join bad node" (Proto.Join { id = 5_000; node = 99_999; zone = 0 });
  check "ctrl bad server" (Proto.Ctrl (Proto.Crash 99));
  Alcotest.(check (list string)) "still consistent" [] (Engine.self_check engine)

let test_admission_control () =
  let world, engine =
    make_engine ~config:{ Engine.default_config with Engine.max_inflight = Some 120 } 6
  in
  ignore world;
  (* the world boots with 120 live clients: the next join must shed *)
  match Engine.handle engine (Proto.Join { id = 9_000; node = 0; zone = 0 }) with
  | Proto.Shed { id = 9_000; reason = Proto.Admission } :: _ ->
      Alcotest.(check int) "counted" 1 (Engine.sheds_total engine);
      (* a leave frees a slot; the next join is admitted *)
      let _ = Engine.handle engine (Proto.Leave { id = 0 }) in
      (match Engine.handle engine (Proto.Join { id = 9_001; node = 0; zone = 0 }) with
      | Proto.Assigned { id = 9_001; _ } :: _ -> ()
      | _ -> Alcotest.fail "join after leave should be admitted")
  | _ -> Alcotest.fail "join over max-inflight should shed with reason admission"

let test_crash_then_recover () =
  let world, engine = make_engine 7 in
  let servers = World.server_count world in
  (match Engine.handle engine (Proto.Ctrl (Proto.Crash 0)) with
  | Proto.Ctrl_ok _ :: _ -> ()
  | _ -> Alcotest.fail "crash should be acknowledged");
  Alcotest.(check (list string)) "consistent after crash" [] (Engine.self_check engine);
  let a = Engine.assignment engine in
  Array.iter
    (fun target -> Alcotest.(check bool) "no zone on the dead server" true (target <> 0))
    a.Assignment.target_of_zone;
  (match Engine.handle engine (Proto.Ctrl (Proto.Recover 0)) with
  | Proto.Ctrl_ok _ :: _ -> ()
  | _ -> Alcotest.fail "recover should be acknowledged");
  Alcotest.(check (list string)) "consistent after recover" [] (Engine.self_check engine);
  ignore servers

(* ------------------------------------------------------------------ *)
(* checkpoint / resume                                                 *)

let responses_to_string responses =
  String.concat "\n" (List.map Proto.format_response responses)

(* a checkpoint taken mid-stream and restored must continue
   bitwise-identically to the engine that never stopped *)
let check_resume_identity seed =
  let world, engine = make_engine seed in
  let events = event_log ~ctrl_every:(Some 60) world seed in
  let cut = List.length events / 2 in
  let prefix = List.filteri (fun i _ -> i < cut) events in
  let suffix = List.filteri (fun i _ -> i >= cut) events in
  let _ = apply_all engine prefix in
  let ck = Engine.checkpoint engine in
  let restored = Engine.restore ~world Engine.default_config ck in
  let original_trace = responses_to_string (apply_all engine suffix) in
  let restored_trace = responses_to_string (apply_all restored suffix) in
  Alcotest.(check string) "bitwise-identical continuation" original_trace restored_trace;
  let final_original = responses_to_string (Engine.finalize engine) in
  let final_restored = responses_to_string (Engine.finalize restored) in
  Alcotest.(check string) "identical finalize" final_original final_restored;
  let a = Engine.assignment engine and b = Engine.assignment restored in
  Alcotest.(check (array int)) "identical targets"
    a.Assignment.target_of_zone b.Assignment.target_of_zone;
  Alcotest.(check (array int)) "identical contacts"
    a.Assignment.contact_of_client b.Assignment.contact_of_client;
  Alcotest.(check (list string)) "restored is consistent" [] (Engine.self_check restored)

let test_resume_identity_seeds () = List.iter check_resume_identity [ 11; 22; 33 ]

let test_service_snapshot_round_trip () =
  let world, engine = make_engine 12 in
  let events = event_log world 12 in
  let _ = apply_all engine events in
  let snap =
    Service_run.of_engine ~scenario:(Scenario.notation service_scenario) ~seed:12 ~world
      Engine.default_config engine
  in
  let path = Filename.temp_file "cap_service_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Service_run.save ~path snap with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save failed: %s" (Cap_snapshot.Envelope.describe e));
      match Service_run.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" (Cap_snapshot.Envelope.describe e)
      | Ok loaded -> (
          Alcotest.(check int) "events survive" (Engine.events_seen engine)
            (Service_run.(Engine.checkpoint_events loaded.state));
          match Service_run.resume ~world loaded with
          | Error m -> Alcotest.failf "resume failed: %s" m
          | Ok restored ->
              let a = Engine.assignment engine and b = Engine.assignment restored in
              Alcotest.(check (array int)) "contacts survive"
                a.Assignment.contact_of_client b.Assignment.contact_of_client;
              (* a different world must be refused *)
              let other = make_world 13 in
              (match Service_run.resume ~world:other loaded with
              | Error _ -> ()
              | Ok _ -> Alcotest.fail "resume against the wrong world must fail")))

(* Two hops through save/load, with crash, degrade and recover on both
   sides of each: the twice-resumed engine answers, assigns and
   fingerprints exactly as the engine that never stopped. A server is
   down at each hop and neither hop falls on a re-optimization, so the
   health mask and the re-optimization cadence both have to cross. *)
let test_chained_resume_through_disk () =
  let seed = 14 in
  let config = { Engine.default_config with Engine.reopt_every = 64 } in
  let world, reference = make_engine ~config seed in
  let events = Array.of_list (event_log ~events:900 world seed) in
  let n = Array.length events in
  let slice lo hi = Array.to_list (Array.sub events lo (hi - lo)) in
  let ctrl c = [ Proto.Ctrl c ] in
  let a = n / 3 and b = 2 * n / 3 in
  let segments =
    [
      slice 0 (a - 40) @ ctrl (Proto.Crash 1) @ ctrl (Proto.Degrade (2, 40.)) @ slice (a - 40) a;
      slice a (a + 30) @ ctrl (Proto.Recover 1) @ slice (a + 30) (b - 50)
      @ ctrl (Proto.Crash 3) @ ctrl (Proto.Degrade (0, 25.)) @ slice (b - 50) b;
      slice b (b + 20) @ ctrl (Proto.Recover 3) @ ctrl (Proto.Degrade (2, 0.)) @ slice (b + 20) n;
    ]
  in
  let run engine segment = responses_to_string (apply_all engine segment) in
  let expected = List.map (run reference) segments in
  let expected_final = responses_to_string (Engine.finalize reference) in
  let through_disk engine =
    let snap =
      Service_run.of_engine ~scenario:(Scenario.notation service_scenario) ~seed ~world config
        engine
    in
    let path = Filename.temp_file "cap_service_chain" ".bin" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        (match Service_run.save ~path snap with
        | Ok () -> ()
        | Error e -> Alcotest.failf "save failed: %s" (Cap_snapshot.Envelope.describe e));
        match Service_run.load ~path with
        | Error e -> Alcotest.failf "load failed: %s" (Cap_snapshot.Envelope.describe e)
        | Ok loaded -> (
            match Service_run.resume ~world:(make_world seed) loaded with
            | Ok engine -> engine
            | Error m -> Alcotest.failf "resume failed: %s" m))
  in
  let _, first = make_engine ~config seed in
  let got_first = run first (List.nth segments 0) in
  let second = through_disk first in
  let got_second = run second (List.nth segments 1) in
  let third = through_disk second in
  let got_third = run third (List.nth segments 2) in
  Alcotest.(check (list string)) "responses identical across both hops" expected
    [ got_first; got_second; got_third ];
  Alcotest.(check string) "identical finalize" expected_final
    (responses_to_string (Engine.finalize third));
  let want = Engine.assignment reference and got = Engine.assignment third in
  Alcotest.(check (array int)) "identical targets" want.Assignment.target_of_zone
    got.Assignment.target_of_zone;
  Alcotest.(check (array int)) "identical contacts" want.Assignment.contact_of_client
    got.Assignment.contact_of_client;
  Alcotest.(check string) "identical fingerprint" (Engine.fingerprint reference)
    (Engine.fingerprint third)

(* ------------------------------------------------------------------ *)
(* load generator                                                      *)

let render_stream seed config =
  let world = make_world seed in
  let buf = Buffer.create 4096 in
  let emit line =
    Buffer.add_string buf
      (match line with
      | Proto.Hello { scenario; seed } -> Proto.format_hello ~scenario ~seed
      | Proto.Time at -> Proto.format_time at
      | Proto.Event event -> Proto.format_event event
      | Proto.Resume seq -> Proto.format_resume seq
      | Proto.End -> Proto.format_end);
    Buffer.add_char buf '\n'
  in
  let events = Loadgen.run (Rng.create ~seed:(seed + 1)) ~world ~world_seed:seed config ~emit in
  events, Buffer.contents buf

let test_loadgen_deterministic () =
  let config = { Loadgen.default_config with Loadgen.rate = 500.; ctrl_every = Some 100 } in
  let events_a, stream_a = render_stream 9 config in
  let events_b, stream_b = render_stream 9 config in
  Alcotest.(check int) "same count" events_a events_b;
  Alcotest.(check string) "same bytes" stream_a stream_b;
  Alcotest.(check bool) "nonempty" true (events_a > 0)

let test_loadgen_stream_is_valid () =
  let config = { Loadgen.default_config with Loadgen.rate = 500.; diurnal = true } in
  let _, stream = render_stream 10 config in
  let lines = String.split_on_char '\n' stream |> List.filter (fun l -> l <> "") in
  List.iter
    (fun line ->
      match Proto.parse_line line with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "loadgen emitted a bad line: %s"
            (Proto.describe_parse_error e))
    lines;
  (match Proto.parse_line (List.hd lines) with
  | Ok (Proto.Hello _) -> ()
  | _ -> Alcotest.fail "stream must open with a hello");
  match Proto.parse_line (List.nth lines (List.length lines - 1)) with
  | Ok Proto.End -> ()
  | _ -> Alcotest.fail "stream must close with end"

let test_loadgen_validate () =
  let bad = { Loadgen.default_config with Loadgen.rate = 0. } in
  (match Loadgen.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero rate must be rejected");
  let bad_mix =
    { Loadgen.default_config with Loadgen.mix = { Loadgen.join = 0.; leave = 0.; move = 0. } }
  in
  match Loadgen.validate bad_mix with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "all-zero mix must be rejected"

(* ------------------------------------------------------------------ *)
(* daemon serve loop                                                   *)

let serve_string config stream =
  let stream_path = Filename.temp_file "cap_service_in" ".txt" in
  let out_path = Filename.temp_file "cap_service_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove stream_path with Sys_error _ -> ());
      try Sys.remove out_path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin stream_path (fun out -> output_string out stream);
      let input = open_in stream_path in
      let output = open_out out_path in
      let result =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr input;
            close_out_noerr output)
          (fun () -> Daemon.serve config ~input ~output)
      in
      result, In_channel.with_open_bin out_path In_channel.input_all)

let daemon_config () =
  let resolve ~scenario ~seed =
    ignore scenario;
    let world = make_world seed in
    let assignment = Two_phase.run Two_phase.grez_grec (Rng.create ~seed) world in
    Ok (Engine.create ~world ~assignment Engine.default_config)
  in
  {
    Daemon.resolve;
    checkpoint_every = None;
    checkpoint_sink = None;
    echo_responses = true;
    resume_window = Daemon.default_resume_window;
  }

let test_daemon_serves_a_stream () =
  let _, stream =
    render_stream 14 { Loadgen.default_config with Loadgen.rate = 300. }
  in
  match serve_string (daemon_config ()) stream with
  | Ok stats, out ->
      Alcotest.(check bool) "events flowed" true (stats.Daemon.events > 0);
      Alcotest.(check int) "no protocol errors" 0 stats.Daemon.errors;
      Alcotest.(check (list string)) "clean shutdown" [] stats.Daemon.violations;
      let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
      Alcotest.(check bool) "responses written" true (List.length lines > 0);
      List.iter
        (fun line ->
          match Proto.parse_response line with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "daemon wrote a bad response: %s" m)
        lines
  | Error m, _ -> Alcotest.failf "serve failed: %s" m

let test_daemon_requires_hello () =
  (match serve_string (daemon_config ()) "join 1 2 3\nend\n" with
  | Error _, out ->
      Alcotest.(check bool) "events answered err" true
        (String.length out = 0 || String.sub out 0 3 = "err")
  | Ok _, _ -> Alcotest.fail "a stream without hello must fail");
  match serve_string (daemon_config ()) "" with
  | Error _, _ -> ()
  | Ok _, _ -> Alcotest.fail "an empty stream must fail"

let test_daemon_counts_errors () =
  let stream =
    Proto.format_hello ~scenario:(Scenario.notation service_scenario) ~seed:15
    ^ "\nnot a line\nleave 99999\nend\n"
  in
  match serve_string (daemon_config ()) stream with
  | Ok stats, _ -> Alcotest.(check int) "both errors counted" 2 stats.Daemon.errors
  | Error m, _ -> Alcotest.failf "serve failed: %s" m

let tests =
  [
    ( "service",
      [
        case "protocol line round-trip" test_line_round_trip;
        case "protocol response round-trip" test_response_round_trip;
        case "protocol rejects malformed lines" test_malformed_lines;
        case "engine state matches recomputation (3 seeds)" test_consistency_seeds;
        case "engine equals event-log replay (3 seeds)" test_replay_seeds;
        case "engine rejects bad events" test_engine_rejects_bad_events;
        case "admission control sheds over max-inflight" test_admission_control;
        case "crash evacuates, recover readmits" test_crash_then_recover;
        case "checkpoint resume is bitwise-identical (3 seeds)" test_resume_identity_seeds;
        case "service snapshot round-trips" test_service_snapshot_round_trip;
        case "chained resume through disk" test_chained_resume_through_disk;
        case "loadgen is deterministic" test_loadgen_deterministic;
        case "loadgen emits a well-formed stream" test_loadgen_stream_is_valid;
        case "loadgen validates its config" test_loadgen_validate;
        case "daemon serves a stream end to end" test_daemon_serves_a_stream;
        case "daemon refuses streams without hello" test_daemon_requires_hello;
        case "daemon counts protocol errors" test_daemon_counts_errors;
      ] );
  ]
