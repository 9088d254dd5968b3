module Proto = Cap_service.Proto
module Wal = Cap_service.Wal
module Io = Cap_service.Io
module Disk_torture = Cap_service.Disk_torture
module Envelope = Cap_snapshot.Envelope
module Engine = Cap_service.Engine
module Daemon = Cap_service.Daemon
module Follower = Cap_service.Follower
module Supervisor = Cap_service.Supervisor
module Client = Cap_service.Client
module Loadgen = Cap_service.Loadgen
module World = Cap_model.World
module Scenario = Cap_model.Scenario
module Two_phase = Cap_core.Two_phase
module Rng = Cap_util.Rng

let case name f = Alcotest.test_case name `Quick f

let temp_path suffix =
  let path = Filename.temp_file "cap_wal_test" suffix in
  Sys.remove path;
  path

let with_temp_path suffix f =
  let path = temp_path suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path data = Out_channel.with_open_bin path (fun o -> output_string o data)

let append_bytes path data =
  let out =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o600 path
  in
  output_string out data;
  close_out out

let truncate_file path n = Unix.truncate path n

(* ------------------------------------------------------------------ *)
(* WAL format                                                          *)

let test_crc32_vector () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l (Wal.crc32 "123456789")

let sample_records = [ "hello 5s-12z-120c-60cp 7"; "t 0.125000"; "join 500 3 2"; "" ]

let write_sample path =
  let w = Wal.create_writer ~fsync_every:2 ~path () in
  List.iter (Wal.append w) sample_records;
  Wal.close_writer w;
  w

let test_round_trip () =
  with_temp_path ".wal" @@ fun path ->
  let w = write_sample path in
  Alcotest.(check int) "records_written" (List.length sample_records)
    (Wal.records_written w);
  Alcotest.(check string) "writer_path" path (Wal.writer_path w);
  match Wal.read ~path () with
  | Ok (records, Wal.Clean) ->
      Alcotest.(check (list string)) "records survive" sample_records records
  | Ok (_, Wal.Torn reason) -> Alcotest.failf "unexpected torn tail: %s" reason
  | Error e -> Alcotest.failf "read failed: %s" (Wal.describe_read_error e)

let test_append_rejects_oversized () =
  with_temp_path ".wal" @@ fun path ->
  let w = Wal.create_writer ~path () in
  Fun.protect
    ~finally:(fun () -> Wal.close_writer w)
    (fun () ->
      match Wal.append w (String.make (Wal.max_payload_bytes + 1) 'x') with
      | () -> Alcotest.fail "oversized payload must be rejected"
      | exception Invalid_argument _ -> ())

(* every way a crash can shear the tail must read back as [Torn] with
   the prefix intact, and [open_append] must truncate it cleanly *)
let check_torn mutilate expected_records =
  with_temp_path ".wal" @@ fun path ->
  ignore (write_sample path);
  mutilate path;
  (match Wal.read ~path () with
  | Ok (records, Wal.Torn _) ->
      Alcotest.(check (list string)) "prefix survives" expected_records records
  | Ok (_, Wal.Clean) -> Alcotest.fail "tail should read as torn"
  | Error e -> Alcotest.failf "torn tail must not be fatal: %s" (Wal.describe_read_error e));
  match Wal.open_append ~path () with
  | Error e -> Alcotest.failf "open_append failed: %s" (Wal.describe_read_error e)
  | Ok (w, records) ->
      Alcotest.(check (list string)) "open_append recovers the prefix"
        expected_records records;
      Wal.append w "move 1 2";
      Wal.close_writer w;
      (match Wal.read ~path () with
      | Ok (records, Wal.Clean) ->
          Alcotest.(check (list string)) "appends land on a clean boundary"
            (expected_records @ [ "move 1 2" ]) records
      | Ok (_, Wal.Torn reason) -> Alcotest.failf "still torn after truncation: %s" reason
      | Error e -> Alcotest.failf "reread failed: %s" (Wal.describe_read_error e))

let prefix_3 = [ "hello 5s-12z-120c-60cp 7"; "t 0.125000"; "join 500 3 2" ]

let test_torn_tails () =
  (* truncated mid-payload of the final record *)
  check_torn (fun path -> truncate_file path (String.length (read_file path) - 1)) prefix_3;
  (* the final record is empty, so cutting 1..8 bytes eats into its header *)
  check_torn (fun path -> truncate_file path (String.length (read_file path) - 5)) prefix_3;
  (* a bare length header with no crc/payload yet *)
  check_torn (fun path -> append_bytes path "\x00\x00\x00\x09") sample_records;
  (* header + partial payload of a record still being written *)
  check_torn
    (fun path -> append_bytes path ("\x00\x00\x00\x09" ^ "\xde\xad\xbe\xef" ^ "join"))
    sample_records;
  (* CRC mismatch on the FINAL record: indistinguishable from a crash
     mid-append, so it is torn, not corrupt. The final record has an
     empty payload — its CRC field is the file's last four bytes. *)
  check_torn
    (fun path ->
      let data = read_file path in
      let flipped = Bytes.of_string data in
      Bytes.set flipped (String.length data - 2) '\xff';
      write_file path (Bytes.to_string flipped))
    prefix_3

let test_corruption_is_fatal () =
  (* CRC mismatch mid-log (not the final record) *)
  with_temp_path ".wal" @@ fun path ->
  ignore (write_sample path);
  let data = read_file path in
  let flipped = Bytes.of_string data in
  (* record 0's payload starts right after magic + 8 bytes of header *)
  Bytes.set flipped (String.length Wal.magic + 8) 'X';
  write_file path (Bytes.to_string flipped);
  (match Wal.read ~path () with
  | Error (Wal.Corrupted { index = 0; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wal.describe_read_error e)
  | Ok _ -> Alcotest.fail "mid-log corruption must be fatal");
  (* implausible length field mid-log *)
  with_temp_path ".wal" @@ fun path ->
  write_file path (Wal.magic ^ "\xff\xff\xff\xff" ^ "\x00\x00\x00\x00" ^ "tail-rec");
  (match Wal.read ~path () with
  | Error (Wal.Corrupted _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wal.describe_read_error e)
  | Ok _ -> Alcotest.fail "an implausible length must brand the log corrupt");
  (* wrong magic *)
  with_temp_path ".wal" @@ fun path ->
  write_file path "NOTAWAL1\n";
  match Wal.read ~path () with
  | Error Wal.Bad_magic -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wal.describe_read_error e)
  | Ok _ -> Alcotest.fail "bad magic must be refused"

let test_tailer_incremental () =
  with_temp_path ".wal" @@ fun path ->
  let w = Wal.create_writer ~path () in
  Wal.append w "one";
  Wal.append w "two";
  let tailer =
    match Wal.open_tailer ~path () with
    | Ok t -> t
    | Error e -> Alcotest.failf "open_tailer: %s" (Wal.describe_read_error e)
  in
  Fun.protect
    ~finally:(fun () ->
      Wal.close_tailer tailer;
      Wal.close_writer w)
    (fun () ->
      (match Wal.poll tailer with
      | Ok got -> Alcotest.(check (list string)) "first poll" [ "one"; "two" ] got
      | Error e -> Alcotest.failf "poll: %s" (Wal.describe_read_error e));
      (match Wal.poll tailer with
      | Ok got -> Alcotest.(check (list string)) "caught up" [] got
      | Error e -> Alcotest.failf "poll: %s" (Wal.describe_read_error e));
      Wal.append w "three";
      (* a record the writer is mid-way through is withheld, not an error *)
      append_bytes path "\x00\x00\x00\x08";
      (match Wal.poll tailer with
      | Ok got -> Alcotest.(check (list string)) "complete records only" [ "three" ] got
      | Error e -> Alcotest.failf "poll: %s" (Wal.describe_read_error e));
      (* completing the in-flight record makes it visible *)
      append_bytes path (let crc = Wal.crc32 "fourfour" in
                         let b = Buffer.create 12 in
                         Buffer.add_int32_be b crc;
                         Buffer.add_string b "fourfour";
                         Buffer.contents b);
      (match Wal.poll tailer with
      | Ok got -> Alcotest.(check (list string)) "completed record arrives" [ "fourfour" ] got
      | Error e -> Alcotest.failf "poll: %s" (Wal.describe_read_error e));
      Alcotest.(check int) "tailer_records" 4 (Wal.tailer_records tailer))

(* ------------------------------------------------------------------ *)
(* daemon fixtures                                                     *)

let service_scenario =
  Scenario.make ~servers:5 ~zones:12 ~clients:120 ~total_capacity_mbps:400. ()

let notation = Scenario.notation service_scenario

let daemon_config () =
  let resolve ~scenario ~seed =
    ignore scenario;
    let world = World.generate (Rng.create ~seed) service_scenario in
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

(* hello + the loadgen's t/event lines, raw, ready for handle_line *)
let stream_lines seed =
  let world = World.generate (Rng.create ~seed) service_scenario in
  let config = { Loadgen.default_config with Loadgen.rate = 300.; ctrl_every = Some 90 } in
  let lines = ref [] in
  let emit = function
    | Proto.Hello _ | Proto.End | Proto.Resume _ -> ()
    | Proto.Time at -> lines := Proto.format_time at :: !lines
    | Proto.Event e -> lines := Proto.format_event e :: !lines
  in
  ignore (Loadgen.run (Rng.create ~seed:(seed + 1000)) ~world ~world_seed:seed config ~emit);
  Proto.format_hello ~scenario:notation ~seed :: List.rev !lines

let feed session lines =
  let out = ref [] in
  let send l = out := l :: !out in
  List.iter
    (fun raw ->
      match Daemon.handle_line session ~send raw with
      | `Continue -> ()
      | `End | `Fatal _ -> Alcotest.failf "stream stalled on %S" raw)
    lines;
  List.rev !out

(* the full numbered response log, extracted through the protocol
   itself: resume 0 answers resume-ok then replays everything *)
let full_log session =
  let out = ref [] in
  let send l = out := l :: !out in
  (match Daemon.handle_line session ~send "resume 0" with
  | `Continue -> ()
  | _ -> Alcotest.fail "resume 0 must not end the stream");
  match List.rev !out with
  | ok :: replayed -> (
      match Proto.parse_response ok with
      | Ok (Proto.Resume_ok { events; responses }) ->
          Alcotest.(check int) "resume-ok RESPONSES matches the replay"
            responses (List.length replayed);
          (events, replayed)
      | _ -> Alcotest.failf "expected resume-ok, got %S" ok)
  | [] -> Alcotest.fail "resume 0 answered nothing"

(* ------------------------------------------------------------------ *)
(* crash recovery: snapshot-free WAL replay is bitwise-identical       *)

(* Satellite (c): 3 seeds x 3 kill points, one of them mid-record. The
   recovered daemon must reproduce the uninterrupted run's engine
   fingerprint AND its numbered response stream, byte for byte. *)
let check_kill_resume seed =
  let lines = stream_lines seed in
  let n = List.length lines in
  (* the uninterrupted run (no WAL needed: it is the reference) *)
  let reference = Daemon.make_session (daemon_config ()) in
  ignore (feed reference lines);
  let ref_events, ref_log = full_log reference in
  Alcotest.(check int) "reference journal cursor" (n - 1) ref_events;
  let ref_fingerprint =
    match Daemon.session_engine reference with
    | Some e -> Engine.fingerprint e
    | None -> Alcotest.fail "reference has no engine"
  in
  let kill_points = [ n / 4, false; n / 2, false; 2 * n / 3, true ] in
  List.iter
    (fun (cut, tear) ->
      with_temp_path ".wal" @@ fun path ->
      (* run to the kill point with a WAL attached, then "SIGKILL":
         drop the session without finishing *)
      let w = Wal.create_writer ~fsync_every:8 ~path () in
      let doomed = Daemon.make_session ~wal:w (daemon_config ()) in
      ignore (feed doomed (List.filteri (fun i _ -> i < cut) lines));
      Wal.close_writer w;
      if tear then
        (* the append the crash interrupted: header + partial payload *)
        append_bytes path ("\x00\x00\x00\x40" ^ "\x00\x00\x00\x00" ^ "join 99");
      (* recovery: replay the log, then serve the rest of the stream *)
      let writer, records =
        match Wal.open_append ~path () with
        | Ok wr -> wr
        | Error e -> Alcotest.failf "open_append: %s" (Wal.describe_read_error e)
      in
      Alcotest.(check int) "every applied record survived the kill" cut
        (List.length records);
      let recovered = Daemon.make_session ~wal:writer (daemon_config ()) in
      (match Daemon.replay recovered records with
      | Ok () -> ()
      | Error m -> Alcotest.failf "replay rejected a healthy WAL: %s" m);
      Alcotest.(check int) "wal cursor restored" cut (Daemon.wal_records recovered);
      ignore (feed recovered (List.filteri (fun i _ -> i >= cut) lines));
      Wal.close_writer writer;
      let got_events, got_log = full_log recovered in
      Alcotest.(check int) "journal cursor identical" ref_events got_events;
      Alcotest.(check (list string)) "response stream is byte-identical" ref_log got_log;
      let got_fingerprint =
        match Daemon.session_engine recovered with
        | Some e -> Engine.fingerprint e
        | None -> Alcotest.fail "recovered session has no engine"
      in
      Alcotest.(check string) "engine fingerprint is bitwise-identical"
        ref_fingerprint got_fingerprint)
    kill_points

let test_kill_resume_seeds () = List.iter check_kill_resume [ 11; 22; 33 ]

let test_resume_protocol_errors () =
  let session = Daemon.make_session (daemon_config ()) in
  let out = ref [] in
  let send l = out := l :: !out in
  (* resume before hello *)
  (match Daemon.handle_line session ~send "resume 0" with
  | `Continue -> ()
  | _ -> Alcotest.fail "resume before hello must not be fatal");
  (match !out with
  | [ e ] when String.length e >= 3 && String.sub e 0 3 = "err" -> ()
  | _ -> Alcotest.fail "resume before hello must answer err");
  ignore (feed session (stream_lines 44));
  (* resume ahead of the stream *)
  out := [];
  ignore (Daemon.handle_line session ~send (Proto.format_resume 1_000_000));
  match !out with
  | [ e ] when String.length e >= 3 && String.sub e 0 3 = "err" -> ()
  | _ -> Alcotest.fail "resume ahead of the stream must answer err"

(* ------------------------------------------------------------------ *)
(* parse hardening (satellite a)                                       *)

let prop_parse_never_raises =
  QCheck.Test.make ~name:"parse_line never raises" ~count:2000
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      match Proto.parse_line s with Ok _ | Error _ -> true)

let prop_parse_fuzzed_requests =
  (* near-miss structured lines: valid verbs with mangled arguments *)
  let gen =
    QCheck.Gen.(
      map2
        (fun verb args -> String.concat " " (verb :: args))
        (oneofl [ "hello"; "t"; "join"; "leave"; "move"; "ctrl"; "resume"; "end"; "x" ])
        (list_size (0 -- 5)
           (oneofl [ "0"; "-1"; "99999999999999999999"; "nan"; "inf"; "x"; ""; "1.5" ])))
  in
  QCheck.Test.make ~name:"parse_line total on near-miss lines" ~count:2000
    (QCheck.make gen)
    (fun s -> match Proto.parse_line s with Ok _ | Error _ -> true)

let test_parse_oversized () =
  let long = "join " ^ String.make Proto.max_line_bytes '1' in
  (match Proto.parse_line long with
  | Error (Proto.Oversized n) ->
      Alcotest.(check int) "reports the offending length" (String.length long) n
  | Error (Proto.Malformed _) -> Alcotest.fail "oversized must be typed Oversized"
  | Ok _ -> Alcotest.fail "oversized line must not parse");
  (* exactly at the bound is not oversized *)
  let at_bound = "join " ^ String.make (Proto.max_line_bytes - 5) '1' in
  Alcotest.(check int) "fixture is at the bound" Proto.max_line_bytes
    (String.length at_bound);
  match Proto.parse_line at_bound with
  | Error (Proto.Malformed _) -> ()
  | Error (Proto.Oversized _) -> Alcotest.fail "at-bound line is not oversized"
  | Ok _ -> Alcotest.fail "absurd join must still be malformed"

(* ------------------------------------------------------------------ *)
(* client: reconnect and exactly-once resume (in-memory transport)     *)

(* A simulated daemon "process": handle_line over an in-memory queue,
   durable state in a real WAL file, killable between responses. The
   kill schedule fires after the Nth delivered response; recovery is
   exactly what capsim does — Daemon.recover on a fresh session. *)
type sim_daemon = {
  wal_path : string;
  mutable session : Daemon.session option;  (* None = process is dead *)
  mutable delivered : int;
  mutable kill_at : int list;
}

let sim_connect daemon () =
  (* supervisor stand-in: (re)start the daemon if it is down *)
  (match daemon.session with
  | Some _ -> ()
  | None -> (
      let session = Daemon.make_session (daemon_config ()) in
      match Daemon.recover ~fsync_every:32 session ~path:daemon.wal_path with
      | Ok _ -> daemon.session <- Some session
      | Error e -> Alcotest.failf "recovery: %s" (Daemon.describe_recover_error e)));
  let queue = Queue.create () in
  let eof = ref false in
  let die () =
    daemon.session <- None;
    Queue.clear queue;
    eof := true
  in
  let send_line line =
    match daemon.session with
    | None -> raise End_of_file
    | Some session -> (
        match Daemon.handle_line session ~send:(fun r -> Queue.add r queue) line with
        | `Continue -> ()
        | `Fatal m -> Alcotest.failf "sim daemon refused the stream: %s" m
        | `End ->
            (* drain through a real channel, as finish_session demands *)
            let drain = Filename.temp_file "cap_wal_drain" ".txt" in
            let out = open_out drain in
            (match Daemon.finish_session session out with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "finish failed: %s" m);
            close_out out;
            String.split_on_char '\n' (read_file drain)
            |> List.iter (fun l -> if l <> "" then Queue.add l queue);
            Sys.remove drain;
            daemon.session <- None;
            eof := true)
  in
  let recv_line () =
    (* the kill schedule rides on delivered responses *)
    match daemon.kill_at with
    | k :: rest when daemon.delivered >= k && daemon.session <> None ->
        daemon.kill_at <- rest;
        die ();
        None
    | _ ->
        if Queue.is_empty queue then if !eof then None else None
        else begin
          daemon.delivered <- daemon.delivered + 1;
          Some (Queue.pop queue)
        end
  in
  let has_input () = (not (Queue.is_empty queue)) || !eof in
  Ok { Client.send_line; recv_line; has_input; close = (fun () -> ()) }

let test_client_reconnects_exactly_once () =
  with_temp_path ".wal" @@ fun wal_path ->
  let seed = 21 in
  let lines = List.tl (stream_lines seed) in
  (* the reference: one clean run, same lines, drain included *)
  let reference =
    let d = { wal_path = temp_path ".wal"; session = None; delivered = 0; kill_at = [] } in
    Fun.protect
      ~finally:(fun () -> try Sys.remove d.wal_path with Sys_error _ -> ())
      (fun () ->
        let config =
          Client.make_config
            ~connect:(sim_connect d) ~scenario:notation ~seed
            ~rng:(Rng.create ~seed:99) ~sleep:(fun _ -> ()) ()
        in
        match Client.run config ~lines with
        | Ok outcome ->
            Alcotest.(check int) "reference needs no reconnect" 0
              outcome.Client.reconnects;
            outcome.Client.responses
        | Error m -> Alcotest.failf "reference client failed: %s" m)
  in
  Alcotest.(check bool) "reference saw responses" true (List.length reference > 50);
  (* the tortured run: the daemon dies twice mid-stream *)
  let d = { wal_path; session = None; delivered = 0; kill_at = [ 25; 120 ] } in
  let config =
    Client.make_config
      ~connect:(sim_connect d) ~scenario:notation ~seed
      ~rng:(Rng.create ~seed:100) ~sleep:(fun _ -> ()) ()
  in
  match Client.run config ~lines with
  | Error m -> Alcotest.failf "client gave up: %s" m
  | Ok outcome ->
      Alcotest.(check int) "both kills forced reconnects" 2 outcome.Client.reconnects;
      Alcotest.(check (list string)) "no err lines" [] outcome.Client.errors;
      Alcotest.(check (list string))
        "client-observed stream is byte-identical to the unbroken run" reference
        outcome.Client.responses

(* ------------------------------------------------------------------ *)
(* follower: tail, lag, promote                                        *)

let test_follower_promote_identity () =
  with_temp_path ".wal" @@ fun path ->
  let seed = 31 in
  let lines = stream_lines seed in
  let n = List.length lines in
  let cut = n / 2 in
  let w = Wal.create_writer ~path () in
  let primary = Daemon.make_session ~wal:w (daemon_config ()) in
  ignore (feed primary (List.filteri (fun i _ -> i < cut) lines));
  let follower =
    match Follower.create (daemon_config ()) ~path with
    | Ok f -> f
    | Error m -> Alcotest.failf "follower create: %s" m
  in
  (match Follower.catch_up follower with
  | Ok applied -> Alcotest.(check int) "caught up to the prefix" cut applied
  | Error m -> Alcotest.failf "catch_up: %s" m);
  (* primary advances; the follower lags until it polls *)
  ignore (feed primary (List.filteri (fun i _ -> i >= cut) lines));
  Alcotest.(check int) "lag before poll" cut (Follower.records_applied follower);
  (* primary "dies" (writer dropped mid-record), follower takes over *)
  Wal.close_writer w;
  append_bytes path "\x00\x00\x00\x20\xaa";
  (match Follower.promote follower ~fsync_every:32 () with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "promote: %s" m);
  Alcotest.(check bool) "promoted" true (Follower.is_promoted follower);
  Alcotest.(check int) "nothing lost in the handover" n
    (Daemon.wal_records (Follower.session follower));
  (* the promoted session IS the primary, bit for bit *)
  let want =
    match Daemon.session_engine primary with
    | Some e -> Engine.fingerprint e
    | None -> Alcotest.fail "primary has no engine"
  in
  let got =
    match Daemon.session_engine (Follower.session follower) with
    | Some e -> Engine.fingerprint e
    | None -> Alcotest.fail "follower has no engine"
  in
  Alcotest.(check string) "promoted engine is bitwise-identical" want got;
  (* and it keeps appending on a clean boundary *)
  let out = ref [] in
  ignore
    (Daemon.handle_line (Follower.session follower)
       ~send:(fun l -> out := l :: !out)
       "join 7777 1 1");
  match Wal.read ~path () with
  | Ok (records, Wal.Clean) ->
      Alcotest.(check int) "promoted append landed" (n + 1) (List.length records)
  | Ok (_, Wal.Torn reason) -> Alcotest.failf "torn after promotion: %s" reason
  | Error e -> Alcotest.failf "reread: %s" (Wal.describe_read_error e)

(* ------------------------------------------------------------------ *)
(* segmented layout: rotation, GC, mutilations at segment boundaries   *)

(* a temp base path whose whole namespace (base.NNNNNN, base.manifest,
   leftover .tmp files) is cleaned up afterwards *)
let with_temp_base f =
  let base = temp_path ".wal" in
  let dir = Filename.dirname base and stem = Filename.basename base in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          if
            String.length name >= String.length stem
            && String.sub name 0 (String.length stem) = stem
          then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir))
    (fun () -> f base)

let seg_records =
  List.init 40 (fun i -> Printf.sprintf "join %d %d %d" (1000 + i) (i mod 12) (i mod 3))

let build_seg_log ?(fsync_every = 0) path =
  let w = Wal.create_writer ~fsync_every ~segment_bytes:128 ~path () in
  List.iter (Wal.append w) seg_records;
  Wal.close_writer w;
  w

let test_segment_rotation_round_trip () =
  with_temp_base @@ fun path ->
  let w = build_seg_log path in
  let segs = Wal.segments w in
  Alcotest.(check bool) "the log rotated" true (List.length segs > 2);
  (match segs with
  | (1, 0) :: _ -> ()
  | _ -> Alcotest.fail "segment 1 must hold record 0");
  let last, _ = List.nth segs (List.length segs - 1) in
  Alcotest.(check string) "appends go to the last segment"
    (Wal.seg_name path last) (Wal.active_path w);
  (* the bytes gauge mirrors the on-disk footprint exactly *)
  let on_disk =
    List.fold_left
      (fun acc (n, _) -> acc + String.length (read_file (Wal.seg_name path n)))
      0 segs
  in
  Alcotest.(check int) "total_bytes matches the files" on_disk (Wal.total_bytes w);
  (match Wal.read ~path () with
  | Ok (records, Wal.Clean) ->
      Alcotest.(check (list string)) "records survive rotation" seg_records records
  | Ok (_, Wal.Torn reason) -> Alcotest.failf "unexpected torn tail: %s" reason
  | Error e -> Alcotest.failf "read: %s" (Wal.describe_read_error e));
  (match Wal.read_log ~path () with
  | Ok li ->
      Alcotest.(check int) "base is 0 before gc" 0 li.Wal.li_base;
      Alcotest.(check (list (pair int int))) "chain is self-describing" segs
        li.Wal.li_segments
  | Error e -> Alcotest.failf "read_log: %s" (Wal.describe_read_error e));
  Alcotest.(check bool) "advisory manifest exists" true
    (Sys.file_exists (Wal.manifest_path path));
  (* open_append keeps the segmented layout and lands on a clean boundary *)
  match Wal.open_append ~segment_bytes:128 ~path () with
  | Error e -> Alcotest.failf "open_append: %s" (Wal.describe_read_error e)
  | Ok (w2, records) ->
      Alcotest.(check int) "every record recovered" 40 (List.length records);
      Wal.append w2 "move 1042 5";
      Wal.close_writer w2;
      (match Wal.read ~path () with
      | Ok (records, Wal.Clean) ->
          Alcotest.(check int) "append after reopen" 41 (List.length records)
      | Ok (_, Wal.Torn reason) -> Alcotest.failf "torn after reopen: %s" reason
      | Error e -> Alcotest.failf "reread: %s" (Wal.describe_read_error e))

let seg_prefix n = List.filteri (fun i _ -> i < n) seg_records

let test_segment_boundary_mutilations () =
  (* torn tail in the final segment: survivable, truncated on open *)
  with_temp_base (fun path ->
      let w = build_seg_log path in
      let active = Wal.active_path w in
      truncate_file active (String.length (read_file active) - 1);
      (match Wal.read ~path () with
      | Ok (records, Wal.Torn _) ->
          Alcotest.(check (list string)) "prefix survives" (seg_prefix 39) records
      | Ok (_, Wal.Clean) -> Alcotest.fail "tail should read torn"
      | Error e -> Alcotest.failf "torn tail must not be fatal: %s" (Wal.describe_read_error e));
      match Wal.open_append ~segment_bytes:128 ~path () with
      | Error e -> Alcotest.failf "open_append: %s" (Wal.describe_read_error e)
      | Ok (w2, records) ->
          Alcotest.(check int) "recovers the prefix" 39 (List.length records);
          Wal.append w2 "move 1 2";
          Wal.close_writer w2;
          (match Wal.read ~path () with
          | Ok (records, Wal.Clean) ->
              Alcotest.(check (list string)) "clean boundary after truncation"
                (seg_prefix 39 @ [ "move 1 2" ]) records
          | Ok (_, Wal.Torn reason) -> Alcotest.failf "still torn: %s" reason
          | Error e -> Alcotest.failf "reread: %s" (Wal.describe_read_error e)));
  (* a half-written rotation header (crash mid-rotation) is a torn
     tail, and open_append repairs it *)
  with_temp_base (fun path ->
      let w = build_seg_log path in
      let next = 1 + fst (List.nth (Wal.segments w) (List.length (Wal.segments w) - 1)) in
      write_file (Wal.seg_name path next) (String.sub Wal.seg_magic 0 4);
      (match Wal.read ~path () with
      | Ok (records, Wal.Torn _) ->
          Alcotest.(check (list string)) "no record lost" seg_records records
      | Ok (_, Wal.Clean) -> Alcotest.fail "torn header should read torn"
      | Error e -> Alcotest.failf "torn header must not be fatal: %s" (Wal.describe_read_error e));
      match Wal.open_append ~segment_bytes:128 ~path () with
      | Error e -> Alcotest.failf "open_append: %s" (Wal.describe_read_error e)
      | Ok (w2, records) ->
          Alcotest.(check int) "rotation repaired" 40 (List.length records);
          Wal.close_writer w2);
  (* the manifest is advisory: deleting or corrupting it blocks nothing *)
  with_temp_base (fun path ->
      ignore (build_seg_log path);
      Sys.remove (Wal.manifest_path path);
      (match Wal.read ~path () with
      | Ok (records, Wal.Clean) ->
          Alcotest.(check int) "reads without a manifest" 40 (List.length records)
      | _ -> Alcotest.fail "a deleted manifest must not block recovery");
      write_file (Wal.manifest_path path) "garbage that is not a manifest\n";
      match Wal.read ~path () with
      | Ok (records, Wal.Clean) ->
          Alcotest.(check int) "reads past a corrupt manifest" 40 (List.length records)
      | _ -> Alcotest.fail "a corrupt manifest must not block recovery");
  (* damage mid-chain is fatal: flipped payload byte in segment 1 *)
  with_temp_base (fun path ->
      ignore (build_seg_log path);
      let seg1 = Wal.seg_name path 1 in
      let data = Bytes.of_string (read_file seg1) in
      let header = String.length Wal.seg_magic + 8 in
      Bytes.set data (header + 8) 'X';
      write_file seg1 (Bytes.to_string data);
      match Wal.read ~path () with
      | Error (Wal.Corrupted _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Wal.describe_read_error e)
      | Ok _ -> Alcotest.fail "mid-chain corruption must be fatal");
  (* a gap in the chain is fatal: a deleted middle segment *)
  with_temp_base (fun path ->
      ignore (build_seg_log path);
      Sys.remove (Wal.seg_name path 2);
      match Wal.read ~path () with
      | Error (Wal.Corrupted _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Wal.describe_read_error e)
      | Ok _ -> Alcotest.fail "a chain gap must be fatal")

let test_segment_gc () =
  with_temp_base @@ fun path ->
  let w = Wal.create_writer ~fsync_every:0 ~segment_bytes:128 ~path () in
  List.iter (Wal.append w) seg_records;
  let segs = Wal.segments w in
  Alcotest.(check bool) "enough segments to gc" true (List.length segs >= 4);
  (* a checkpoint covering up to segment 3's first record frees 1 and 2 *)
  let covered = snd (List.nth segs 2) in
  Alcotest.(check int) "two covered segments dropped" 2 (Wal.gc w ~covered);
  Alcotest.(check int) "base index advanced" covered (Wal.base_index w);
  Alcotest.(check int) "gc is idempotent" 0 (Wal.gc w ~covered);
  Alcotest.(check bool) "gc'd segment gone" false (Sys.file_exists (Wal.seg_name path 1));
  (* covering everything still never deletes the active segment *)
  let closed_left = List.length (Wal.segments w) - 1 in
  Alcotest.(check int) "all closed segments dropped" closed_left
    (Wal.gc w ~covered:(Wal.records_written w));
  Alcotest.(check int) "the active segment survives" 1 (List.length (Wal.segments w));
  let base = Wal.base_index w in
  (* the survivor still appends, and absolute indices are preserved *)
  Wal.append w "join 9999 1 1";
  Alcotest.(check int) "absolute count includes gc'd records" 41 (Wal.records_written w);
  Wal.close_writer w;
  match Wal.read_log ~path () with
  | Error e -> Alcotest.failf "read_log: %s" (Wal.describe_read_error e)
  | Ok li ->
      Alcotest.(check int) "read_log reports the surviving base" base li.Wal.li_base;
      let full = seg_records @ [ "join 9999 1 1" ] in
      Alcotest.(check (list string)) "surviving suffix intact"
        (List.filteri (fun i _ -> i >= base) full)
        li.Wal.li_records

(* satellite: every prefix-truncation of a multi-segment write stream
   recovers to a byte-prefix of what was appended, and the recovered
   floor never goes backwards as more of the history survives *)
let test_every_prefix_of_segmented_log_recovers () =
  let path = "prefix.wal" in
  let fs = Io.Mem.create () in
  let records =
    List.init 25 (fun i -> Printf.sprintf "join %d %d %d" (2000 + i) (i mod 12) (i mod 3))
  in
  let arr = Array.of_list records in
  let w = Wal.create_writer ~io:(Io.Mem.io fs) ~fsync_every:4 ~segment_bytes:160 ~path () in
  List.iter (Wal.append w) records;
  Wal.close_writer w;
  let journal = Array.of_list (Io.Mem.journal fs) in
  Alcotest.(check bool) "the journal saw the whole stream" true
    (Array.length journal > 25);
  (* recover from a crash image (always through a clone: recovery
     repairs the disk it opens) and demand a prefix *)
  let recovered_count image what =
    let io = Io.Mem.io (Io.Mem.clone image) in
    if not (Wal.log_exists ~io ~path ()) then 0
    else
      match Wal.open_append ~io ~path () with
      | Error e ->
          Alcotest.failf "%s: recovery failed: %s" what (Wal.describe_read_error e)
      | Ok (w2, recs) ->
          Wal.close_writer w2;
          List.iteri
            (fun i r ->
              if i >= Array.length arr || r <> arr.(i) then
                Alcotest.failf "%s: record %d diverged from the append stream" what i)
            recs;
          List.length recs
  in
  let floor = ref 0 in
  let replayed = Io.Mem.create () in
  Array.iteri
    (fun i entry ->
      let n = recovered_count replayed (Printf.sprintf "prefix %d" i) in
      if n < !floor then
        Alcotest.failf "prefix %d: recovery went backwards (%d < %d)" i n !floor;
      floor := n;
      (* a power cut mid-write(2): half the bytes of this entry land *)
      (match entry with
      | Io.Mem.Write { data; _ } when String.length data > 1 -> (
          match Io.Mem.cut_write entry (String.length data / 2) with
          | None -> ()
          | Some cut ->
              let torn = Io.Mem.clone replayed in
              Io.Mem.apply torn cut;
              ignore (recovered_count torn (Printf.sprintf "cut inside entry %d" i)))
      | _ -> ());
      Io.Mem.apply replayed entry)
    journal;
  Alcotest.(check int) "the full journal recovers everything" 25
    (recovered_count replayed "full journal")

let test_tailer_across_segments () =
  with_temp_base @@ fun path ->
  let w = Wal.create_writer ~fsync_every:0 ~segment_bytes:128 ~path () in
  let first5 = seg_prefix 5 in
  List.iter (Wal.append w) first5;
  let drain tailer =
    let rec go acc =
      match Wal.poll tailer with
      | Error e -> Alcotest.failf "poll: %s" (Wal.describe_read_error e)
      | Ok [] -> acc
      | Ok records -> go (acc @ records)
    in
    go []
  in
  let tailer =
    match Wal.open_tailer ~path () with
    | Ok t -> t
    | Error e -> Alcotest.failf "open_tailer: %s" (Wal.describe_read_error e)
  in
  Fun.protect
    ~finally:(fun () -> Wal.close_tailer tailer)
    (fun () ->
      Alcotest.(check (list string)) "first poll" first5 (drain tailer);
      (* the writer rotates several times; the tailer follows the chain *)
      List.iteri (fun i r -> if i >= 5 then Wal.append w r) seg_records;
      Wal.close_writer w;
      Alcotest.(check bool) "the writer really rotated" true
        (List.length (Wal.segments w) > 2);
      Alcotest.(check (list string)) "tailer crosses rotations"
        (List.filteri (fun i _ -> i >= 5) seg_records)
        (drain tailer);
      Alcotest.(check int) "tailer cursor is absolute" 40 (Wal.tailer_records tailer));
  (* ~from starts tailing mid-chain, inside the right segment *)
  let tailer =
    match Wal.open_tailer ~from:17 ~path () with
    | Ok t -> t
    | Error e -> Alcotest.failf "open_tailer ~from: %s" (Wal.describe_read_error e)
  in
  Fun.protect
    ~finally:(fun () -> Wal.close_tailer tailer)
    (fun () ->
      Alcotest.(check (list string)) "suffix from record 17"
        (List.filteri (fun i _ -> i >= 17) seg_records)
        (drain tailer))

(* ------------------------------------------------------------------ *)
(* promote safety: a standby must refuse to build on lost ground       *)

let test_promote_refuses_lost_tail () =
  with_temp_path ".wal" @@ fun path ->
  let lines = stream_lines 31 in
  let n = List.length lines in
  let w = Wal.create_writer ~fsync_every:0 ~path () in
  let primary = Daemon.make_session ~wal:w (daemon_config ()) in
  ignore (feed primary lines);
  let follower =
    match Follower.create (daemon_config ()) ~path with
    | Ok f -> f
    | Error m -> Alcotest.failf "follower create: %s" m
  in
  (match Follower.catch_up follower with
  | Ok applied -> Alcotest.(check int) "follower applied everything" n applied
  | Error m -> Alcotest.failf "catch_up: %s" m);
  Wal.close_writer w;
  (* the machine dies and the disk comes back short: the final record
     the tailer read from the page cache never became durable *)
  truncate_file path (String.length (read_file path) - 1);
  (match Follower.promote follower ~fsync_every:32 () with
  | Ok _ -> Alcotest.fail "promotion over lost records must be refused"
  | Error m ->
      Alcotest.(check bool) "the refusal names the lost tail" true
        (String.length m > 0));
  Alcotest.(check bool) "not promoted" false (Follower.is_promoted follower)

let test_promote_refuses_gc_gap () =
  with_temp_base @@ fun path ->
  let lines = stream_lines 31 in
  let n = List.length lines in
  let cut = n / 2 in
  let w = Wal.create_writer ~fsync_every:0 ~segment_bytes:256 ~path () in
  let primary = Daemon.make_session ~wal:w (daemon_config ()) in
  ignore (feed primary (List.filteri (fun i _ -> i < cut) lines));
  let follower =
    match Follower.create (daemon_config ()) ~path with
    | Ok f -> f
    | Error m -> Alcotest.failf "follower create: %s" m
  in
  (match Follower.catch_up follower with
  | Ok applied -> Alcotest.(check int) "follower holds the prefix" cut applied
  | Error m -> Alcotest.failf "catch_up: %s" m);
  (* the primary races ahead and a checkpoint-anchored gc deletes
     ground the lagging follower never tailed *)
  ignore (feed primary (List.filteri (fun i _ -> i >= cut) lines));
  ignore (Wal.gc w ~covered:(Wal.records_written w));
  Alcotest.(check bool) "gc really outran the follower" true
    (Wal.base_index w > cut);
  Wal.close_writer w;
  (match Follower.promote follower ~fsync_every:32 () with
  | Ok _ -> Alcotest.fail "promotion across a gc gap must be refused"
  | Error m ->
      Alcotest.(check bool) "the refusal mentions gc" true
        (String.length m > 0));
  Alcotest.(check bool) "not promoted" false (Follower.is_promoted follower)

(* the tailer drains segment N, then looks for N+1; a writer that
   appends to N and rotates in between must not read as corruption *)
let test_tailer_survives_append_then_rotate () =
  let fs = Io.Mem.create () in
  let path = "race.wal" in
  let w =
    Wal.create_writer ~io:(Io.Mem.io fs) ~fsync_every:0 ~segment_bytes:128 ~path ()
  in
  let record i = Printf.sprintf "join %d 1 1" (3000 + i) in
  let appended = ref 0 in
  let append_one () =
    Wal.append w (record !appended);
    incr appended
  in
  for _ = 1 to 3 do append_one () done;
  let mem = Io.Mem.io fs in
  let armed = ref false in
  (* on the tailer's first look for a successor: fill the segment it
     just drained and rotate past it *)
  let exists p =
    if !armed then begin
      armed := false;
      let segments = List.length (Wal.segments w) in
      while List.length (Wal.segments w) = segments do append_one () done
    end;
    mem.Io.exists p
  in
  let tailer =
    match Wal.open_tailer ~io:{ mem with Io.exists } ~path () with
    | Ok t -> t
    | Error e -> Alcotest.failf "open_tailer: %s" (Wal.describe_read_error e)
  in
  armed := true;
  match Wal.poll tailer with
  | Error e -> Alcotest.failf "poll across the rotation: %s" (Wal.describe_read_error e)
  | Ok got ->
      Alcotest.(check bool) "records landed in the drained segment" true
        (!appended - 3 >= 2);
      Alcotest.(check (list string)) "every record, in order"
        (List.init !appended record) got

(* ------------------------------------------------------------------ *)
(* the one recovery rule: Daemon.recover                               *)

let engine_fingerprint session =
  match Daemon.session_engine session with
  | Some e -> Engine.fingerprint e
  | None -> Alcotest.fail "session has no engine"

(* a session holding the first [k] records, rebuilt through an engine
   checkpoint as [serve --resume] rebuilds it *)
let snapshot_session lines ~seed k =
  let live = Daemon.make_session (daemon_config ()) in
  ignore (feed live (List.filteri (fun i _ -> i < k) lines));
  let engine =
    match Daemon.session_engine live with
    | Some e -> e
    | None -> Alcotest.fail "snapshot source has no engine"
  in
  let world = World.generate (Rng.create ~seed) service_scenario in
  Daemon.resume_session (daemon_config ())
    ~engine:(Engine.restore ~world Engine.default_config (Engine.checkpoint engine))
    ~scenario:notation ~seed ~wal_records:(Daemon.wal_records live)
    ~response_seq:(Daemon.response_seq live)

let mem_log ?segment_bytes ?(gc = false) fs lines =
  let w =
    Wal.create_writer ~io:(Io.Mem.io fs) ~fsync_every:0 ?segment_bytes
      ~path:"recover.wal" ()
  in
  List.iter (Wal.append w) lines;
  if gc then ignore (Wal.gc w ~covered:(Wal.records_written w) : int);
  Wal.close_writer w

let test_recover_table () =
  let seed = 31 in
  let lines = stream_lines seed in
  let n = List.length lines in
  let k = n / 2 in
  let prefix m = List.filteri (fun i _ -> i < m) lines in
  let reference =
    let s = Daemon.make_session (daemon_config ()) in
    ignore (feed s lines);
    engine_fingerprint s
  in
  let fresh () = Daemon.make_session (daemon_config ()) in
  let cases =
    [
      ("no log, fresh session: the log is created", ignore, fresh, Some 0);
      ("a log, fresh session: full replay", (fun fs -> mem_log fs lines), fresh, Some n);
      ( "a log, snapshot session: only the suffix",
        (fun fs -> mem_log fs lines),
        (fun () -> snapshot_session lines ~seed k),
        Some (n - k) );
      ( "a gc'd head, fresh session: refused",
        (fun fs -> mem_log ~segment_bytes:256 ~gc:true fs lines),
        fresh,
        None );
      ( "a log shorter than the snapshot: refused",
        (fun fs -> mem_log fs (prefix (k / 2))),
        (fun () -> snapshot_session lines ~seed k),
        None );
      ( "no log, applied > 0: refused",
        ignore,
        (fun () -> snapshot_session lines ~seed k),
        None );
    ]
  in
  List.iter
    (fun (what, disk, make, expect) ->
      let fs = Io.Mem.create () in
      disk fs;
      let io = Io.Mem.io fs in
      let session = make () in
      let applied = Daemon.wal_records session in
      let on_disk () =
        if not (Wal.log_exists ~io ~path:"recover.wal" ()) then None
        else
          match Wal.read_log ~io ~path:"recover.wal" () with
          | Ok li -> Some (li.Wal.li_base + List.length li.Wal.li_records)
          | Error e -> Alcotest.failf "%s: reread: %s" what (Wal.describe_read_error e)
      in
      let before = on_disk () in
      match (Daemon.recover ~io ~fsync_every:0 session ~path:"recover.wal", expect) with
      | Ok replayed, Some want ->
          Alcotest.(check int) (what ^ ": records replayed") want replayed;
          let total = applied + replayed in
          Alcotest.(check int) (what ^ ": session position") total
            (Daemon.wal_records session);
          if total = n then
            Alcotest.(check string) (what ^ ": engine matches the uninterrupted run")
              reference (engine_fingerprint session);
          (* the writer is attached: the next accepted line is logged *)
          let next = if total = 0 then List.hd lines else "t 999999.000000" in
          ignore (feed session [ next ]);
          Alcotest.(check (option int)) (what ^ ": the log grows with the session")
            (Some (total + 1)) (on_disk ())
      | Error (Daemon.Refused _), None ->
          Alcotest.(check int) (what ^ ": nothing applied") applied
            (Daemon.wal_records session);
          Alcotest.(check (option int)) (what ^ ": the log is untouched") before
            (on_disk ())
      | Ok replayed, None -> Alcotest.failf "%s: recovered %d records" what replayed
      | Error e, _ -> Alcotest.failf "%s: %s" what (Daemon.describe_recover_error e))
    cases

(* a promoted standby's next durable checkpoint drops the segments it
   covers, exactly as the primary's would have *)
let test_promoted_follower_gcs_its_log () =
  with_temp_base @@ fun path ->
  let lines = stream_lines 31 in
  let n = List.length lines in
  let w = Wal.create_writer ~fsync_every:0 ~segment_bytes:256 ~path () in
  ignore (feed (Daemon.make_session ~wal:w (daemon_config ())) lines);
  Wal.close_writer w;
  let covered = ref [] in
  let config =
    {
      (daemon_config ()) with
      Daemon.checkpoint_sink =
        Some
          (fun _ ~wal_records ~response_seq:_ ->
            covered := wal_records :: !covered;
            true);
    }
  in
  let segments () =
    match Wal.read_log ~path () with
    | Ok li -> List.length li.Wal.li_segments
    | Error e -> Alcotest.failf "read_log: %s" (Wal.describe_read_error e)
  in
  let follower =
    match Follower.create config ~path with
    | Ok f -> f
    | Error m -> Alcotest.failf "follower create: %s" m
  in
  (match Follower.catch_up follower with
  | Ok applied -> Alcotest.(check int) "follower applied everything" n applied
  | Error m -> Alcotest.failf "catch_up: %s" m);
  (match Follower.promote follower ~fsync_every:0 ~segment_bytes:256 () with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "promote: %s" m);
  Alcotest.(check bool) "the log spans several segments" true (segments () > 2);
  (match Daemon.finish_session_send (Follower.session follower) ~send:ignore with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "finish: %s" m);
  Alcotest.(check (list int)) "one checkpoint, at the tip" [ n ] !covered;
  Alcotest.(check int) "every covered segment dropped" 1 (segments ())

(* ------------------------------------------------------------------ *)
(* typed failure policy: degraded mode and fsyncgate                   *)

let test_enospc_trips_sticky_degraded_mode () =
  let lines = stream_lines 17 in
  let fs = Io.Mem.create () in
  (* ops: op 0 is create_writer's magic, then one write(2) per append —
     op 4 lands on the 4th appended record, mid-stream *)
  let io, inj = Io.faulty (Io.plan [ (4, Io.Enospc) ]) (Io.Mem.io fs) in
  let w = Wal.create_writer ~io ~fsync_every:0 ~path:"degraded.wal" () in
  let session = Daemon.make_session ~wal:w (daemon_config ()) in
  let responses = feed session lines in
  Alcotest.(check int) "the fault fired exactly once" 1 (Io.faults_injected inj);
  (match Daemon.degraded_reason session with
  | Some _ -> ()
  | None -> Alcotest.fail "a failed wal write must trip degraded mode");
  let shed_wal_failed =
    List.filter
      (fun r ->
        match Proto.parse_response r with
        | Ok (Proto.Shed { reason = Proto.Wal_failed; _ }) -> true
        | _ -> false)
      responses
  in
  (* sticky: every event after the fault is refused, not just the one
     whose write failed *)
  Alcotest.(check bool) "events after the fault are shed wal-failed" true
    (List.length shed_wal_failed > 1);
  (* the log holds exactly the records acknowledged before the fault,
     and nothing after: replaying it must not diverge. Op 0 wrote the
     magic, ops 1-3 persisted records 0-2, op 4 (record 3) failed. *)
  Alcotest.(check int) "no record acknowledged after the fault" 3
    (Daemon.wal_records session)

let test_fsyncgate_poisons_the_writer () =
  let fs = Io.Mem.create () in
  (* fsync_every:1 makes ops alternate write/fsync after the magic:
     op 2 is the first record's fsync *)
  let io, inj = Io.faulty (Io.plan [ (2, Io.Fsync_fail) ]) (Io.Mem.io fs) in
  let w = Wal.create_writer ~io ~fsync_every:1 ~path:"fsync.wal" () in
  (match Wal.append w "hello 5s-12z-120c-60cp 7" with
  | () -> Alcotest.fail "the doomed fsync must raise"
  | exception Wal.Fsync_error _ -> ());
  Alcotest.(check int) "the fault fired" 1 (Io.faults_injected inj);
  (* the writer is poisoned: every later operation re-raises instead of
     retrying the fsync (fsyncgate — a retry could claim durability the
     kernel already gave up on) *)
  (match Wal.append w "t 0.5" with
  | () -> Alcotest.fail "append on a poisoned writer must re-raise"
  | exception Wal.Fsync_error _ -> ());
  (match Wal.sync w with
  | () -> Alcotest.fail "sync on a poisoned writer must re-raise"
  | exception Wal.Fsync_error _ -> ());
  (* close is cleanup, not a durability claim: the failure already
     surfaced, so a poisoned close must not raise a second time *)
  match Wal.close_writer w with
  | () -> ()
  | exception Wal.Fsync_error _ ->
      Alcotest.fail "poisoned close must not re-raise during cleanup"

(* ------------------------------------------------------------------ *)
(* snapshot envelope through the injectable io                         *)

let test_envelope_writes_through_io () =
  let fs = Io.Mem.create () in
  let payload = String.init 1024 (fun i -> Char.chr (i mod 256)) in
  (match Envelope.write ~io:(Io.Mem.io fs) ~path:"snap.bin" ~kind:"test-kind" payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mem write: %s" (Envelope.describe e));
  Alcotest.(check bool) "the temp file was renamed away" true
    (Io.Mem.file fs "snap.bin.tmp" = None);
  let raw =
    match Io.Mem.file fs "snap.bin" with
    | Some raw -> raw
    | None -> Alcotest.fail "snapshot missing from the mem fs"
  in
  (* the bytes are a real envelope: the ordinary reader accepts them *)
  with_temp_path ".snap" (fun path ->
      write_file path raw;
      match Envelope.read ~path ~kind:"test-kind" with
      | Ok got -> Alcotest.(check string) "payload round-trips" payload got
      | Error e -> Alcotest.failf "read back: %s" (Envelope.describe e));
  (* ENOSPC before the rename: the write fails typed and the previous
     snapshot survives untouched *)
  let io, _inj = Io.faulty (Io.plan [ (0, Io.Enospc) ]) (Io.Mem.io fs) in
  (match Envelope.write ~io ~path:"snap.bin" ~kind:"test-kind" "v2" with
  | Error (Envelope.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Envelope.describe e)
  | Ok () -> Alcotest.fail "a full disk must fail the write");
  Alcotest.(check bool) "no temp file left behind" true
    (Io.Mem.file fs "snap.bin.tmp" = None);
  match Io.Mem.file fs "snap.bin" with
  | Some still -> Alcotest.(check string) "previous snapshot intact" raw still
  | None -> Alcotest.fail "the failed write destroyed the previous snapshot"

(* ------------------------------------------------------------------ *)
(* the torture harness itself, on a small stream                       *)

let test_disk_torture_harness () =
  let lines = List.filteri (fun i _ -> i < 30) (stream_lines 5) in
  (* Every replayed prefix resolves the same hello: generate the world
     and run the bootstrap solve once per seed. [Engine.create] copies
     the assignment and only reads the world, so each replay still
     starts from a fresh engine. *)
  let bootstrap = Hashtbl.create 1 in
  let resolve ~scenario ~seed =
    ignore scenario;
    let world, assignment =
      match Hashtbl.find_opt bootstrap seed with
      | Some built -> built
      | None ->
          let world = World.generate (Rng.create ~seed) service_scenario in
          let assignment = Two_phase.run Two_phase.grez_grec (Rng.create ~seed) world in
          Hashtbl.add bootstrap seed (world, assignment);
          (world, assignment)
    in
    Ok (Engine.create ~world ~assignment Engine.default_config)
  in
  match Disk_torture.run ~segment_bytes:256 ~resolve ~lines ~seed:5 () with
  | Error m -> Alcotest.failf "torture: %s" m
  | Ok r ->
      Alcotest.(check bool) "every journal prefix was replayed" true
        (r.Disk_torture.prefixes_checked >= r.Disk_torture.journal_entries);
      Alcotest.(check bool) "mid-write cuts were probed" true
        (r.Disk_torture.cuts_checked > 0);
      Alcotest.(check bool) "scheduled faults ran" true
        (r.Disk_torture.fault_runs > 0);
      Alcotest.(check bool) "power cuts ran" true
        (r.Disk_torture.power_cut_runs > 0)

(* ------------------------------------------------------------------ *)
(* supervisor policy (scripted virtual machine)                        *)

type script_state = {
  mutable clock : float;
  mutable next_pid : int;
  mutable spawned : (Supervisor.role * int) list;  (* newest first *)
  mutable promoted : int list;
  mutable killed : int list;
  mutable slept : float list;
  mutable waits : (int * Unix.process_status) list;
}

let scripted ?(on_wait = fun _ -> ()) () =
  let st =
    {
      clock = 0.;
      next_pid = 100;
      spawned = [];
      promoted = [];
      killed = [];
      slept = [];
      waits = [];
    }
  in
  let actions =
    {
      Supervisor.spawn =
        (fun role ->
          let pid = st.next_pid in
          st.next_pid <- pid + 1;
          st.spawned <- (role, pid) :: st.spawned;
          Ok pid);
      promote =
        (fun ~pid ->
          st.promoted <- pid :: st.promoted;
          Ok ());
      wait =
        (fun () ->
          on_wait st;
          match st.waits with
          | [] -> Alcotest.fail "supervisor waited with no scripted status"
          | w :: rest ->
              st.waits <- rest;
              w);
      kill = (fun ~pid -> st.killed <- pid :: st.killed);
      sleep =
        (fun d ->
          st.slept <- d :: st.slept;
          st.clock <- st.clock +. d);
      now = (fun () -> st.clock);
      log = (fun _ -> ());
    }
  in
  st, actions

let config ?(with_standby = false) ?(max_crashes = 3) () =
  {
    Supervisor.backoff_base = 0.1;
    backoff_max = 1.0;
    crash_window = 10.0;
    max_crashes;
    with_standby;
  }

let test_supervisor_clean_exit () =
  let st, actions = scripted () in
  st.waits <- [ (100, Unix.WEXITED 0) ];
  (match Supervisor.run (config ()) actions with
  | Supervisor.Clean_exit -> ()
  | o -> Alcotest.failf "expected clean exit, got %s" (Supervisor.describe_outcome o));
  Alcotest.(check int) "one spawn" 1 (List.length st.spawned)

let test_supervisor_unrecoverable () =
  let st, actions = scripted () in
  st.waits <- [ (100, Unix.WEXITED 2) ];
  match Supervisor.run (config ()) actions with
  | Supervisor.Unrecoverable 2 -> ()
  | o -> Alcotest.failf "expected unrecoverable, got %s" (Supervisor.describe_outcome o)

let test_supervisor_backoff_restart () =
  let st, actions = scripted () in
  st.waits <-
    [
      (100, Unix.WSIGNALED Sys.sigkill);
      (101, Unix.WSIGNALED Sys.sigsegv);
      (102, Unix.WEXITED 0);
    ];
  (match Supervisor.run (config ()) actions with
  | Supervisor.Clean_exit -> ()
  | o -> Alcotest.failf "expected clean exit, got %s" (Supervisor.describe_outcome o));
  Alcotest.(check int) "three spawns" 3 (List.length st.spawned);
  (* exponential: 0.1 then 0.2 *)
  Alcotest.(check (list (float 1e-9))) "backoff doubles" [ 0.2; 0.1 ] st.slept

let test_supervisor_crash_loop_breaker () =
  let st, actions = scripted () in
  st.waits <- List.init 10 (fun i -> (100 + i, Unix.WSIGNALED Sys.sigkill));
  match Supervisor.run (config ~max_crashes:3 ()) actions with
  | Supervisor.Crash_loop 4 -> ()
  | o -> Alcotest.failf "expected crash loop at 4, got %s" (Supervisor.describe_outcome o)

let test_supervisor_window_forgives_old_crashes () =
  (* crashes spaced wider than the window never accumulate *)
  let on_wait st = st.clock <- st.clock +. 100. in
  let st, actions = scripted ~on_wait () in
  st.waits <-
    List.init 8 (fun i -> (100 + i, Unix.WSIGNALED Sys.sigkill))
    @ [ (108, Unix.WEXITED 0) ];
  (match Supervisor.run (config ~max_crashes:2 ()) actions with
  | Supervisor.Clean_exit -> ()
  | o -> Alcotest.failf "expected clean exit, got %s" (Supervisor.describe_outcome o));
  Alcotest.(check int) "nine spawns" 9 (List.length st.spawned)

let test_supervisor_failover_beats_restart () =
  let st, actions = scripted () in
  (* primary 100, standby 101; primary dies -> 101 promoted, 102 spawned
     as the new standby; promoted primary then exits cleanly *)
  st.waits <- [ (100, Unix.WSIGNALED Sys.sigkill); (101, Unix.WEXITED 0) ];
  (match Supervisor.run (config ~with_standby:true ()) actions with
  | Supervisor.Clean_exit -> ()
  | o -> Alcotest.failf "expected clean exit, got %s" (Supervisor.describe_outcome o));
  Alcotest.(check (list int)) "standby was promoted" [ 101 ] st.promoted;
  Alcotest.(check (list int)) "no backoff on failover" [] (List.map int_of_float st.slept);
  Alcotest.(check (list int)) "replacement standby killed at clean exit" [ 102 ] st.killed;
  let roles = List.rev_map fst st.spawned in
  Alcotest.(check int) "three children total" 3 (List.length roles);
  match roles with
  | [ Supervisor.Primary; Supervisor.Standby; Supervisor.Standby ] -> ()
  | _ -> Alcotest.fail "spawn order should be primary, standby, standby"

let test_supervisor_standby_crash_respawns () =
  let st, actions = scripted () in
  (* the standby (101) dies; a new one (102) replaces it; then the
     primary exits cleanly and 102 is reaped *)
  st.waits <- [ (101, Unix.WSIGNALED Sys.sigkill); (100, Unix.WEXITED 0) ];
  (match Supervisor.run (config ~with_standby:true ()) actions with
  | Supervisor.Clean_exit -> ()
  | o -> Alcotest.failf "expected clean exit, got %s" (Supervisor.describe_outcome o));
  Alcotest.(check (list int)) "nothing promoted" [] st.promoted;
  Alcotest.(check (list int)) "replacement standby killed" [ 102 ] st.killed

(* ------------------------------------------------------------------ *)
(* socket binding (satellite f)                                        *)

let test_bind_unix_reclaims_stale_socket () =
  let dir = Filename.temp_file "cap_wal_sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "d.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* first bind on a fresh path *)
      let fd =
        match Daemon.bind_unix ~path () with
        | Ok fd -> fd
        | Error e -> Alcotest.failf "fresh bind: %s" (Daemon.describe_bind_error e)
      in
      (* a crashed daemon leaves the file behind with nobody accepting *)
      Unix.close fd;
      Alcotest.(check bool) "stale socket file left behind" true (Sys.file_exists path);
      let fd =
        match Daemon.bind_unix ~path () with
        | Ok fd -> fd
        | Error e ->
            Alcotest.failf "stale socket must be reclaimed: %s"
              (Daemon.describe_bind_error e)
      in
      (* a live listener must NOT be evicted *)
      Unix.listen fd 8;
      (match Daemon.bind_unix ~path () with
      | Error (Daemon.Address_in_use _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Daemon.describe_bind_error e)
      | Ok fd2 ->
          Unix.close fd2;
          Alcotest.fail "binding over a live daemon must fail");
      Unix.close fd)

let tests =
  [
    ( "wal",
      [
        case "crc32 matches the IEEE check value" test_crc32_vector;
        case "records round-trip with a clean tail" test_round_trip;
        case "oversized payloads are rejected" test_append_rejects_oversized;
        case "torn tails read clean and truncate on open" test_torn_tails;
        case "mid-log corruption is fatal" test_corruption_is_fatal;
        case "tailer yields only complete records" test_tailer_incremental;
        case "kill + WAL replay is bitwise-identical (3 seeds x 3 kills)"
          test_kill_resume_seeds;
        case "resume outside the window answers err" test_resume_protocol_errors;
        QCheck_alcotest.to_alcotest prop_parse_never_raises;
        QCheck_alcotest.to_alcotest prop_parse_fuzzed_requests;
        case "oversized lines get the typed error" test_parse_oversized;
        case "client reconnects with exactly-once resume"
          test_client_reconnects_exactly_once;
        case "follower tails, promotes, and matches the primary"
          test_follower_promote_identity;
        case "segments rotate, read back whole, and reopen appendable"
          test_segment_rotation_round_trip;
        case "segment-boundary damage: torn tails heal, mid-chain is fatal"
          test_segment_boundary_mutilations;
        case "gc drops covered segments, never the active one" test_segment_gc;
        case "every prefix of a segmented write stream recovers"
          test_every_prefix_of_segmented_log_recovers;
        case "tailer follows rotation and starts mid-chain" test_tailer_across_segments;
        case "promote refuses a tail the disk lost" test_promote_refuses_lost_tail;
        case "promote refuses ground gc deleted" test_promote_refuses_gc_gap;
        case "enospc trips sticky degraded mode" test_enospc_trips_sticky_degraded_mode;
        case "a failed fsync poisons the writer" test_fsyncgate_poisons_the_writer;
        case "snapshot envelope writes through the injectable io"
          test_envelope_writes_through_io;
        case "disk torture harness passes on a short stream"
          test_disk_torture_harness;
        case "supervisor: clean exit stops supervision" test_supervisor_clean_exit;
        case "supervisor: exit 2 is not restarted" test_supervisor_unrecoverable;
        case "supervisor: crashes restart with doubling backoff"
          test_supervisor_backoff_restart;
        case "supervisor: circuit breaker opens on a crash loop"
          test_supervisor_crash_loop_breaker;
        case "supervisor: the window forgives old crashes"
          test_supervisor_window_forgives_old_crashes;
        case "supervisor: failover beats restart" test_supervisor_failover_beats_restart;
        case "supervisor: a dead standby is replaced"
          test_supervisor_standby_crash_respawns;
        case "bind reclaims stale sockets, refuses live ones"
          test_bind_unix_reclaims_stale_socket;
        case "tailer drains a segment the writer finished after its poll"
          test_tailer_survives_append_then_rotate;
        case "recover: one rule for every way onto a log" test_recover_table;
        case "a promoted standby gcs at its next checkpoint"
          test_promoted_follower_gcs_its_log;
      ] );
  ]
