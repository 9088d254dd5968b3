module Proto = Cap_service.Proto
module Daemon = Cap_service.Daemon
module Engine = Cap_service.Engine
module Net = Cap_service.Net
module Wal = Cap_service.Wal
module Io = Cap_service.Io
module Loadgen = Cap_service.Loadgen
module World = Cap_model.World
module Assignment = Cap_model.Assignment
module Rng = Cap_util.Rng
module Samples = Common.Samples

let now_ns = Common.now_ns
let since = Common.since

type spec = {
  scenario : string;
  mix : Loadgen.mix;
  durable : bool;
  lo_rate : float;
  hi_rate : float;
  slo_p99_us : float;
}

let mix_1_1_8 = { Loadgen.join = 1.; leave = 1.; move = 8. }

(* The durable world re-optimizes in about 0.6 ms every 512 events. At
   20k ev/s about 2% of events arrive during one, so the p99 lies inside
   the stall; at 10k ev/s it would sit on the stall's edge, where it
   swings three times as much as the stall length does. *)
let durable =
  {
    scenario = "20s-80z-500c-1000cp";
    mix = mix_1_1_8;
    durable = true;
    lo_rate = 20_000.;
    hi_rate = 40_000.;
    slo_p99_us = 10_000.;
  }

let engine =
  {
    scenario = "50s-200z-5000c-40000cp";
    mix = mix_1_1_8;
    durable = false;
    lo_rate = 5_000.;
    hi_rate = 12_000.;
    slo_p99_us = 25_000.;
  }

(* ------------------------------------------------------------------ *)
(* The request stream                                                  *)

(* The world is the deployment and stays the same on every run; the
   seed draws the traffic. Worlds of one scenario differ a lot in
   re-optimization cost (2x in p99 between seeds), which would swamp
   any change a later commit makes. *)
let world_seed = Common.world_seed

type stream = {
  input : string;  (* hello, request lines, end — what the peer sends *)
  hello_end : int;
  line_end : int array;  (* byte offset just past request line i *)
  line_at : float array;  (* stream time of request line i *)
  lines : Proto.line array;
  event_line : int array;  (* request line of event k *)
  ids : int array;  (* id event k's primary response must carry *)
}

let make_stream spec ~world ~seed ~events =
  let config =
    {
      Loadgen.default_config with
      Loadgen.rate = spec.lo_rate;
      duration = float_of_int events /. spec.lo_rate;
      mix = spec.mix;
    }
  in
  let buf = Buffer.create (32 * events) in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let hello_end = ref 0 and at = ref 0. and lines = ref [] in
  let request line text =
    add text;
    lines := (line, Buffer.length buf, !at) :: !lines
  in
  let emit = function
    | Proto.Hello { scenario; seed } ->
        add (Proto.format_hello ~scenario ~seed);
        hello_end := Buffer.length buf
    | Proto.End -> add Proto.format_end
    | Proto.Time t as line ->
        at := t;
        request line (Proto.format_time t)
    | Proto.Event e as line -> request line (Proto.format_event e)
    | Proto.Resume n as line -> request line (Proto.format_resume n)
  in
  ignore (Loadgen.run (Rng.create ~seed) ~world ~world_seed config ~emit : int);
  let all = Array.of_list (List.rev !lines) in
  let event_line =
    Array.to_list all
    |> List.mapi (fun i (line, _, _) ->
           match line with Proto.Event _ -> Some i | _ -> None)
    |> List.filter_map Fun.id |> Array.of_list
  in
  {
    input = Buffer.contents buf;
    hello_end = !hello_end;
    line_end = Array.map (fun (_, e, _) -> e) all;
    line_at = Array.map (fun (_, _, t) -> t) all;
    lines = Array.map (fun (l, _, _) -> l) all;
    event_line;
    ids =
      Array.map
        (fun i ->
          match all.(i) with
          | Proto.Event e, _, _ -> Matcher.expected_id e
          | _ -> assert false)
        event_line;
  }

let raw_line st i =
  let start = if i = 0 then st.hello_end else st.line_end.(i - 1) in
  String.sub st.input start (st.line_end.(i) - start - 1)

(* ------------------------------------------------------------------ *)
(* Hello resolution: what [capsim serve] does for a hello line          *)

type setup = {
  world_s : float;
  two_phase_s : float;
  create_s : float;
  total_s : float;
}

let resolve_full ?record ~scenario ~seed () =
  let t0 = now_ns () in
  match Cap_model.Validate.scenario_notation scenario with
  | Error issue -> Error (Cap_model.Validate.describe issue)
  | Ok parsed ->
      let t1 = now_ns () in
      let rng = Rng.create ~seed in
      let world = World.generate rng parsed in
      let t2 = now_ns () in
      let assignment = Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.split rng) world in
      let t3 = now_ns () in
      let engine = Engine.create ~world ~assignment Engine.default_config in
      let ns a b = float_of_int (b - a) *. 1e-9 in
      Option.iter
        (fun f ->
          f ~world ~assignment
            {
              world_s = ns t1 t2;
              two_phase_s = ns t2 t3;
              create_s = since t3;
              total_s = since t0;
            })
        record;
      Ok engine

type ctx = {
  spec : spec;
  stream : stream;
  world : World.t;
  assignment : Assignment.t;
  wal_path : string;
}

(* Phases reuse the setup's world and bootstrap solve; [Engine.create]
   copies its inputs, so every phase still starts from a fresh engine. *)
let fresh_engine ctx =
  Engine.create ~world:ctx.world ~assignment:ctx.assignment Engine.default_config

let memo_resolve ctx ~scenario ~seed =
  if seed = world_seed && scenario = Cap_model.Scenario.notation ctx.world.World.scenario then
    Ok (fresh_engine ctx)
  else Error "hello does not match the benchmark's world"

let daemon_config resolve =
  {
    Daemon.resolve;
    checkpoint_every = None;
    checkpoint_sink = None;
    echo_responses = true;
    resume_window = Daemon.default_resume_window;
  }

(* ------------------------------------------------------------------ *)
(* Tracing wrappers                                                     *)

type tracer = {
  sp : Spans.t;
  poll : int;
  fab_wait : int;
  fab_read : int;
  fab_write : int;
  handle : int;
  send : int;
  wal_write : int;
  wal_fsync : int;
  fsyncs : Samples.t;
  mutable minor_words : float;
  mutable majors : int;
}

let tracer ~keep =
  let sp = Spans.create ~keep in
  {
    sp;
    poll = Spans.name sp "net.poll";
    fab_wait = Spans.name sp "fabric.wait";
    fab_read = Spans.name sp "fabric.read";
    fab_write = Spans.name sp "fabric.write";
    handle = Spans.name sp "daemon.handle_line";
    send = Spans.name sp "daemon.send";
    wal_write = Spans.name sp "wal.write";
    wal_fsync = Spans.name sp "wal.fsync";
    fsyncs = Samples.create ();
    minor_words = 0.;
    majors = 0;
  }

let traced_backend tr (bk : Net.backend) =
  let sock (s : Net.sock) =
    {
      s with
      Net.sock_read =
        (fun b off len ->
          Spans.enter tr.sp tr.fab_read;
          let r = s.Net.sock_read b off len in
          Spans.leave tr.sp;
          r);
      sock_write =
        (fun str off len ->
          Spans.enter tr.sp tr.fab_write;
          let r = s.Net.sock_write str off len in
          Spans.leave tr.sp;
          r);
    }
  in
  {
    bk with
    Net.bk_accept =
      (fun () -> match bk.Net.bk_accept () with `Conn s -> `Conn (sock s) | `Again -> `Again);
    bk_wait =
      (fun ~timeout ~accept ~read ~write ->
        Spans.enter tr.sp tr.fab_wait;
        let r = bk.Net.bk_wait ~timeout ~accept ~read ~write in
        Spans.leave tr.sp;
        r);
  }

let traced_io tr (io : Io.t) =
  {
    io with
    Io.open_out_ =
      (fun ~create ~trunc path ->
        let f = io.Io.open_out_ ~create ~trunc path in
        {
          f with
          Io.f_write =
            (fun b off len ->
              Spans.enter tr.sp tr.wal_write;
              match f.Io.f_write b off len with
              | n ->
                  Spans.leave tr.sp;
                  n
              | exception e ->
                  Spans.leave tr.sp;
                  raise e);
          f_fsync =
            (fun () ->
              Spans.enter tr.sp tr.wal_fsync;
              match f.Io.f_fsync () with
              | () ->
                  Spans.leave tr.sp;
                  Samples.push tr.fsyncs (Spans.last_s tr.sp)
              | exception e ->
                  Spans.leave tr.sp;
                  raise e);
        });
  }

(* ------------------------------------------------------------------ *)
(* One phase: the whole stream through a fresh daemon                   *)

type phase = {
  busy : float;
  polls : int;
  latency : float array;  (* seconds, per event *)
  transcript : string;
  failed : int;
  problems : string list;
  sheds : int;
  write_calls : int;
  wal_bytes : int;
  session : Daemon.session;
}

(* A durable phase writes its WAL to [ctx.wal_path] on the real
   filesystem, with write(2) per record and fsync every 32, as
   [capsim serve --wal] does. *)
let run_phase ctx ~scale ?tracer () =
  let st = ctx.stream in
  let fabric = Fabric.create st.input in
  let backend = Fabric.backend fabric in
  let backend, io =
    match tracer with
    | None -> (backend, Io.real)
    | Some tr -> (traced_backend tr backend, traced_io tr Io.real)
  in
  let wal =
    if ctx.spec.durable then Some (Wal.create_writer ~io ~path:ctx.wal_path ()) else None
  in
  let session = Daemon.make_session ?wal (daemon_config (memo_resolve ctx)) in
  let finished = ref None and fatal = ref None in
  let handle_line =
    match tracer with
    | None -> Daemon.handle_line session
    | Some tr ->
        fun ~send raw ->
          Spans.enter tr.sp tr.handle;
          match Daemon.handle_line session ~send raw with
          | r ->
              Spans.leave tr.sp;
              r
          | exception e ->
              Spans.leave tr.sp;
              raise e
  in
  let on_line reactor ~conn raw =
    let send =
      match tracer with
      | None -> fun line -> Net.Reactor.send reactor conn line
      | Some tr ->
          fun line ->
            Spans.enter tr.sp tr.send;
            Net.Reactor.send reactor conn line;
            Spans.leave tr.sp
    in
    match handle_line ~send raw with
    | `Continue -> `Continue
    | `End ->
        finished := Some (Daemon.finish_session_send session ~send);
        `Stop
    | `Fatal message ->
        fatal := Some message;
        `Stop
  in
  let reactor = Net.Reactor.create backend in
  let poll () = Net.Reactor.poll_once reactor ~on_line in
  let matcher = Matcher.create st.ids in
  let ignore_answer (_ : int) = () in
  (* Untimed: the first poll accepts the connection, the next reads the
     hello and resolves it. *)
  Fabric.deliver fabric st.hello_end;
  let rec settle budget =
    ignore (poll () : [ `Progress | `Stopped | `Stalled ]);
    if Fabric.unread fabric > 0 && budget > 0 then settle (budget - 1)
  in
  settle 10;
  Matcher.feed matcher (Fabric.take_output fabric) ~on_answer:ignore_answer;
  Option.iter (fun tr -> Spans.reset tr.sp) tracer;
  let latency = Array.make (Array.length st.ids) 0. in
  let due = Array.map (fun at -> at *. scale) st.line_at in
  let status = ref `Progress in
  let timed_poll ~clock =
    Fabric.set_now fabric clock;
    match tracer with
    | None ->
        let t0 = now_ns () in
        let r = poll () in
        let dt = now_ns () - t0 in
        status := r;
        float_of_int dt *. 1e-9
    | Some tr ->
        let majors0 = (Gc.quick_stat ()).Gc.major_collections in
        let words0 = Gc.minor_words () in
        Spans.enter tr.sp tr.poll;
        let r = poll () in
        Spans.leave tr.sp;
        let words1 = Gc.minor_words () in
        tr.majors <- tr.majors + (Gc.quick_stat ()).Gc.major_collections - majors0;
        tr.minor_words <- tr.minor_words +. (words1 -. words0);
        status := r;
        Spans.last_s tr.sp
  in
  let polls = ref 0 in
  let outcome =
    Open_loop.run ~due
      ~deliver:(fun k -> Fabric.deliver fabric st.line_end.(k - 1))
      ~idle:(fun () -> Fabric.unread fabric = 0)
      ~poll:(fun ~clock ->
        Option.iter (fun tr -> Spans.set_range tr.sp !polls) tracer;
        incr polls;
        timed_poll ~clock)
      ~answered:(fun ~clock ->
        Matcher.feed matcher (Fabric.take_output fabric) ~on_answer:(fun k ->
            latency.(k) <- clock -. due.(st.event_line.(k)));
        Matcher.complete matcher || !status <> `Progress)
  in
  let write_calls = Fabric.write_calls fabric in
  let wal_bytes = match wal with Some w -> Wal.total_bytes w | None -> 0 in
  Fabric.deliver fabric (String.length st.input);
  let rec drain budget =
    if budget > 0 then
      match poll () with `Progress -> drain (budget - 1) | `Stopped | `Stalled -> ()
  in
  if !status = `Progress then drain 1000;
  Matcher.feed matcher (Fabric.take_output fabric) ~on_answer:ignore_answer;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  Option.iter (problem "fatal hello: %s") !fatal;
  (match !finished with
  | None -> problem "the daemon never finished the stream"
  | Some (Error m) -> problem "finish: %s" m
  | Some (Ok stats) ->
      if stats.Daemon.violations <> [] then
        problem "final self-check: %s" (String.concat "; " stats.Daemon.violations);
      if stats.Daemon.errors > 0 then problem "%d err responses" stats.Daemon.errors;
      Option.iter (problem "wal degraded: %s") stats.Daemon.degraded);
  if Matcher.failed matcher > 0 then
    problem "%d of %d events failed (%d unanswered, %d err, %d out of order)"
      (Matcher.failed matcher) (Array.length st.ids)
      (Array.length st.ids - Matcher.answered matcher)
      (Matcher.errors matcher) (Matcher.mismatches matcher);
  if Matcher.byes matcher <> 1 then problem "expected one final bye, got %d" (Matcher.byes matcher);
  {
    busy = outcome.Open_loop.busy;
    polls = outcome.Open_loop.polls;
    latency;
    transcript = Matcher.transcript matcher;
    failed = Matcher.failed matcher;
    problems = List.rev !problems;
    sheds = Matcher.sheds matcher;
    write_calls;
    wal_bytes;
    session;
  }

let service_pqos phase =
  match Daemon.session_engine phase.session with
  | None -> nan
  | Some engine ->
      let world, _ = Engine.materialize engine in
      Assignment.pqos (Engine.assignment engine) world

(* ------------------------------------------------------------------ *)
(* Cold restart from the WAL a phase left behind                        *)

type recovery = {
  read_s : float;
  replay_s : float;  (* Daemon.replay minus the hello's resolve *)
  recover_s : float;
}

let recover ctx ~live =
  let t0 = now_ns () in
  match Wal.open_append ~path:ctx.wal_path () with
  | Error e -> Error ("wal: " ^ Wal.describe_read_error e)
  | Ok (writer, records) ->
      let read_s = since t0 in
      let resolve_s = ref 0. in
      let resolve ~scenario ~seed =
        let t = now_ns () in
        let r = resolve_full ~scenario ~seed () in
        resolve_s := since t;
        r
      in
      let session = Daemon.make_session ~wal:writer (daemon_config resolve) in
      let t1 = now_ns () in
      let replayed = Daemon.replay session records in
      let replay_s = since t1 in
      Wal.close_writer writer;
      match replayed with
      | Error m -> Error ("replay: " ^ m)
      | Ok () ->
          if Daemon.numbered_log session <> Daemon.numbered_log live.session then
            Error "the numbered log recovered from the WAL differs from the live one"
          else Ok { read_s; replay_s = replay_s -. !resolve_s; recover_s = read_s +. replay_s }

(* ------------------------------------------------------------------ *)
(* Side passes (traced runs only)                                       *)

type engine_pass = {
  place : float array;  (* sorted seconds, calls without a reopt *)
  reopt : float array;  (* sorted seconds, calls that ran one *)
  engine_s : float;
  readmits : int;
}

let engine_side_pass ctx =
  let engine = fresh_engine ctx in
  let place = Samples.create () and reopt = Samples.create () in
  Array.iter
    (function
      | Proto.Time at -> Engine.note_time engine at
      | Proto.Event e ->
          let r0 = Engine.reopts_total engine in
          let t0 = now_ns () in
          ignore (Engine.handle engine e : Proto.response list);
          let dt = since t0 in
          Samples.push (if Engine.reopts_total engine > r0 then reopt else place) dt
      | Proto.Hello _ | Proto.Resume _ | Proto.End -> ())
    ctx.stream.lines;
  {
    place = Samples.sorted place;
    reopt = Samples.sorted reopt;
    engine_s = Samples.sum place +. Samples.sum reopt;
    readmits = Engine.readmits_total engine;
  }

let per_item f items =
  let t0 = now_ns () in
  Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
  since t0 /. float_of_int (max 1 (Array.length items))

let transcript_responses transcript =
  String.split_on_char '\n' transcript
  |> List.filter_map (fun l ->
         if l = "" then None else Result.to_option (Proto.parse_response l))
  |> Array.of_list

let null_io =
  {
    Io.real with
    Io.open_out_ =
      (fun ~create:_ ~trunc:_ _ ->
        {
          Io.f_write = (fun _ _ len -> len);
          f_read = (fun _ _ _ -> 0);
          f_fsync = ignore;
          f_truncate = ignore;
          f_seek = ignore;
          f_seek_end = (fun () -> 0);
          f_close = ignore;
        });
  }

(* WAL encoding and bookkeeping without the syscalls. *)
let wal_codec_s raws =
  let w = Wal.create_writer ~io:null_io ~path:"capbench-null.wal" () in
  let s = per_item (Wal.append w) raws in
  Wal.close_writer w;
  s

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)

let us x = x *. 1e6
let per_event n x = x /. float_of_int (max 1 n)

(* Set-up runs half before the measured rounds and half after, so its
   median samples both ends of the run. *)
let setup_repeats = 11

type best = {
  mutable traced : (tracer * phase) option;
  mutable engine_pass : engine_pass option;
  mutable parse_s : float;
  mutable format_s : float;
  mutable codec_s : float;
}

let keep_best current x ~cost =
  match current with Some y when cost y <= cost x -> current | _ -> Some x

let mkdir_p dir =
  let rec go dir =
    if not (Sys.file_exists dir) then begin
      go (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  go dir

let run spec ~seed ~events ~rounds ~trace ?spans_out ~work_dir () =
  ignore (Cap_par.Pool.ensure ~jobs:1);
  let problems = ref [] in
  let problem m = problems := m :: !problems in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  let memo = ref None and setups = ref [] in
  let setup () =
    let record ~world ~assignment s =
      if !memo = None then memo := Some (world, assignment);
      setups := s :: !setups
    in
    match resolve_full ~record ~scenario:spec.scenario ~seed:world_seed () with
    | Ok _ -> ()
    | Error m -> failwith ("resolve: " ^ m)
  in
  for _ = 1 to setup_repeats / 2 do
    setup ()
  done;
  let setup_median f = Quantile.median (Array.of_list (List.map f !setups)) in
  let world, assignment = Option.get !memo in
  let stream = make_stream spec ~world ~seed ~events in
  let n = Array.length stream.ids in
  if not (Quantile.supported ~n 99.) then
    problem (Printf.sprintf "%d events cannot support a p99" n);
  mkdir_p work_dir;
  let ctx =
    {
      spec;
      stream;
      world;
      assignment;
      wal_path =
        Filename.concat work_dir (Printf.sprintf "capbench-%d.wal" (Unix.getpid ()));
    }
  in
  let attempted = ref 0 and failed = ref 0 in
  let account name ~events p =
    attempted := !attempted + events;
    failed := !failed + p.failed;
    List.iter (fun m -> problem (name ^ ": " ^ m)) p.problems
  in
  let reference = ref None in
  let phase name ~rate ?tracer () =
    let scale = if rate = infinity then 0. else spec.lo_rate /. rate in
    let p = run_phase ctx ~scale ?tracer () in
    account name ~events:n p;
    (match !reference with
    | None -> reference := Some (name, p.transcript)
    | Some (first, t) ->
        if t <> p.transcript then
          problem (Printf.sprintf "the %s and %s response streams differ" first name));
    p
  in
  let recovery live =
    match recover ctx ~live with
    | Ok r -> Some r
    | Error m ->
        problem m;
        None
  in
  let cleanup () = if Sys.file_exists ctx.wal_path then Sys.remove ctx.wal_path in
  Fun.protect ~finally:cleanup @@ fun () ->
  (* The quality of the answers is measured on the world's own stream,
     drawn from the world seed, which --seed does not change: pqos and
     the admitted share are then exact from run to run, so a placement
     change that costs quality shows however small. *)
  let pqos, admitted =
    let ctx = { ctx with stream = make_stream spec ~world ~seed:world_seed ~events } in
    let m = Array.length ctx.stream.ids in
    let p = run_phase ctx ~scale:0. () in
    account "quality" ~events:m p;
    (service_pqos p, 1. -. per_event m (float_of_int p.sheds))
  in
  Gc.full_major ();
  (* Rounds alternate a flood and a low-rate pass over the same stream.
     Other work on the machine slows whole stretches of a run, never
     speeds one up, so each figure comes from the rounds that ran
     fastest: throughput from the fastest flood, and latency
     percentiles from the events of the tenth of the low-rate passes
     with the least busy time. A traced run adds to every round a traced
     low-rate pass and the side passes, and keeps the fastest of each,
     so they compare with the fastest untraced pass. *)
  let raws = if trace then Array.init (Array.length stream.lines) (raw_line stream) else [||] in
  let best =
    { traced = None; engine_pass = None; parse_s = infinity; format_s = infinity; codec_s = infinity }
  in
  let first = ref None in
  let rounds =
    List.init rounds (fun _ ->
        let flood = phase "flood" ~rate:infinity () in
        let lo = phase "lo" ~rate:spec.lo_rate () in
        if !first = None then begin
          let recovered = if spec.durable then recovery lo else None in
          let responses = if trace then transcript_responses lo.transcript else [||] in
          first := Some (lo.wal_bytes, responses, recovered)
        end;
        if trace then begin
          let _, responses, _ = Option.get !first in
          let tr = tracer ~keep:(spans_out <> None) in
          let traced = phase "lo-traced" ~rate:spec.lo_rate ~tracer:tr () in
          best.traced <- keep_best best.traced (tr, traced) ~cost:(fun (_, p) -> p.busy);
          best.engine_pass <-
            keep_best best.engine_pass (engine_side_pass ctx) ~cost:(fun ep -> ep.engine_s);
          best.parse_s <- Float.min best.parse_s (per_item Proto.parse_line raws);
          best.format_s <- Float.min best.format_s (per_item Proto.format_response responses);
          if spec.durable then best.codec_s <- Float.min best.codec_s (wal_codec_s raws)
        end;
        (float_of_int n /. flood.busy, lo.busy, lo.latency))
  in
  for _ = 1 + (setup_repeats / 2) to setup_repeats do
    setup ()
  done;
  let wal_bytes, responses, recovered = Option.get !first in
  let max_events_per_s =
    Quantile.best ~higher:true (Array.of_list (List.map (fun (x, _, _) -> x) rounds))
  in
  let fastest =
    List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) rounds
    |> List.filteri (fun i _ -> i < max 1 (List.length rounds / 10))
  in
  let lo_sorted = Quantile.sorted_copy (Array.concat (List.map (fun (_, _, l) -> l) fastest)) in
  (* p99 is the gated tail: the reopt stall lives there, while p99.9
     and the maximum follow disk and GC stalls. *)
  let lo_p50 = Quantile.nearest_rank lo_sorted 50. in
  let lo_p99 = Quantile.nearest_rank lo_sorted 99. in
  note "world %s seed %d; n=%d events per phase, %d rounds; lo %.0f ev/s, hi %.0f ev/s"
    spec.scenario world_seed n (List.length rounds) spec.lo_rate spec.hi_rate;
  note "max_events_per_s %.1f ev/s" max_events_per_s;
  note "lo_p50_us %.2f us, lo_p99_us %.2f us (n=%d, the %d fastest rounds)" (us lo_p50)
    (us lo_p99) (Array.length lo_sorted) (List.length fastest);
  note "pqos %.6f, admitted_ratio %.6f (the world's own stream, seed %d)" pqos admitted world_seed;
  Option.iter (fun r -> note "recover_s %.4f s" r.recover_s) recovered;
  let end_to_end =
    [
      ("setup_s", setup_median (fun s -> s.total_s));
      ("throughput_per_s", max_events_per_s);
      ("latency_p50_us", us lo_p50);
      ("latency_tail_us", us lo_p99);
      ("pqos", pqos);
      ("admitted_ratio", admitted);
    ]
  in
  let per_layer =
    match best.traced, best.engine_pass with
    | None, _ | _, None -> []
    | Some (tr, traced), Some ep ->
        Option.iter (Spans.write_jsonl tr.sp) spans_out;
        let lo_busy =
          Quantile.best ~higher:false (Array.of_list (List.map (fun (_, b, _) -> b) rounds))
        in
        let hi = phase "hi" ~rate:spec.hi_rate () in
        let hi_sorted = Quantile.sorted_copy hi.latency in
        let probe rate =
          let p = phase (Printf.sprintf "slo-probe-%.0f" rate) ~rate () in
          Quantile.nearest_rank (Quantile.sorted_copy p.latency) 99. <= spec.slo_p99_us *. 1e-6
        in
        let slo =
          if lo_p99 > spec.slo_p99_us *. 1e-6 then 0.
          else
            let rec bisect k good bad =
              if k = 0 then good
              else
                let mid = (good +. bad) /. 2. in
                if probe mid then bisect (k - 1) mid bad else bisect (k - 1) good mid
            in
            bisect 4 spec.lo_rate max_events_per_s
        in
        let codec_s = if spec.durable then best.codec_s else 0. in
        let sp = tr.sp in
        let ev x = us (per_event n x) in
        let total id = Spans.total_s sp id in
        let fabric = total tr.fab_wait +. total tr.fab_read +. total tr.fab_write in
        let lines_per_event = per_event n (float_of_int (Array.length raws)) in
        let responses_per_event = per_event n (float_of_int (Array.length responses)) in
        let wal_records = Spans.count sp tr.wal_write in
        let attributed =
          Spans.self_s sp tr.poll +. fabric +. total tr.send +. total tr.wal_write
          +. total tr.wal_fsync
          +. float_of_int n
             *. ((best.parse_s *. lines_per_event) +. (best.format_s *. responses_per_event))
          +. ep.engine_s
          +. (codec_s *. float_of_int wal_records)
        in
        let pick sorted p = if Array.length sorted = 0 then 0. else Quantile.nearest_rank sorted p in
        let top sorted = if Array.length sorted = 0 then 0. else sorted.(Array.length sorted - 1) in
        let fsyncs = Samples.sorted tr.fsyncs in
        let scenario = Cap_model.Scenario.of_notation spec.scenario in
        let topology =
          Quantile.median
            (Array.init 3 (fun _ -> Common.topology_s scenario (Rng.create ~seed:world_seed)))
        in
        let reopt_s = Array.fold_left ( +. ) 0. ep.reopt in
        let kevents x = 1000. *. per_event n (float_of_int x) in
        note "hi_p50_us %.2f us, hi_p99_us %.2f us (n=%d)" (us (pick hi_sorted 50.))
          (us (pick hi_sorted 99.)) n;
        note "slo_events_per_s %.1f ev/s (p99 <= %.0f us)" slo spec.slo_p99_us;
        note "lo_p999_us %.2f us, lo_max_us %.2f us (not gated)" (us (pick lo_sorted 99.9))
          (us (top lo_sorted));
        note "spans recorded %d" (Spans.records sp);
        [
          ("net.lines_per_poll", per_event hi.polls (float_of_int (Array.length raws)));
          ("net.reactor_self_us_per_event", ev (Spans.self_s sp tr.poll));
          ("net.write_calls_per_kevent", kevents hi.write_calls);
          ("fabric.us_per_event", ev fabric);
          ("daemon.handle_line_self_us_per_event", ev (Spans.self_s sp tr.handle));
          ("daemon.send_us_per_event", ev (total tr.send));
          ("proto.parse_us_per_line", us best.parse_s);
          ("proto.format_us_per_response", us best.format_s);
          ("wal.codec_us_per_record", us codec_s);
          ("wal.write_us_per_record", us (per_event wal_records (total tr.wal_write)));
          ("wal.bytes_per_event", per_event n (float_of_int wal_bytes));
          ("wal.fsync_per_kevent", kevents (Spans.count sp tr.wal_fsync));
          ("wal.fsync_us_p50", us (pick fsyncs 50.));
          ("wal.fsync_ms_max", 1e3 *. top fsyncs);
          ("engine.place_us_p50", us (pick ep.place 50.));
          ("engine.place_us_p99", us (pick ep.place 99.));
          ("engine.reopt_per_kevent", kevents (Array.length ep.reopt));
          ("engine.reopt_ms_p50", 1e3 *. pick ep.reopt 50.);
          ("engine.reopt_ms_max", 1e3 *. top ep.reopt);
          ("engine.reopt_share", reopt_s /. ep.engine_s);
          ("engine.readmits_per_kevent", kevents ep.readmits);
          ("topology.generate_s", topology);
          ("model.world_generate_s", setup_median (fun s -> s.world_s));
          ("core.two_phase_s", setup_median (fun s -> s.two_phase_s));
          ("service.engine_create_s", setup_median (fun s -> s.create_s));
          ("gc.minor_words_per_event", per_event n tr.minor_words);
          ("gc.major_per_kevent", kevents tr.majors);
          ("trace.overhead_pct", 100. *. (traced.busy -. lo_busy) /. lo_busy);
          ("trace.unattributed_pct", 100. *. (lo_busy -. attributed) /. lo_busy);
          ("service.hi_p50_us", us (pick hi_sorted 50.));
          ("service.hi_p99_us", us (pick hi_sorted 99.));
          ("service.slo_events_per_s", slo);
          ("service.lo_p999_us", us (pick lo_sorted 99.9));
          ("service.lo_max_us", us (top lo_sorted));
        ]
        @ (match recovered with
          | None -> []
          | Some r ->
              [
                ("daemon.replay_s", r.replay_s);
                ("wal.read_s", r.read_s);
                ("service.recover_s", r.recover_s);
              ])
  in
  {
    Catalog.attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    end_to_end;
    per_layer;
    notes = List.rev !notes;
  }

