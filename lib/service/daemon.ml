module Metrics = Cap_obs.Metrics
module Clock = Cap_obs.Clock

type stats = {
  events : int;
  errors : int;
  sheds : int;
  readmits : int;
  reopts : int;
  resumes : int;
  live : int;
  shed_pool : int;
  violations : string list;
  wall_s : float;
  degraded : string option;
      (* why the WAL stopped persisting, when it did (disk full / EIO) *)
}

let latency_histogram () =
  Metrics.Histogram.create ~help:"per-event daemon handling latency, seconds"
    "service/event_latency_seconds"

let events_counter () = Metrics.Counter.create "service/events"
let sheds_counter () = Metrics.Counter.create "service/sheds"
let readmits_counter () = Metrics.Counter.create "service/readmits"
let errors_counter () = Metrics.Counter.create "service/errors"
let resumes_counter () = Metrics.Counter.create "service/resumes"

type config = {
  resolve : scenario:string -> seed:int -> (Engine.t, string) result;
  checkpoint_every : int option;
  checkpoint_sink :
    (Engine.t -> wal_records:int -> response_seq:int -> bool) option;
  echo_responses : bool;
  resume_window : int;
}

let default_resume_window = 65536

type session = {
  config : config;
  mutable engine : Engine.t option;
  mutable identity : (string * int) option;
  mutable errors : int;
  mutable resumes : int;
  mutable started : float option;  (* Clock.now at the first hello *)
  mutable wal : Wal.writer option;
  mutable wal_records : int;
      (* request records applied, hello included — equals the WAL
         record count when a WAL is attached *)
  mutable seq : int;       (* numbered responses emitted so far *)
  mutable base_seq : int;  (* seq of log.(0) is base_seq + 1 *)
  mutable log : string array;  (* formatted numbered responses *)
  mutable log_len : int;
  mutable replaying : bool;   (* replay rebuilds state: no WAL writes *)
  mutable finalizing : bool;  (* shutdown drain: responses unnumbered *)
  mutable degraded : string option;
      (* sticky: a failed WAL write(2) means events can no longer be
         made durable, so they are refused (shed wal-failed) instead of
         acknowledged — existing state keeps being served *)
}

let make_session ?wal config =
  {
    config;
    engine = None;
    identity = None;
    errors = 0;
    resumes = 0;
    started = None;
    wal;
    wal_records = 0;
    seq = 0;
    base_seq = 0;
    log = [||];
    log_len = 0;
    replaying = false;
    finalizing = false;
    degraded = None;
  }

let resume_session config ~engine ~scenario ~seed ~wal_records ~response_seq =
  let session = make_session config in
  session.engine <- Some engine;
  session.identity <- Some (scenario, seed);
  session.started <- Some (Clock.now ());
  session.wal_records <- wal_records;
  (* Responses up to the snapshot are not regenerated: resume replay
     can only reach back to [response_seq]. Clients are guaranteed to
     have received at least that much — responses are flushed before
     the checkpoint that recorded it ran. *)
  session.seq <- response_seq;
  session.base_seq <- response_seq;
  session

let session_engine session = session.engine
let wal_records session = session.wal_records
let response_seq session = session.seq
let degraded_reason session = session.degraded

let numbered_log session =
  Array.to_list (Array.sub session.log 0 session.log_len)

let events_applied session =
  (* Request lines applied after the hello: the client-side journal
     cursor handed back in resume-ok. *)
  max 0 (session.wal_records - 1)

let log_push session line =
  if session.log_len = Array.length session.log then begin
    let grown = Array.make (max 64 (2 * Array.length session.log)) "" in
    Array.blit session.log 0 grown 0 session.log_len;
    session.log <- grown
  end;
  session.log.(session.log_len) <- line;
  session.log_len <- session.log_len + 1;
  let window = session.config.resume_window in
  if window > 0 && session.log_len > 2 * window then begin
    (* Retention: keep the newest [window]; older responses age out of
       resume range (a resume below [base_seq] is refused). *)
    let drop = session.log_len - window in
    Array.blit session.log drop session.log 0 window;
    session.log_len <- window;
    session.base_seq <- session.base_seq + drop
  end

(* Count, number, log and transmit one response. [Err] and [Resume_ok]
   are control chatter — never numbered, never replayable. Shutdown
   drain responses are likewise unnumbered: a resumed run re-derives
   its own drain. *)
let emit session send r =
  (match r with
  | Proto.Err _ ->
      session.errors <- session.errors + 1;
      Metrics.Counter.incr (errors_counter ())
  | Proto.Shed _ -> Metrics.Counter.incr (sheds_counter ())
  | Proto.Readmitted _ -> Metrics.Counter.incr (readmits_counter ())
  | Proto.Assigned _ | Proto.Left _ | Proto.Ctrl_ok _ | Proto.Resume_ok _
  | Proto.Busy | Proto.Bye -> ());
  let line = Proto.format_response r in
  (match r with
  | Proto.Err _ | Proto.Resume_ok _ | Proto.Busy | Proto.Bye -> ()
  | _ when session.finalizing -> ()
  | _ ->
      session.seq <- session.seq + 1;
      log_push session line);
  send line

(* Persist one request record. [false] means the daemon is (now)
   degraded: the record is NOT durable and the event must be refused,
   not applied. A failed write(2) (ENOSPC, EIO) trips degraded mode —
   sticky, one diagnostic line, no crash. A failed fsync is different:
   {!Wal.Fsync_error} propagates — fsyncgate semantics say the only
   safe continuation is to exit (2) and recover by replay, which the
   supervisor treats as unrecoverable rather than restart fodder. *)
let wal_append session raw =
  if session.degraded <> None then false
  else if session.replaying then begin
    session.wal_records <- session.wal_records + 1;
    true
  end
  else
    match Option.iter (fun w -> Wal.append w raw) session.wal with
    | () ->
        session.wal_records <- session.wal_records + 1;
        true
    | exception Wal.Write_error { path; error } ->
        let reason =
          Printf.sprintf "%s: %s" path (Unix.error_message error)
        in
        session.degraded <- Some reason;
        Printf.eprintf
          "serve: wal write failed (%s); degraded read-only mode — new \
           events are shed (wal-failed), existing assignments keep being \
           served\n\
           %!"
          reason;
        false

(* Hand the sink a checkpoint at the current position. Once it reports
   the checkpoint durable, the WAL segments wholly below that position
   are dead weight: GC them on the session's own writer, so a promoted
   standby bounds its log exactly like the primary it replaced. *)
let checkpoint session engine sink =
  let covered = session.wal_records in
  if sink engine ~wal_records:covered ~response_seq:session.seq then
    Option.iter
      (fun w ->
        let deleted = Wal.gc w ~covered in
        if deleted > 0 then
          Printf.eprintf "serve: wal gc: %d segment(s) dropped, %d bytes live\n%!"
            deleted (Wal.total_bytes w))
      session.wal

let maybe_checkpoint session engine =
  match session.config.checkpoint_every, session.config.checkpoint_sink with
  | Some every, Some sink when every > 0 && Engine.events_seen engine mod every = 0
    ->
      checkpoint session engine sink
  | _ -> ()

let handle_line session ~send raw =
  match Proto.parse_line raw with
  | Error e ->
      emit session send (Proto.Err (Proto.describe_parse_error e));
      `Continue
  | Ok (Proto.Hello { scenario; seed }) -> (
      match session.identity with
      | Some (scenario0, seed0) ->
          if scenario0 <> scenario || seed0 <> seed then
            emit session send
              (Proto.Err
                 (Printf.sprintf "hello mismatch: serving %s seed %d" scenario0
                    seed0));
          `Continue
      | None -> (
          match session.config.resolve ~scenario ~seed with
          | Error message ->
              emit session send (Proto.Err message);
              `Fatal message
          | Ok engine ->
              session.engine <- Some engine;
              session.identity <- Some (scenario, seed);
              session.started <- Some (Clock.now ());
              (* WAL the hello (record 0): the log is self-describing. *)
              ignore (wal_append session raw : bool);
              `Continue))
  | Ok (Proto.Time at) ->
      (match session.engine with
      | None -> () (* clock before hello: tolerated filler, as before *)
      | Some engine ->
          (* An unpersisted clock tick must not advance the engine: the
             WAL replay would diverge from what clients saw. *)
          if wal_append session raw then Engine.note_time engine at);
      `Continue
  | Ok (Proto.Resume wants) -> (
      match session.engine with
      | None ->
          emit session send (Proto.Err "resume before hello");
          `Continue
      | Some _ ->
          if wants > session.seq then begin
            emit session send
              (Proto.Err
                 (Printf.sprintf "resume %d is ahead of the stream (at %d)"
                    wants session.seq));
            `Continue
          end
          else if wants < session.base_seq then begin
            emit session send
              (Proto.Err
                 (Printf.sprintf
                    "resume %d predates the retention window (oldest %d)" wants
                    session.base_seq));
            `Continue
          end
          else begin
            session.resumes <- session.resumes + 1;
            Metrics.Counter.incr (resumes_counter ());
            emit session send
              (Proto.Resume_ok
                 { events = events_applied session; responses = session.seq });
            for i = wants - session.base_seq to session.log_len - 1 do
              send session.log.(i)
            done;
            `Continue
          end)
  | Ok Proto.End -> `End
  | Ok (Proto.Event event) -> (
      match session.engine with
      | None ->
          emit session send (Proto.Err "event before hello");
          `Continue
      | Some engine ->
          (* Durability before acknowledgement: the record hits the WAL
             (a completed write(2)) before any response leaves. If it
             cannot, the event is refused — acknowledging a mutation
             the log does not hold would be lying to the client. *)
          if wal_append session raw then begin
            let t0 = Clock.now () in
            let responses = Engine.handle engine event in
            Metrics.Histogram.observe (latency_histogram ())
              (Clock.elapsed_since t0);
            Metrics.Counter.incr (events_counter ());
            List.iter (emit session send) responses;
            maybe_checkpoint session engine
          end
          else
            (match event with
            | Proto.Join { id; _ } | Proto.Leave { id } | Proto.Move { id; _ }
              ->
                emit session send
                  (Proto.Shed { id; reason = Proto.Wal_failed })
            | Proto.Ctrl _ ->
                emit session send
                  (Proto.Err "degraded: wal write failed; ctrl refused"));
          `Continue)

let replay session records =
  session.replaying <- true;
  Fun.protect
    ~finally:(fun () -> session.replaying <- false)
    (fun () ->
      let problems = ref [] in
      let send _ = () in
      List.iter
        (fun raw ->
          let errors0 = session.errors in
          (match handle_line session ~send raw with
          | `Continue -> ()
          | `End | `Fatal _ ->
              problems := Printf.sprintf "unexpected WAL record %S" raw :: !problems);
          if session.errors > errors0 then
            problems := Printf.sprintf "rejected WAL record %S" raw :: !problems)
        records;
      match List.rev !problems with
      | [] -> Ok ()
      | ps -> Error (String.concat "; " ps))

type recover_error =
  | Refused of string
  | Replay_failed of string

let describe_recover_error = function Refused m | Replay_failed m -> m

(* The one rule for building a session on a log: the log must begin at
   or before the session's position (GC may only have dropped records
   the session already holds) and reach at least that far (a standby
   can have tailed bytes a power cut then lost). Anything else would
   renumber, duplicate or skip records clients were answered for. *)
let recover ?(io = Io.real) ~fsync_every ?segment_bytes session ~path =
  let applied = session.wal_records in
  if not (Wal.log_exists ~io ~path ()) then
    if applied > 0 then
      Error
        (Refused
           (Printf.sprintf
              "the log at %s is missing but this session already applied %d \
               records; refusing to serve fresh state over recorded history"
              path applied))
    else
      match Wal.create_writer ~io ~fsync_every ?segment_bytes ~path () with
      | writer ->
          session.wal <- Some writer;
          Ok 0
      | exception (Wal.Write_error { error; _ } | Unix.Unix_error (error, _, _)) ->
          Error
            (Refused (Printf.sprintf "wal %s: %s" path (Unix.error_message error)))
  else
    (* opening for append truncates a torn tail: new records start on a
       record boundary *)
    match Wal.open_append ~io ~fsync_every ?segment_bytes ~path () with
    | Error e -> Error (Refused (Wal.describe_read_error e))
    | Ok (writer, records) ->
        let base = Wal.base_index writer in
        let on_disk = base + List.length records in
        let refuse message =
          Wal.close_writer writer;
          Error (Refused message)
        in
        if base > applied then
          refuse
            (Printf.sprintf
               "the log was GC'd past this session (oldest surviving record %d, \
                session at %d) — recover from the checkpoint that anchored the \
                GC"
               base applied)
        else if on_disk < applied then
          refuse
            (Printf.sprintf
               "the log holds %d records but this session applied %d — the \
                tail did not survive on disk; refusing to append after lost \
                records"
               on_disk applied)
        else begin
          let suffix = List.filteri (fun i _ -> base + i >= applied) records in
          (* attached before the replay, so checkpoints taken while
             catching up already GC through it *)
          session.wal <- Some writer;
          match replay session suffix with
          | Error e ->
              session.wal <- None;
              Wal.close_writer writer;
              Error (Replay_failed e)
          | Ok () ->
              assert (session.wal_records = Wal.records_written writer);
              Ok (List.length suffix)
        end

(* ------------------------------------------------------------------ *)
(* Channel plumbing                                                    *)

(* Bounded line reader: never buffers past the protocol's line bound;
   an overlong line is consumed (to the newline) but only its length is
   kept. *)
let read_line_bounded input =
  let buf = Buffer.create 128 in
  let finish n =
    if n > Proto.max_line_bytes then `Oversized n else `Line (Buffer.contents buf)
  in
  let rec go n =
    match input_char input with
    | exception End_of_file -> if n = 0 then `Eof else finish n
    | '\n' -> finish n
    | c ->
        if n < Proto.max_line_bytes then Buffer.add_char buf c;
        go (n + 1)
  in
  go 0

(* One stream of lines against the session. [`End] is an explicit
   shutdown request, [`Eof] just the end of this connection. *)
let serve_stream session input output =
  let send line =
    if session.config.echo_responses then begin
      output_string output line;
      output_char output '\n'
    end
  in
  let rec loop () =
    match read_line_bounded input with
    | `Eof -> `Eof
    | `Oversized n ->
        emit session send (Proto.Err (Proto.describe_parse_error (Proto.Oversized n)));
        flush output;
        loop ()
    | `Line raw -> (
        match handle_line session ~send raw with
        | `Continue ->
            flush output;
            loop ()
        | (`End | `Fatal _) as stop -> stop)
  in
  loop ()

let finish_send session engine ~send =
  (* Checkpoint BEFORE the shutdown drain: the snapshot must capture
     the state as of the last processed event, so a resumed stream
     replays exactly what the uninterrupted run would have answered.
     The drain's readmissions are a side-effect of stopping; a resumed
     run readmits through its own reopts instead. *)
  Option.iter (checkpoint session engine) session.config.checkpoint_sink;
  session.finalizing <- true;
  let readmits = Engine.finalize engine in
  let send line = if session.config.echo_responses then send line in
  List.iter (emit session send) readmits;
  (* the shutdown ack, last: everything before it reached the stream.
     An EOF that arrives without it is a severed connection — a
     SIGKILLed daemon closes its socket exactly like a finished one,
     and this line is the only thing that tells them apart. *)
  emit session send Proto.Bye;
  Option.iter Wal.close_writer session.wal;
  let wall_s =
    match session.started with Some t0 -> Clock.elapsed_since t0 | None -> 0.
  in
  {
    events = Engine.events_seen engine;
    errors = session.errors;
    sheds = Engine.sheds_total engine;
    readmits = Engine.readmits_total engine;
    reopts = Engine.reopts_total engine;
    resumes = session.resumes;
    live = Engine.live_clients engine;
    shed_pool = Engine.shed_pool engine;
    violations = Engine.self_check engine;
    wall_s;
    degraded = session.degraded;
  }

let finish session engine output =
  let send line =
    output_string output line;
    output_char output '\n'
  in
  let stats = finish_send session engine ~send in
  (try flush output with Sys_error _ -> ());
  stats

let finish_session_send session ~send =
  match session.engine with
  | None -> Error "stream ended before a hello line"
  | Some engine -> Ok (finish_send session engine ~send)

let finish_session session output =
  match session.engine with
  | None -> Error "stream ended before a hello line"
  | Some engine -> Ok (finish session engine output)

let serve_session session ~input ~output =
  match serve_stream session input output with
  | `Fatal message -> Error message
  | `End | `Eof -> finish_session session output

let serve config ~input ~output = serve_session (make_session config) ~input ~output

(* ------------------------------------------------------------------ *)
(* Unix-socket serving                                                 *)

type bind_error =
  | Address_in_use of string
  | Permission_denied of string
  | Bind_failed of string * string

let describe_bind_error = function
  | Address_in_use path ->
      Printf.sprintf
        "socket %s is in use by a live daemon; stop it or pick another --listen path"
        path
  | Permission_denied path ->
      Printf.sprintf "cannot bind %s: permission denied" path
  | Bind_failed (path, reason) -> Printf.sprintf "cannot bind %s: %s" path reason

let bind_unix ?(probe_timeout = 0.5) ~path () =
  let try_bind () =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.bind sock (Unix.ADDR_UNIX path) with
    | () -> Ok sock
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        Error e
  in
  match try_bind () with
  | Ok sock -> Ok sock
  | Error Unix.EACCES -> Error (Permission_denied path)
  | Error Unix.EADDRINUSE -> (
      (* A leftover socket file from a crashed daemon also binds as
         EADDRINUSE. Probe it: connection refused means nobody is
         accepting — safe to reclaim. Anything accepting stays. The
         probe is non-blocking with a bounded wait: a half-dead peer
         (bound, backlog full, never accepting) must not wedge the
         probe forever, and an unresponsive socket is treated as live
         — never reclaim an address someone may still hold. *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.set_nonblock probe;
      let refused = function
        | Unix.ECONNREFUSED | Unix.ENOENT -> true
        | _ -> false
      in
      let stale =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> false
        | exception Unix.Unix_error (e, _, _) when refused e -> true
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
            (* settle within the timeout or assume live *)
            match Unix.select [] [ probe ] [] probe_timeout with
            | [], [], [] -> false
            | _ -> (
                match Unix.getsockopt_error probe with
                | Some e -> refused e
                | None -> false)
            | exception Unix.Unix_error (_, _, _) -> false)
        | exception Unix.Unix_error (_, _, _) ->
            (* EAGAIN here means a full backlog: something is bound
               and wedged, but alive enough to keep its address *)
            false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if not stale then Error (Address_in_use path)
      else begin
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        match try_bind () with
        | Ok sock -> Ok sock
        | Error e -> Error (Bind_failed (path, Unix.error_message e))
      end)
  | Error e -> Error (Bind_failed (path, Unix.error_message e))

type serve_unix_error =
  | Bind of bind_error
  | Fatal of string

(* The reactor front-end: N concurrent connections multiplexed into
   the one shared session. WAL ordering is preserved by construction —
   [handle_line] appends (and, per policy, flushes) the record before
   it hands any response line to [send], and [send] only ever enqueues
   bytes on the connection's write buffer. *)
let serve_net_session ?(net = Net.default_config) ?inspect session backend =
  let outcome = ref None in
  let on_line reactor ~conn raw =
    let send line = Net.Reactor.send reactor conn line in
    match handle_line session ~send raw with
    | `Continue -> `Continue
    | `End ->
        outcome := Some (finish_session_send session ~send);
        `Stop
    | `Fatal message ->
        if Option.is_none session.engine then begin
          (* an unresolvable hello: nothing is being served yet *)
          outcome := Some (Error message);
          `Stop
        end
        else `Continue
  in
  let reactor = Net.Reactor.create ~config:net backend in
  Option.iter (fun f -> f reactor) inspect;
  match Net.Reactor.run reactor ~on_line with
  | (`Stopped | `Stalled) -> (
      match !outcome with
      | Some result -> result
      | None ->
          (* the fabric drained without an [end]: a quiet EOF *)
          finish_session_send session ~send:(fun _ -> ()))

let serve_unix_session ?net session ~path =
  let net = Option.value net ~default:Net.default_config in
  match bind_unix ~path () with
  | Error e -> Error (Bind e)
  | Ok sock ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          (* clean shutdown leaves no stale socket behind *)
          try Unix.unlink path with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.listen sock net.Net.backlog;
          let backend = Net.unix_backend ~listen:sock () in
          match serve_net_session ~net session backend with
          | Ok stats -> Ok stats
          | Error message -> Error (Fatal message))
