(* Every-prefix crash-recovery torture.

   The correctness claim under test: no matter where in the write
   stream the machine dies — between any two mutations, mid-write(2),
   or at a scheduled EIO/ENOSPC/short-write/fsync-failure/power-cut —
   recovering from what survived on disk yields a daemon whose
   numbered response stream is a byte-prefix of the uninterrupted
   run's. Acknowledged answers are never contradicted; at worst the
   tail of unacknowledged work is lost.

   The harness is transport-free: it drives {!Daemon.handle_line}
   directly over caller-supplied request [lines] and a caller-supplied
   [resolve], so capsim can reuse its serve resolver and loadgen
   stream without this module depending on either. *)

type report = {
  reference_responses : int;
  journal_entries : int;
  prefixes_checked : int;
  cuts_checked : int;
  fault_runs : int;
  degraded_runs : int;
  fsync_fatal : int;
  power_cut_runs : int;
}

let config resolve : Daemon.config =
  {
    Daemon.resolve;
    (* No checkpoints: recovery must work from the WAL alone, and GC
       never runs, so replay always starts at record 0. *)
    checkpoint_every = None;
    checkpoint_sink = None;
    echo_responses = false;
    resume_window = 0 (* retain everything: the log IS the verdict *);
  }

(* Feed the stream to its end. [`Fsync_fatal] is the fsyncgate path
   escaping {!Daemon.handle_line} — expected under [Fsync_fail] plans
   and a test failure anywhere else. *)
let feed session lines =
  let rec go = function
    | [] -> `Done
    | line :: rest -> (
        match Daemon.handle_line session ~send:ignore line with
        | `Continue -> go rest
        | `End -> `Done
        | `Fatal e -> `Fatal e
        | exception Wal.Fsync_error _ -> `Fsync_fatal)
  in
  go lines

let is_prefix ~of_:reference recovered =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | a :: ra, b :: rb -> String.equal a b && go (ra, rb)
  in
  go (recovered, reference)

let wal_path = "torture.wal"

(* Recover from whatever [fs] holds exactly as a restarted daemon does
   ({!Daemon.recover}: truncate the torn tail, replay every surviving
   record through a fresh session) and return the rebuilt numbered
   response log. Runs on a clone — recovery repairs the disk it opens
   (tail truncation, manifest heal, or a fresh log where none
   survived), and the image under test must stay exactly what the
   crash left. The clone is dropped with the writer still attached:
   what recovery did to it is never looked at again. *)
let recover ~fs cfg =
  let io = Io.Mem.io (Io.Mem.clone fs) in
  let session = Daemon.make_session cfg in
  match Daemon.recover ~io ~fsync_every:32 session ~path:wal_path with
  | Error e -> Error ("recovery: " ^ Daemon.describe_recover_error e)
  | Ok _ -> Ok (Daemon.numbered_log session)

let check_recovery ~fs cfg ~reference ~what =
  match recover ~fs cfg with
  | Error e -> Error (Printf.sprintf "%s: %s" what e)
  | Ok recovered ->
      if is_prefix ~of_:reference recovered then Ok (List.length recovered)
      else
        Error
          (Printf.sprintf
             "%s: recovered %d responses that are NOT a prefix of the \
              reference run (%d responses)"
             what (List.length recovered) (List.length reference))

let ( let* ) = Result.bind

let run ?(log = fun (_ : string) -> ()) ?segment_bytes ?fault_points ~resolve
    ~lines ~seed () =
  let cfg = config resolve in
  (* Reference: the uninterrupted run, no WAL at all. *)
  let reference_session = Daemon.make_session cfg in
  let* () =
    match feed reference_session lines with
    | `Done -> Ok ()
    | `Fatal e -> Error ("reference run: " ^ e)
    | `Fsync_fatal -> Error "reference run: fsync error without a WAL"
  in
  let reference = Daemon.numbered_log reference_session in
  log
    (Printf.sprintf "reference: %d lines -> %d numbered responses"
       (List.length lines) (List.length reference));
  (* Recorded run: same stream, WAL on an in-memory filesystem whose
     journal remembers every mutation. Wrapped in a no-fault injector
     purely to count write-side ops for fault-point scheduling. *)
  let fs = Io.Mem.create () in
  let counted_io, counter = Io.faulty (Io.plan []) (Io.Mem.io fs) in
  let writer =
    Wal.create_writer ~io:counted_io ?segment_bytes ~path:wal_path ()
  in
  let recorded = Daemon.make_session ~wal:writer cfg in
  let* () =
    match feed recorded lines with
    | `Done -> Ok ()
    | `Fatal e -> Error ("recorded run: " ^ e)
    | `Fsync_fatal -> Error "recorded run: fsync failed on the mem fs"
  in
  let* () =
    match Daemon.degraded_reason recorded with
    | None ->
        Wal.close_writer writer;
        Ok ()
    | Some r -> Error ("recorded run degraded on the mem fs: " ^ r)
  in
  let journal = Array.of_list (Io.Mem.journal fs) in
  let total_ops = Io.ops_seen counter in
  log
    (Printf.sprintf "recorded: %d journal entries, %d write-side ops%s"
       (Array.length journal) total_ops
       (match segment_bytes with
       | Some b -> Printf.sprintf ", segments rotated at %d bytes" b
       | None -> ""));
  (* The full journal must recover to exactly the reference stream —
     prefix-of is not enough for the uncut log. *)
  let* full = check_recovery ~fs cfg ~reference ~what:"full log" in
  let* () =
    if full = List.length reference then Ok ()
    else
      Error
        (Printf.sprintf
           "full log recovered only %d of %d reference responses" full
           (List.length reference))
  in
  (* Every prefix of the mutation journal is a place the machine could
     have died between syscalls; every byte-cut of a Write is a place
     it could have died inside one. Each must recover to a prefix, and
     longer journals must never recover *less*. *)
  let prefixes = ref 0 and cuts = ref 0 in
  let replayed = Io.Mem.create () in
  let floor = ref 0 in
  let check_cut i entry =
    [ 1; (match entry with Io.Mem.Write { data; _ } -> String.length data / 2 | _ -> 0) ]
    |> List.sort_uniq compare
    |> List.fold_left
         (fun acc k ->
           let* () = acc in
           match Io.Mem.cut_write entry k with
           | None -> Ok ()
           | Some cut ->
               let torn = Io.Mem.create () in
               Array.iter
                 (fun e -> Io.Mem.apply torn e)
                 (Array.sub journal 0 i);
               Io.Mem.apply torn cut;
               incr cuts;
               let* n =
                 check_recovery ~fs:torn cfg ~reference
                   ~what:
                     (Printf.sprintf "journal prefix %d + %d-byte cut" i k)
               in
               let* () =
                 if n >= !floor then Ok ()
                 else
                   Error
                     (Printf.sprintf
                        "cut at prefix %d recovered %d responses, below the \
                         %d a shorter history already recovered"
                        i n !floor)
               in
               Ok ())
         (Ok ())
  in
  let* () =
    let rec go i =
      let* n =
        check_recovery ~fs:replayed cfg ~reference
          ~what:(Printf.sprintf "journal prefix %d" i)
      in
      let* () =
        if n >= !floor then Ok ()
        else
          Error
            (Printf.sprintf
               "prefix %d recovered %d responses, below the %d a shorter \
                prefix already recovered"
               i n !floor)
      in
      floor := n;
      incr prefixes;
      if i = Array.length journal then Ok ()
      else
        let entry = journal.(i) in
        let* () = check_cut i entry in
        Io.Mem.apply replayed entry;
        go (i + 1)
    in
    go 0
  in
  log
    (Printf.sprintf "crash points: %d journal prefixes, %d mid-write cuts — \
                     all recovered to a reference prefix"
       !prefixes !cuts);
  (* Scheduled-fault phase: deterministic plans derived from [seed]
     (or the caller's [fault_points]) over a fresh run each time. *)
  let rng = Random.State.make [| seed; 0x10ca1d15 |] in
  let points =
    match fault_points with
    | Some ps -> ps
    | None ->
        if total_ops = 0 then []
        else
          List.init 5 (fun _ -> Random.State.int rng total_ops)
          |> List.sort_uniq compare
  in
  let fault_runs = ref 0
  and degraded_runs = ref 0
  and fsync_fatal = ref 0
  and power_cut_runs = ref 0 in
  let faulty_run plan =
    incr fault_runs;
    let base = Io.Mem.create () in
    let io, inj = Io.faulty plan (Io.Mem.io base) in
    let outcome =
      match Wal.create_writer ~io ?segment_bytes ~path:wal_path () with
      | exception Wal.Write_error _ -> `Done None (* died before a log existed *)
      | exception Wal.Fsync_error _ -> `Fsync_fatal
      | writer -> (
          let session = Daemon.make_session ~wal:writer cfg in
          match feed session lines with
          | `Fatal e -> `Fatal e
          | `Fsync_fatal -> `Fsync_fatal
          | `Done -> (
              match Wal.close_writer writer with
              | () -> `Done (Daemon.degraded_reason session)
              | exception Wal.Fsync_error _ -> `Fsync_fatal
              | exception Wal.Write_error _ ->
                  `Done (Daemon.degraded_reason session)))
    in
    (base, inj, outcome)
  in
  let expect_survivable ~what plan =
    let base, inj, outcome = faulty_run plan in
    let* () =
      match outcome with
      | `Fatal e -> Error (Printf.sprintf "%s: stream died: %s" what e)
      | `Fsync_fatal ->
          (* op indices count writes AND fsyncs: a write-fault plan
             whose index lands on an fsync call fails that fsync, and
             fsyncgate (exit + replay) is the correct reaction — as
             long as the fault really fired and recovery still yields
             a prefix below. *)
          if Io.faults_injected inj = 0 then
            Error (Printf.sprintf "%s: Fsync_error without an injected fault" what)
          else begin
            incr fsync_fatal;
            Ok ()
          end
      | `Done degraded ->
          if degraded <> None then incr degraded_runs;
          Ok ()
    in
    if Io.power_lost inj then incr power_cut_runs;
    let* _n = check_recovery ~fs:base cfg ~reference ~what in
    Ok ()
  in
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        List.fold_left
          (fun acc fault ->
            let* () = acc in
            expect_survivable
              ~what:
                (Printf.sprintf "fault %s at op %d" (Io.fault_name fault) p)
              (Io.plan [ (p, fault) ]))
          (Ok ())
          [ Io.Eio; Io.Enospc; Io.Short_write; Io.Power_cut ])
      (Ok ()) points
  in
  (* A write(2) fault on the record path must have tripped degraded
     mode at least once across the phase (individual plans may land on
     best-effort manifest writes, which are absorbed silently). *)
  let* () =
    if points = [] || !degraded_runs > 0 then Ok ()
    else Error "no fault plan tripped degraded mode — injection is not reaching the WAL"
  in
  (* fsyncgate: a scheduled fsync failure must surface as
     {!Wal.Fsync_error} out of the feed (the daemon never retries),
     and recovery from the poisoned run must still be a prefix. *)
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        let what = Printf.sprintf "fsync-fail at op %d" p in
        let base, inj, outcome = faulty_run (Io.plan [ (p, Io.Fsync_fail) ]) in
        let* () =
          match outcome with
          | `Fsync_fatal ->
              incr fsync_fatal;
              Ok ()
          | `Fatal e -> Error (Printf.sprintf "%s: stream died: %s" what e)
          | `Done _ ->
              if Io.faults_injected inj = 0 then Ok ()
                (* the plan never fired: the op index fell on a path
                   with no fsync downstream — vacuous, not a failure *)
              else
                Error
                  (Printf.sprintf
                     "%s: injected fsync failure did not raise Fsync_error"
                     what)
        in
        let* _n = check_recovery ~fs:base cfg ~reference ~what in
        Ok ())
      (Ok ()) points
  in
  (* Power-cut-after-N-bytes: everything past the threshold silently
     evaporates, including a cut mid-write. *)
  let total_bytes =
    Array.fold_left
      (fun acc -> function
        | Io.Mem.Write { data; _ } -> acc + String.length data
        | _ -> acc)
      0 journal
  in
  let* () =
    let thresholds =
      if total_bytes < 2 then []
      else
        List.init 3 (fun _ -> 1 + Random.State.int rng (total_bytes - 1))
        |> List.sort_uniq compare
    in
    List.fold_left
      (fun acc b ->
        let* () = acc in
        let what = Printf.sprintf "power cut after %d bytes" b in
        let base, inj, outcome = faulty_run (Io.plan ~power_cut_bytes:b []) in
        let* () =
          match outcome with
          | `Done _ -> Ok ()
          | `Fatal e -> Error (Printf.sprintf "%s: stream died: %s" what e)
          | `Fsync_fatal ->
              Error (Printf.sprintf "%s: power cut raised Fsync_error" what)
        in
        if Io.power_lost inj then incr power_cut_runs;
        let* _n = check_recovery ~fs:base cfg ~reference ~what in
        Ok ())
      (Ok ()) thresholds
  in
  log
    (Printf.sprintf
       "faults: %d scheduled runs (%d degraded, %d fsync-fatal, %d power \
        cuts) — every recovery a reference prefix"
       !fault_runs !degraded_runs !fsync_fatal !power_cut_runs);
  Ok
    {
      reference_responses = List.length reference;
      journal_entries = Array.length journal;
      prefixes_checked = !prefixes;
      cuts_checked = !cuts;
      fault_runs = !fault_runs;
      degraded_runs = !degraded_runs;
      fsync_fatal = !fsync_fatal;
      power_cut_runs = !power_cut_runs;
    }
