open Capbench
module Net = Cap_service.Net

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Quantile                                                             *)

let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let s = one_to 100 in
  check_float "p50 of 1..100" 50. (Quantile.nearest_rank s 50.);
  check_float "p99 of 1..100" 99. (Quantile.nearest_rank s 99.);
  check_float "p100 of 1..100" 100. (Quantile.nearest_rank s 100.);
  check_float "p1 of 1..100" 1. (Quantile.nearest_rank s 1.);
  Alcotest.(check int) "p99.9 of 1000 is rank 999, not 1000" 999 (Quantile.rank ~n:1000 99.9);
  Alcotest.(check int) "p99 of 1000 is rank 990" 990 (Quantile.rank ~n:1000 99.);
  Alcotest.(check int) "p50 of 3 rounds up" 2 (Quantile.rank ~n:3 50.);
  check_float "median of an unsorted sample" 3. (Quantile.median [| 5.; 1.; 3.; 2.; 4. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Quantile: empty sample") (fun () ->
      ignore (Quantile.rank ~n:0 50.))

let test_ten_beyond () =
  Alcotest.(check int) "10 beyond p99 of 1000" 10 (Quantile.beyond ~n:1000 99.);
  Alcotest.(check bool) "p99 of 1000 supported" true (Quantile.supported ~n:1000 99.);
  Alcotest.(check bool) "p99 of 999 unsupported" false (Quantile.supported ~n:999 99.);
  Alcotest.(check bool) "p99.9 of 10000 supported" true (Quantile.supported ~n:10_000 99.9);
  Alcotest.(check bool) "p99.9 of 9999 unsupported" false (Quantile.supported ~n:9999 99.9);
  Alcotest.(check bool) "p50 of 19 unsupported" false (Quantile.supported ~n:19 50.);
  Alcotest.(check bool) "p50 of 20 supported" true (Quantile.supported ~n:20 50.)

let test_best () =
  check_float "lower is better" 1. (Quantile.best ~higher:false [| 3.; 1.; 2. |]);
  check_float "higher is better" 3. (Quantile.best ~higher:true [| 3.; 1.; 2. |])

(* ------------------------------------------------------------------ *)
(* Open_loop: a scripted server on a hand-computed trace                 *)

(* The fake server reads everything delivered at each poll, takes the
   scripted time, and answers what it read. *)
let scripted ~due ~durations =
  let delivered = ref 0 and read = ref 0 and answered = ref 0 in
  let script = ref durations in
  let latency = Array.make (Array.length due) nan in
  let outcome =
    Open_loop.run ~due
      ~deliver:(fun k -> delivered := k)
      ~idle:(fun () -> !read = !delivered)
      ~poll:(fun ~clock:_ ->
        read := !delivered;
        match !script with
        | d :: rest ->
            script := rest;
            d
        | [] -> 0.)
      ~answered:(fun ~clock ->
        for i = !answered to !read - 1 do
          latency.(i) <- clock -. due.(i)
        done;
        answered := !read;
        !answered = Array.length due)
  in
  (outcome, latency)

let test_virtual_time () =
  (* t=0: lines 0,1 due, poll 0.5 -> clock 0.5. Idle until 1.0: the
     clock jumps, lines 2,3 arrive, poll 2.0 -> clock 3.0. Line 4 is due
     at 5.0: jump, poll 0.5 -> clock 5.5. *)
  let o, lat =
    scripted ~due:[| 0.; 0.; 1.; 1.; 5. |] ~durations:[ 0.5; 2.0; 0.5 ]
  in
  Alcotest.(check bool) "complete" true o.Open_loop.complete;
  check_float "busy is the sum of polls" 3.0 o.Open_loop.busy;
  Alcotest.(check int) "polls" 3 o.Open_loop.polls;
  check_float "clock" 5.5 o.Open_loop.clock;
  Alcotest.(check (array (float 1e-9))) "latency = answer clock - due"
    [| 0.5; 0.5; 2.0; 2.0; 0.5 |] lat

let test_backlog () =
  (* Line 1 falls due while the first poll runs; it waits for it. *)
  let o, lat = scripted ~due:[| 0.; 0.2 |] ~durations:[ 1.0; 0.1 ] in
  check_float "no idle jump under backlog" 1.1 o.Open_loop.clock;
  Alcotest.(check (array (float 1e-9))) "queueing counts" [| 1.0; 0.9 |] lat

let test_stall () =
  let o =
    Open_loop.run ~due:[| 0. |] ~deliver:ignore ~idle:(fun () -> true)
      ~poll:(fun ~clock:_ -> 0.) ~answered:(fun ~clock:_ -> false)
  in
  Alcotest.(check bool) "a server that never answers stops the loop" false o.Open_loop.complete;
  Alcotest.(check int) "after one poll" 1 o.Open_loop.polls

(* ------------------------------------------------------------------ *)
(* Matcher                                                              *)

let test_matcher_ok () =
  let m = Matcher.create [| 5; 6; 7; -1 |] in
  let seen = ref [] in
  let on_answer k = seen := k :: !seen in
  Matcher.feed m "ok 5 2\nreadmit 9 3\nsh" ~on_answer;
  Matcher.feed m "ed 6 capacity\nbye 7\nctrl-ok crash 3\nbye\n" ~on_answer;
  Alcotest.(check (list int)) "answers in order" [ 0; 1; 2; 3 ] (List.rev !seen);
  Alcotest.(check bool) "complete" true (Matcher.complete m);
  Alcotest.(check int) "no failure" 0 (Matcher.failed m);
  Alcotest.(check int) "readmit skipped" 1 (Matcher.readmits m);
  Alcotest.(check int) "final bye skipped" 1 (Matcher.byes m);
  Alcotest.(check int) "shed counted" 1 (Matcher.sheds m);
  Alcotest.(check string) "transcript"
    "ok 5 2\nreadmit 9 3\nshed 6 capacity\nbye 7\nctrl-ok crash 3\nbye\n" (Matcher.transcript m)

let test_matcher_failures () =
  let m = Matcher.create [| 1; 2 |] in
  Matcher.feed m "ok 2 0\nerr bad line\nok 1" ~on_answer:ignore;
  Alcotest.(check int) "wrong id" 1 (Matcher.mismatches m);
  Alcotest.(check int) "err is a failure" 1 (Matcher.errors m);
  Alcotest.(check int) "every event failed, no more" 2 (Matcher.failed m);
  let m = Matcher.create [| 1; 2; 3; 4; 5; 6 |] in
  Matcher.feed m "ok 1 0\nerr bad line\nok 2" ~on_answer:ignore;
  Alcotest.(check int) "err + partial line + 5 unanswered, capped at 6 events" 6
    (Matcher.failed m)

(* ------------------------------------------------------------------ *)
(* Fabric                                                               *)

let test_fabric_partial_reads () =
  let f = Fabric.create ~max_read:1 "a\nbb\nccc\n" in
  let reactor = Net.Reactor.create (Fabric.backend f) in
  let lines = ref [] in
  let on_line r ~conn line =
    lines := line :: !lines;
    Net.Reactor.send r conn ("r" ^ line);
    `Continue
  in
  let poll () = ignore (Net.Reactor.poll_once reactor ~on_line : [ `Progress | `Stopped | `Stalled ]) in
  Fabric.deliver f 3;
  poll ();
  Alcotest.(check (list string)) "the first poll only accepts" [] !lines;
  poll ();
  Alcotest.(check (list string)) "only the delivered line" [ "a" ] (List.rev !lines);
  Alcotest.(check int) "the partial line was read" 0 (Fabric.unread f);
  Fabric.deliver f 100;
  poll ();
  Alcotest.(check (list string)) "framed across one-byte reads" [ "a"; "bb"; "ccc" ]
    (List.rev !lines);
  Alcotest.(check string) "responses" "ra\nrbb\nrccc\n" (Fabric.take_output f);
  Alcotest.(check string) "output drained" "" (Fabric.take_output f)

(* ------------------------------------------------------------------ *)
(* Catalog: the metrics BENCHMARK.json gates are the ones printed       *)

let index_from text from pat =
  let n = String.length pat in
  let rec go i =
    if i + n > String.length text then None
    else if String.sub text i n = pat then Some i
    else go (i + 1)
  in
  go from

(* The quoted value of every ["key": "..."] in [text], in order. *)
let values key text =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let rec go from acc =
    match index_from text from pat with
    | None -> List.rev acc
    | Some i ->
        let start = i + String.length pat in
        let stop = String.index_from text start '"' in
        go stop (String.sub text start (stop - start) :: acc)
  in
  go 0 []

let test_catalog_matches_benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let at key = Option.get (index_from text 0 (Printf.sprintf "\"%s\":" key)) in
  (* end_to_end comes before per_layer, which ends the file. *)
  let e2e = String.sub text (at "end_to_end") (at "per_layer" - at "end_to_end") in
  let layers = String.sub text (at "per_layer") (String.length text - at "per_layer") in
  let metrics section = List.combine (values "name" section) (values "unit" section) in
  let check = Alcotest.(check (list (pair string string))) in
  check "end_to_end names and units" Catalog.end_to_end (metrics e2e);
  check "per_layer names and units" Catalog.per_layer (metrics layers)

(* ------------------------------------------------------------------ *)
(* Every workload at a tiny size, every check on                        *)

let clean name (o : Catalog.outcome) =
  Alcotest.(check (list string)) (name ^ ": no failed check") [] o.Catalog.problems;
  Alcotest.(check int) (name ^ ": nothing failed") 0 o.Catalog.failed;
  Alcotest.(check bool) (name ^ ": attempted") true (o.Catalog.attempted > 0);
  List.iter
    (fun (metric, _) ->
      if metric <> "peak_rss_mib" then
        match List.assoc_opt metric o.Catalog.end_to_end with
        | Some v ->
            Alcotest.(check bool) (Printf.sprintf "%s: %s > 0" name metric) true
              (Float.is_finite v && v > 0.)
        | None -> Alcotest.failf "%s: %s missing" name metric)
    Catalog.end_to_end

let has_layers name (o : Catalog.outcome) metrics =
  List.iter
    (fun m ->
      match List.assoc_opt m o.Catalog.per_layer with
      | Some v -> Alcotest.(check bool) (Printf.sprintf "%s: %s finite" name m) true (Float.is_finite v)
      | None -> Alcotest.failf "%s: %s missing" name m)
    metrics;
  List.iter
    (fun (m, _) ->
      if not (List.mem_assoc m Catalog.per_layer) then Alcotest.failf "%s: %s not in the catalog" name m)
    o.Catalog.per_layer

let work_dir = "capbench-test"

let test_serve_durable () =
  let o = Serve.run Serve.durable ~seed:3 ~events:1200 ~rounds:2 ~trace:true ~work_dir () in
  clean "serve-durable" o;
  has_layers "serve-durable" o
    [ "wal.fsync_per_kevent"; "service.recover_s"; "daemon.replay_s"; "trace.unattributed_pct" ];
  Alcotest.(check (list string)) "the WAL is removed" [] (Array.to_list (Sys.readdir work_dir))

let test_serve_engine () =
  clean "serve-engine"
    (Serve.run Serve.engine ~seed:3 ~events:1200 ~rounds:1 ~trace:false ~work_dir ())

let tiny spec = { spec with Plan.servers = 10; zones = 30; clients = 1500 }

let test_plan_exact () =
  let o = Plan.run (tiny Plan.exact) ~seed:3 ~worlds:2 ~repeats:2 ~trace:true () in
  clean "plan-exact" o;
  has_layers "plan-exact" o [ "core.grez_s"; "core.grec_s"; "model.world_dense_s" ]

let test_plan_agg () =
  let o = Plan.run (tiny Plan.aggregated) ~seed:3 ~worlds:2 ~repeats:1 ~trace:true () in
  clean "plan-agg" o;
  has_layers "plan-agg" o [ "model.aggregate_build_s"; "core.agg_contacts_s"; "model.groups_per_kclient" ]

let () =
  Alcotest.run "capbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "best repeat" `Quick test_best;
        ] );
      ( "open_loop",
        [
          Alcotest.test_case "hand-computed trace" `Quick test_virtual_time;
          Alcotest.test_case "backlog" `Quick test_backlog;
          Alcotest.test_case "stall" `Quick test_stall;
        ] );
      ( "matcher",
        [
          Alcotest.test_case "readmit and bye skipped" `Quick test_matcher_ok;
          Alcotest.test_case "err and order failures" `Quick test_matcher_failures;
        ] );
      ("fabric", [ Alcotest.test_case "partial reads" `Quick test_fabric_partial_reads ]);
      ( "catalog",
        [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalog_matches_benchmark_json ] );
      ( "workloads",
        [
          Alcotest.test_case "serve-durable" `Quick test_serve_durable;
          Alcotest.test_case "serve-engine" `Quick test_serve_engine;
          Alcotest.test_case "plan-exact" `Quick test_plan_exact;
          Alcotest.test_case "plan-agg" `Quick test_plan_agg;
        ] );
    ]
