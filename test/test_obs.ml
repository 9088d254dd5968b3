module Metrics = Cap_obs.Metrics
module Span = Cap_obs.Span
module Control = Cap_obs.Control

let case name f = Alcotest.test_case name `Quick f

(* Telemetry is process-global; every test starts from a clean,
   enabled slate and leaves it disabled for the rest of the suite. *)
let with_obs f () =
  Metrics.reset ();
  Control.enable ();
  Fun.protect ~finally:Control.disable f

let test_disabled_is_noop () =
  Metrics.reset ();
  Control.disable ();
  Span.reset ();
  let c = Metrics.Counter.create "noop_counter" in
  let h = Metrics.Histogram.create "noop_hist" in
  Metrics.Counter.incr c;
  Metrics.Histogram.observe h 1.;
  let ran = ref false in
  Span.with_span "noop" (fun () -> ran := true);
  Alcotest.(check bool) "thunk still runs" true !ran;
  Alcotest.(check (float 0.)) "counter untouched" 0. (Metrics.Counter.value c);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.Histogram.count h);
  Alcotest.(check int) "no spans recorded" 0 (List.length (Span.spans ()))

let test_counter_and_gauge =
  with_obs (fun () ->
      let c = Metrics.Counter.create "test_counter" ~labels:[ ("k", "v") ] in
      Metrics.Counter.incr c;
      Metrics.Counter.add c 2.5;
      Alcotest.(check (float 1e-9)) "counter accumulates" 3.5 (Metrics.Counter.value c);
      Alcotest.check_raises "negative increment"
        (Invalid_argument "Cap_obs.Metrics.Counter.add: negative increment") (fun () ->
          Metrics.Counter.add c (-1.));
      let g = Metrics.Gauge.create "test_gauge" in
      Metrics.Gauge.set g 7.;
      Metrics.Gauge.add g (-3.);
      Alcotest.(check (float 1e-9)) "gauge moves both ways" 4. (Metrics.Gauge.value g);
      let c' = Metrics.Counter.create "test_counter" ~labels:[ ("k", "v") ] in
      Metrics.Counter.incr c';
      Alcotest.(check (float 1e-9)) "re-create returns same series" 4.5
        (Metrics.Counter.value c))

let test_histogram_buckets =
  with_obs (fun () ->
      let h = Metrics.Histogram.create "bucket_hist" ~base:2. ~lowest:1. ~buckets:4 in
      (* bounds: 1, 2, 4, 8 (+Inf overflow) *)
      Alcotest.(check (array (float 1e-9)))
        "bounds are powers of base" [| 1.; 2.; 4.; 8. |] (Metrics.Histogram.bucket_bounds h);
      (* boundary values land in the bucket whose bound they equal (le semantics) *)
      List.iter (Metrics.Histogram.observe h) [ 0.5; 1.; 2.; 2.1; 8.; 9.; 100. ];
      Alcotest.(check (array int))
        "le bucketing incl. overflow" [| 2; 1; 1; 1; 2 |] (Metrics.Histogram.bucket_counts h);
      Alcotest.(check int) "count" 7 (Metrics.Histogram.count h);
      Alcotest.(check (float 1e-9)) "sum" 122.6 (Metrics.Histogram.sum h))

let test_histogram_quantiles =
  with_obs (fun () ->
      let rng = Cap_util.Rng.create ~seed:42 in
      let base = 1.5 in
      let h = Metrics.Histogram.create "quantile_hist" ~base ~lowest:1e-4 ~buckets:60 in
      let samples =
        Array.init 2000 (fun _ ->
            (* log-uniform over ~6 decades, the shape the log buckets target *)
            10. ** ((Cap_util.Rng.uniform rng *. 6.) -. 3.))
      in
      Array.iter (Metrics.Histogram.observe h) samples;
      List.iter
        (fun q ->
          let exact = Cap_util.Stats.quantile samples q in
          let estimate = Metrics.Histogram.quantile h q in
          let ratio = estimate /. exact in
          if ratio > base || ratio < 1. /. base then
            Alcotest.failf "q=%.2f: estimate %g vs exact %g off by more than one bucket" q
              estimate exact)
        [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ];
      Alcotest.(check (float 1e-9))
        "q0 is the observed min" (Cap_util.Stats.min_value samples)
        (Metrics.Histogram.quantile h 0.);
      Alcotest.(check (float 1e-9))
        "q1 is the observed max" (Cap_util.Stats.max_value samples)
        (Metrics.Histogram.quantile h 1.))

let test_span_nesting =
  with_obs (fun () ->
      Span.reset ();
      Span.with_span "outer" ~attrs:[ ("k", "v") ] (fun () ->
          Span.with_span "first_child" (fun () -> ());
          Span.event "midway";
          Span.with_span "second_child" (fun () ->
              Span.with_span "grandchild" (fun () -> ())));
      Span.with_span "second_root" (fun () -> ());
      let spans = Span.spans () in
      Alcotest.(check (list string))
        "start order" [ "outer"; "first_child"; "second_child"; "grandchild"; "second_root" ]
        (List.map (fun (s : Span.span) -> s.Span.name) spans);
      Alcotest.(check (list int))
        "depths" [ 0; 1; 1; 2; 0 ]
        (List.map (fun (s : Span.span) -> s.Span.depth) spans);
      let find name = List.find (fun (s : Span.span) -> s.Span.name = name) spans in
      let outer = find "outer" in
      Alcotest.(check (option int)) "root has no parent" None outer.Span.parent;
      Alcotest.(check (option int))
        "child points at outer" (Some outer.Span.id) (find "first_child").Span.parent;
      Alcotest.(check (option int))
        "grandchild points at second_child"
        (Some (find "second_child").Span.id)
        (find "grandchild").Span.parent;
      Alcotest.(check (list (pair string string)))
        "attrs survive" [ ("k", "v") ] outer.Span.attrs;
      List.iter
        (fun (s : Span.span) ->
          if s.Span.duration_s < 0. then Alcotest.failf "%s: negative duration" s.Span.name)
        spans;
      (* the event rides the stream between the spans around it *)
      match
        List.filter_map
          (function Span.Event e -> Some e | Span.Span _ -> None)
          (Span.records ())
      with
      | [ e ] ->
          Alcotest.(check string) "event name" "midway" e.Span.e_name;
          Alcotest.(check (option int))
            "event parented to outer" (Some outer.Span.id) e.Span.e_parent
      | es -> Alcotest.failf "expected exactly one event, got %d" (List.length es))

let test_span_survives_exception =
  with_obs (fun () ->
      Span.reset ();
      (try Span.with_span "raising" (fun () -> failwith "boom") with Failure _ -> ());
      match Span.spans () with
      | [ s ] -> Alcotest.(check string) "span recorded on raise" "raising" s.Span.name
      | ss -> Alcotest.failf "expected one span, got %d" (List.length ss))

let test_prometheus_output =
  with_obs (fun () ->
      let c = Metrics.Counter.create "prom_requests_total" ~help:"Total requests" in
      Metrics.Counter.add c 3.;
      let g =
        Metrics.Gauge.create "prom_temperature" ~labels:[ ("room", "a\"b\\c\nd") ]
      in
      Metrics.Gauge.set g 21.5;
      let h = Metrics.Histogram.create "prom_latency" ~base:2. ~lowest:1. ~buckets:2 in
      List.iter (Metrics.Histogram.observe h) [ 0.5; 1.5; 3. ];
      let text = Cap_obs.Prometheus.render () in
      let check_line line =
        let present =
          List.exists (fun l -> l = line) (String.split_on_char '\n' text)
        in
        if not present then Alcotest.failf "missing line %S in:\n%s" line text
      in
      check_line "# HELP prom_requests_total Total requests";
      check_line "# TYPE prom_requests_total counter";
      check_line "prom_requests_total 3";
      (* quote, backslash and newline must be escaped in label values *)
      check_line "prom_temperature{room=\"a\\\"b\\\\c\\nd\"} 21.5";
      check_line "# TYPE prom_latency histogram";
      check_line "prom_latency_bucket{le=\"1\"} 1";
      check_line "prom_latency_bucket{le=\"2\"} 2";
      check_line "prom_latency_bucket{le=\"+Inf\"} 3";
      check_line "prom_latency_sum 5";
      check_line "prom_latency_count 3")

(* exports list instruments by (name, labels), not by which was
   registered first *)
let test_export_order =
  with_obs (fun () ->
      Metrics.Counter.incr (Metrics.Counter.create "order_zz_second");
      Metrics.Gauge.set (Metrics.Gauge.create "order_mm" ~labels:[ ("k", "2") ]) 2.;
      Metrics.Gauge.set (Metrics.Gauge.create "order_mm" ~labels:[ ("k", "1") ]) 1.;
      Metrics.Counter.incr (Metrics.Counter.create "order_aa_first");
      let ours name = String.length name > 6 && String.sub name 0 6 = "order_" in
      let want =
        [
          ("order_aa_first", []);
          ("order_mm", [ ("k", "1") ]);
          ("order_mm", [ ("k", "2") ]);
          ("order_zz_second", []);
        ]
      in
      let pair = Alcotest.(list (pair string (list (pair string string)))) in
      Alcotest.check pair "collect" want
        (List.filter_map
           (fun (s : Metrics.sample) ->
             if ours s.Metrics.name then Some (s.Metrics.name, s.Metrics.labels) else None)
           (Metrics.collect ()));
      Alcotest.check pair "export_values" want
        (List.filter (fun (key, _) -> ours (fst key)) (Metrics.export_values ())
        |> List.map fst);
      let text = Cap_obs.Prometheus.render () in
      let lines =
        List.filter ours (String.split_on_char '\n' text)
      in
      Alcotest.(check (list string)) "prometheus"
        [
          "order_aa_first 1";
          "order_mm{k=\"1\"} 1";
          "order_mm{k=\"2\"} 2";
          "order_zz_second 1";
        ]
        lines)

let test_jsonl_output =
  with_obs (fun () ->
      Span.reset ();
      Span.with_span "parent" (fun () ->
          Span.with_span "child \"quoted\"" ~attrs:[ ("key", "line\nbreak") ] (fun () -> ()));
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' (Cap_obs.Jsonl.render ()))
      in
      Alcotest.(check int) "one line per span" 2 (List.length lines);
      let child = List.nth lines 1 in
      let contains needle =
        let n = String.length needle and hay = String.length child in
        let rec go i = i + n <= hay && (String.sub child i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        "escaped name" true
        (contains "\"name\":\"child \\\"quoted\\\"\"");
      Alcotest.(check bool) "escaped attr" true (contains "\"key\":\"line\\nbreak\"");
      Alcotest.(check bool) "parent id 0" true (contains "\"parent\":0");
      Alcotest.(check string) "escape helper" "a\\\\b\\nc\\td\\\"e"
        (Cap_obs.Jsonl.escape_string "a\\b\nc\td\"e"))

let test_summary_table =
  with_obs (fun () ->
      Span.reset ();
      Span.with_span "summary_span" (fun () -> ());
      Span.with_span "summary_span" (fun () -> ());
      let c = Metrics.Counter.create "summary_counter" in
      Metrics.Counter.add c 5.;
      let rendered = Cap_obs.Summary.render () in
      let contains needle =
        let n = String.length needle and hay = String.length rendered in
        let rec go i = i + n <= hay && (String.sub rendered i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "span section present" true (contains "summary_span");
      Alcotest.(check bool) "counter section present" true (contains "summary_counter");
      Alcotest.(check bool) "span count aggregated" true (contains "2"))

let test_trace_csv_round_trip () =
  let trace = Cap_sim.Trace.create () in
  let points =
    [
      { Cap_sim.Trace.time = 20.; clients = 100; pqos = 0.875; utilization = 0.5;
        reassignments = 0; unassigned = 0; down_servers = 0; components = 1 };
      { Cap_sim.Trace.time = 40.; clients = 104; pqos = 0.912; utilization = 0.625;
        reassignments = 1; unassigned = 7; down_servers = 1; components = 2 };
      { Cap_sim.Trace.time = 60.; clients = 99; pqos = 0.75; utilization = 0.375;
        reassignments = 2; unassigned = 0; down_servers = 0; components = 1 };
    ]
  in
  List.iter (Cap_sim.Trace.record trace) points;
  let round_tripped =
    match Cap_sim.Trace.parse_csv (Cap_sim.Trace.to_csv trace) with
    | Ok t -> Cap_sim.Trace.points t
    | Error e -> Alcotest.failf "round trip: %s" (Cap_sim.Trace.describe_error e)
  in
  Alcotest.(check int) "length" (List.length points) (List.length round_tripped);
  List.iter2
    (fun (a : Cap_sim.Trace.point) (b : Cap_sim.Trace.point) ->
      (* to_csv prints time to 0.1 and ratios to 3 decimals; the points
         above are exact at that precision, so equality must hold *)
      Alcotest.(check (float 1e-9)) "time" a.Cap_sim.Trace.time b.Cap_sim.Trace.time;
      Alcotest.(check int) "clients" a.Cap_sim.Trace.clients b.Cap_sim.Trace.clients;
      Alcotest.(check (float 1e-9)) "pqos" a.Cap_sim.Trace.pqos b.Cap_sim.Trace.pqos;
      Alcotest.(check (float 1e-9))
        "utilization" a.Cap_sim.Trace.utilization b.Cap_sim.Trace.utilization;
      Alcotest.(check int)
        "reassignments" a.Cap_sim.Trace.reassignments b.Cap_sim.Trace.reassignments;
      Alcotest.(check int) "unassigned" a.Cap_sim.Trace.unassigned b.Cap_sim.Trace.unassigned;
      Alcotest.(check int)
        "down servers" a.Cap_sim.Trace.down_servers b.Cap_sim.Trace.down_servers;
      Alcotest.(check int)
        "components" a.Cap_sim.Trace.components b.Cap_sim.Trace.components)
    points round_tripped;
  (* malformed inputs now yield structured diagnostics *)
  (match Cap_sim.Trace.parse_csv "nope\n1,2,3,4,5\n" with
  | Ok _ -> Alcotest.fail "bad header accepted"
  | Error e ->
      Alcotest.(check int) "header line" 1 e.Cap_sim.Trace.line;
      Alcotest.(check string) "header field" "header" e.Cap_sim.Trace.field;
      Alcotest.(check string) "diagnostic"
        "line 1: field header = \"nope\": expected time,clients,pQoS,util,reassigns,unassigned,down,parts"
        (Cap_sim.Trace.describe_error e));
  (match
     Cap_sim.Trace.parse_csv
       "time,clients,pQoS,util,reassigns,unassigned,down,parts\n1,2,3\n"
   with
  | Ok _ -> Alcotest.fail "short row accepted"
  | Error e ->
      Alcotest.(check int) "row line" 2 e.Cap_sim.Trace.line;
      Alcotest.(check string) "row field" "row" e.Cap_sim.Trace.field);
  (match
     Cap_sim.Trace.parse_csv
       "time,clients,pQoS,util,reassigns,unassigned,down,parts\n20.0,100,0.875,0.5,0,0,0,1\n40.0,x,0.9,0.5,0,0,0,1\n"
   with
  | Ok _ -> Alcotest.fail "bad cell accepted"
  | Error e ->
      Alcotest.(check int) "cell line" 3 e.Cap_sim.Trace.line;
      Alcotest.(check string) "cell field" "clients" e.Cap_sim.Trace.field;
      Alcotest.(check string) "cell value" "x" e.Cap_sim.Trace.value);
  (* CRLF and trailing-newline tolerance *)
  (match
     Cap_sim.Trace.parse_csv
       "time,clients,pQoS,util,reassigns,unassigned,down,parts\r\n20.0,100,0.875,0.500,0,0,0,1\r\n\r\n"
   with
  | Ok t -> Alcotest.(check int) "CRLF parsed" 1 (List.length (Cap_sim.Trace.points t))
  | Error e -> Alcotest.failf "CRLF rejected: %s" (Cap_sim.Trace.describe_error e))

let test_instrumented_solver =
  with_obs (fun () ->
      Span.reset ();
      let rng = Cap_util.Rng.create ~seed:7 in
      let world =
        Cap_model.World.generate rng (List.hd Cap_model.Scenario.small_configurations)
      in
      let _ = Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec rng world in
      let names = List.map (fun (s : Span.span) -> s.Span.name) (Span.spans ()) in
      List.iter
        (fun expected ->
          if not (List.mem expected names) then
            Alcotest.failf "missing span %s in %s" expected (String.concat ", " names))
        [ "two_phase/run"; "two_phase/iap"; "two_phase/rap" ];
      let text = Cap_obs.Prometheus.render () in
      let contains needle =
        let n = String.length needle and hay = String.length text in
        let rec go i = i + n <= hay && (String.sub text i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "two_phase counter exported" true (contains "two_phase_runs_total");
      Alcotest.(check bool) "grez counter exported" true (contains "grez_zones_placed_total"))

let tests =
  [
    ( "obs",
      [
        case "disabled telemetry is a no-op" test_disabled_is_noop;
        case "counters and gauges" test_counter_and_gauge;
        case "histogram bucket boundaries" test_histogram_buckets;
        case "histogram quantiles track Stats.quantile" test_histogram_quantiles;
        case "span nesting and ordering" test_span_nesting;
        case "span recorded on exception" test_span_survives_exception;
        case "prometheus output and escaping" test_prometheus_output;
        case "exports sort by name and labels" test_export_order;
        case "jsonl output and escaping" test_jsonl_output;
        case "console summary" test_summary_table;
        case "sim trace csv round trip" test_trace_csv_round_trip;
        case "two-phase solver emits spans and metrics" test_instrumented_solver;
      ] );
  ]
