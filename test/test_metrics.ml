module Metrics = Cap_model.Metrics
module Assignment = Cap_model.Assignment
module World = Cap_model.World

let case name f = Alcotest.test_case name `Quick f
let feq = Alcotest.(check (float 1e-9))

(* fixture delays with targets [|0;1|], contacts = targets:
   [| 0.; 40.; 60.; 60. |] *)

let fixture_assignment w = Assignment.with_virc_contacts w ~target_of_zone:[| 0; 1 |]

let test_percentiles () =
  let w = Fixtures.standard () in
  let s = Metrics.summary (fixture_assignment w) w in
  feq "median" 50. s.Metrics.median_delay;
  feq "p95" 60. s.Metrics.p95_delay;
  feq "max" 60. s.Metrics.worst_delay

let test_jain () =
  (* equal fills -> 1 *)
  let w = Fixtures.standard ~capacities:[| 6000.; 6000. |] () in
  let a = fixture_assignment w in
  feq "equal fills" 1. (Metrics.jain_fairness a w);
  (* everything on one server -> 1/2 *)
  let w2 = Fixtures.standard ~capacities:[| 24000.; 24000. |] () in
  let lopsided = Assignment.with_virc_contacts w2 ~target_of_zone:[| 0; 0 |] in
  feq "single loaded server" 0.5 (Metrics.jain_fairness lopsided w2)

let test_jain_idle () =
  let w =
    Fixtures.world ~server_nodes:[| 0; 1 |] ~capacities:[| 1e6; 1e6 |] ~clients:[] ~zones:1 ()
  in
  let a = Assignment.make ~target_of_zone:[| 0 |] ~contact_of_client:[||] in
  (* one zone with zero clients: zero load everywhere *)
  feq "idle system" 1. (Metrics.jain_fairness a w)

let test_summary () =
  let w = Fixtures.standard () in
  let a = fixture_assignment w in
  let s = Metrics.summary a w in
  feq "pqos" 1. s.Metrics.pqos;
  feq "mean delay" 40. s.Metrics.mean_delay;
  feq "worst" 60. s.Metrics.worst_delay;
  Alcotest.(check int) "no overloads" 0 s.Metrics.overloaded_servers

let test_empty_world () =
  let w =
    Fixtures.world ~server_nodes:[| 0 |] ~capacities:[| 1e6 |] ~clients:[] ~zones:1 ()
  in
  let a = Assignment.make ~target_of_zone:[| 0 |] ~contact_of_client:[||] in
  let s = Metrics.summary a w in
  feq "vacuous pqos" 1. s.Metrics.pqos;
  feq "no delays" 0. s.Metrics.mean_delay

let prop_percentiles_monotone =
  QCheck.Test.make ~name:"percentiles monotone in q" ~count:30 QCheck.small_nat (fun seed ->
      let w = Fixtures.generated ~seed:(seed + 1) () in
      let targets = Cap_core.Grez.assign w in
      let s = Metrics.summary (Assignment.with_virc_contacts w ~target_of_zone:targets) w in
      s.Metrics.median_delay <= s.Metrics.p95_delay +. 1e-9
      && s.Metrics.p95_delay <= s.Metrics.worst_delay +. 1e-9)

let prop_jain_in_range =
  QCheck.Test.make ~name:"Jain index within [1/n, 1]" ~count:30 QCheck.small_nat (fun seed ->
      let w = Fixtures.generated ~seed:(seed + 1) () in
      let targets = Cap_core.Grez.assign w in
      let a = Assignment.with_virc_contacts w ~target_of_zone:targets in
      let j = Metrics.jain_fairness a w in
      j >= 1. /. float_of_int (World.server_count w) -. 1e-9 && j <= 1. +. 1e-9)

let tests =
  [
    ( "model/metrics",
      [
        case "percentiles" test_percentiles;
        case "jain" test_jain;
        case "jain idle" test_jain_idle;
        case "summary" test_summary;
        case "empty world" test_empty_world;
        QCheck_alcotest.to_alcotest prop_percentiles_monotone;
        QCheck_alcotest.to_alcotest prop_jain_in_range;
      ] );
  ]
