(* Cross-checks between independently implemented components: the
   heuristics against the exact solver, the CDF against pQoS, the
   metaheuristics against the optimal lower bound. *)

module World = Cap_model.World
module Assignment = Cap_model.Assignment
module Scenario = Cap_model.Scenario
module Gap = Cap_milp.Gap
module Rng = Cap_util.Rng

let case name f = Alcotest.test_case name `Quick f

let tiny_world seed =
  let scenario = Scenario.make ~servers:3 ~zones:6 ~clients:30 ~total_capacity_mbps:40. () in
  World.generate (Rng.create ~seed) scenario

let optimal_iap_cost w =
  match Cap_milp.Optimal.solve_iap w with
  | Some (_, stats) -> Some stats.Cap_milp.Optimal.objective
  | None -> None

let iap_cost w targets = Gap.objective (Cap_milp.Optimal.iap_instance w) targets

let prop_heuristics_bounded_below_by_optimum =
  QCheck.Test.make ~name:"every IAP heuristic is >= the exact optimum" ~count:8
    QCheck.small_nat (fun seed ->
      let w = tiny_world (seed + 1) in
      match optimal_iap_cost w with
      | None -> true
      | Some optimum ->
          let candidates =
            [
              Cap_core.Grez.assign w;
              Cap_core.Grez.assign ~dynamic:true w;
              Cap_core.Balance.assign w;
              Cap_milp.Lp_rounding.iap_targets w;
              (Cap_core.Annealing.improve (Rng.create ~seed) w
                 ~targets:(Cap_core.Grez.assign w))
                .Cap_core.Annealing.targets;
              (Cap_core.Genetic.improve (Rng.create ~seed)
                 ~params:{ Cap_core.Genetic.default_params with Cap_core.Genetic.generations = 30 }
                 w
                 ~targets:(Cap_core.Grez.assign w))
                .Cap_core.Genetic.targets;
            ]
          in
          List.for_all (fun targets -> iap_cost w targets >= optimum -. 1e-6) candidates)

let prop_cdf_at_bound_equals_pqos =
  (* Fig. 4's curve evaluated at D must equal Table 1's pQoS: two
     independent code paths over the same assignment. *)
  QCheck.Test.make ~name:"CDF(D) = pQoS" ~count:10 QCheck.small_nat (fun seed ->
      let w = Fixtures.generated ~seed:(seed + 1) () in
      List.for_all
        (fun algorithm ->
          let a = Cap_core.Two_phase.run algorithm (Rng.create ~seed) w in
          let cdf = Cap_util.Stats.Cdf.of_samples (Assignment.delay_samples a w) in
          let bound = w.World.scenario.Scenario.delay_bound in
          abs_float (Cap_util.Stats.Cdf.eval cdf bound -. Assignment.pqos a w) < 1e-9)
        Cap_core.Two_phase.all)

let prop_utilization_consistency =
  (* Assignment.utilization must equal the ratio rebuilt from raw
     loads and Metrics' summary must agree with the direct metrics. *)
  QCheck.Test.make ~name:"utilization and summary agree with raw loads" ~count:10
    QCheck.small_nat (fun seed ->
      let w = Fixtures.generated ~seed:(seed + 1) () in
      let a = Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.create ~seed) w in
      let loads = Assignment.server_loads a w in
      let direct = Array.fold_left ( +. ) 0. loads /. World.total_capacity w in
      let s = Cap_model.Metrics.summary a w in
      abs_float (Assignment.utilization a w -. direct) < 1e-9
      && abs_float (s.Cap_model.Metrics.pqos -. Assignment.pqos a w) < 1e-9
      && abs_float
           (s.Cap_model.Metrics.worst_delay
           -. Cap_util.Stats.max_value (Assignment.delay_samples a w))
         < 1e-9)

let test_rap_optimal_bounded_by_heuristic () =
  let w = tiny_world 42 in
  let targets = Cap_core.Grez.assign w in
  let gap = Cap_milp.Optimal.rap_instance w ~targets in
  let _, stats = Cap_milp.Optimal.solve_rap w ~targets in
  let grec_cost = Gap.objective gap (Cap_core.Grec.assign w ~targets) in
  let virc_cost = Gap.objective gap (Cap_core.Virc.assign w ~targets) in
  Alcotest.(check bool) "optimal <= GreC" true
    (stats.Cap_milp.Optimal.objective <= grec_cost +. 1e-6);
  Alcotest.(check bool) "GreC <= VirC (it only improves)" true
    (grec_cost <= virc_cost +. 1e-6)

let test_fluid_nominal_equals_assignment_pqos () =
  let w = Fixtures.generated () in
  let a = Cap_core.Two_phase.run Cap_core.Two_phase.grez_virc (Rng.create ~seed:1) w in
  let outcome = Cap_sim.Fluid_sim.run (Rng.create ~seed:2) w a in
  Alcotest.(check (float 1e-9)) "two pQoS paths agree" (Assignment.pqos a w)
    outcome.Cap_sim.Fluid_sim.nominal_pqos

let test_brute_force_agrees_with_bb_on_fixture_iap () =
  (* exhaustive search over the 2-zone fixture agrees with B&B *)
  let w = Fixtures.standard () in
  let gap = Cap_milp.Optimal.iap_instance w in
  match Oracle.gap_brute_force gap, (Cap_milp.Branch_bound.solve gap).Cap_milp.Branch_bound.solution with
  | Some (_, brute), Some solution ->
      Alcotest.(check (float 1e-9)) "same optimum" brute (Gap.objective gap solution)
  | _ -> Alcotest.fail "both solvers should succeed on the fixture"

let tests =
  [
    ( "cross-validation",
      [
        case "RAP optimum bounded by heuristics" test_rap_optimal_bounded_by_heuristic;
        case "fluid nominal = assignment pQoS" test_fluid_nominal_equals_assignment_pqos;
        case "brute force = B&B on fixture" test_brute_force_agrees_with_bb_on_fixture_iap;
        QCheck_alcotest.to_alcotest prop_heuristics_bounded_below_by_optimum;
        QCheck_alcotest.to_alcotest prop_cdf_at_bound_equals_pqos;
        QCheck_alcotest.to_alcotest prop_utilization_consistency;
      ] );
  ]
