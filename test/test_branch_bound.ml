module Gap = Cap_milp.Gap
module Bb = Cap_milp.Branch_bound

let case name f = Alcotest.test_case name `Quick f

let random_gap ?(items = 5) ?(servers = 3) seed =
  let rng = Cap_util.Rng.create ~seed in
  Gap.make
    ~costs:
      (Array.init items (fun _ -> Array.init servers (fun _ -> Cap_util.Rng.float_in rng 0. 10.)))
    ~demands:
      (Array.init items (fun _ -> Array.init servers (fun _ -> Cap_util.Rng.float_in rng 0.5 2.)))
    ~capacities:(Array.init servers (fun _ -> Cap_util.Rng.float_in rng 2. 6.))

let test_solves_known_instance () =
  let g =
    Gap.make
      ~costs:[| [| 1.; 4. |]; [| 2.; 0. |]; [| 3.; 3. |] |]
      ~demands:[| [| 1.; 1. |]; [| 2.; 2. |]; [| 1.; 2. |] |]
      ~capacities:[| 2.; 4. |]
  in
  let result = Bb.solve g in
  Alcotest.(check bool) "proven" true result.Bb.proven_optimal;
  Alcotest.(check (float 1e-9)) "optimal cost" 4. result.Bb.objective;
  match result.Bb.solution with
  | None -> Alcotest.fail "expected a solution"
  | Some s -> Alcotest.(check bool) "feasible" true (Gap.is_feasible g s)

let test_infeasible_instance () =
  let g = Gap.make ~costs:[| [| 1. |] |] ~demands:[| [| 5. |] |] ~capacities:[| 1. |] in
  let result = Bb.solve g in
  Alcotest.(check bool) "no solution" true (result.Bb.solution = None);
  Alcotest.(check bool) "proven infeasible" true result.Bb.proven_optimal;
  Alcotest.(check bool) "objective infinite" true (result.Bb.objective = infinity)

let test_node_budget () =
  let g = random_gap ~items:8 1 in
  let options = { Bb.default_options with Bb.max_nodes = 1 } in
  let result = Bb.solve ~options g in
  Alcotest.(check bool) "budget exhausted" false result.Bb.proven_optimal

let test_warm_start_used () =
  let g = random_gap 2 in
  match (Bb.solve g).Bb.solution with
  | None -> Alcotest.fail "expected solvable instance"
  | Some optimal ->
      let cost = Gap.objective g optimal in
      let options =
        { Bb.default_options with Bb.initial_incumbent = Some (optimal, cost) }
      in
      let result = Bb.solve ~options g in
      Alcotest.(check (float 1e-9)) "optimum returned from warm start" cost
        result.Bb.objective;
      Alcotest.(check bool) "proven" true result.Bb.proven_optimal

let test_infeasible_warm_start_ignored () =
  let g =
    Gap.make ~costs:[| [| 1.; 2. |] |] ~demands:[| [| 1.; 1. |] |] ~capacities:[| 1.; 1. |]
  in
  let options =
    { Bb.default_options with Bb.initial_incumbent = Some ([| 0 |], -100.) }
  in
  (* warm start claims an impossible cost; it is feasible so it IS
     accepted as incumbent. Use an infeasible assignment instead. *)
  let g2 =
    Gap.make ~costs:[| [| 1.; 2. |] |] ~demands:[| [| 5.; 1. |] |] ~capacities:[| 1.; 9. |]
  in
  let options2 =
    { Bb.default_options with Bb.initial_incumbent = Some ([| 0 |], 0.) }
  in
  let result = Bb.solve ~options:options2 g2 in
  Alcotest.(check (float 1e-9)) "ignores infeasible warm start" 2. result.Bb.objective;
  ignore options;
  ignore g

let prop_matches_brute_force =
  QCheck.Test.make ~name:"B&B = brute force on small instances" ~count:80 QCheck.small_nat
    (fun seed ->
      let g = random_gap seed in
      let result = Bb.solve g in
      match Oracle.gap_brute_force g, result.Bb.solution with
      | None, None -> result.Bb.proven_optimal
      | Some (_, brute_cost), Some solution ->
          result.Bb.proven_optimal
          && Gap.is_feasible g solution
          && abs_float (result.Bb.objective -. brute_cost) < 1e-6
          && abs_float (Gap.objective g solution -. result.Bb.objective) < 1e-6
      | None, Some _ | Some _, None -> false)

let prop_lp_bound_agrees =
  QCheck.Test.make ~name:"LP-relaxation bound finds the same optimum" ~count:30
    QCheck.small_nat (fun seed ->
      let g = random_gap ~items:4 seed in
      let combinatorial = Bb.solve g in
      let lp =
        Bb.solve ~options:{ Bb.default_options with Bb.bound = Bb.Lp_relaxation } g
      in
      match combinatorial.Bb.solution, lp.Bb.solution with
      | None, None -> true
      | Some _, Some _ -> abs_float (combinatorial.Bb.objective -. lp.Bb.objective) < 1e-6
      | _ -> false)

let prop_node_count_positive =
  QCheck.Test.make ~name:"explores at least one node" ~count:30 QCheck.small_nat (fun seed ->
      let g = random_gap ~items:3 seed in
      (Bb.solve g).Bb.nodes >= 1)

let tests =
  [
    ( "milp/branch_bound",
      [
        case "solves known instance" test_solves_known_instance;
        case "infeasible instance" test_infeasible_instance;
        case "node budget" test_node_budget;
        case "warm start used" test_warm_start_used;
        case "infeasible warm start ignored" test_infeasible_warm_start_ignored;
        QCheck_alcotest.to_alcotest prop_matches_brute_force;
        QCheck_alcotest.to_alcotest prop_lp_bound_agrees;
        QCheck_alcotest.to_alcotest prop_node_count_positive;
      ] );
  ]
