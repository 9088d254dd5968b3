module Gap = Cap_milp.Gap
module Lp = Cap_milp.Lp
module Simplex = Cap_milp.Simplex

let case name f = Alcotest.test_case name `Quick f

let sample () =
  (* 3 items x 2 servers *)
  Gap.make
    ~costs:[| [| 1.; 4. |]; [| 2.; 0. |]; [| 3.; 3. |] |]
    ~demands:[| [| 1.; 1. |]; [| 2.; 2. |]; [| 1.; 2. |] |]
    ~capacities:[| 2.; 4. |]

let test_make_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "no items" true
    (bad (fun () -> Gap.make ~costs:[||] ~demands:[||] ~capacities:[| 1. |]));
  Alcotest.(check bool) "no servers" true
    (bad (fun () -> Gap.make ~costs:[| [||] |] ~demands:[| [||] |] ~capacities:[||]));
  Alcotest.(check bool) "ragged costs" true
    (bad (fun () ->
         Gap.make ~costs:[| [| 1. |] |] ~demands:[| [| 1.; 1. |] |] ~capacities:[| 1.; 1. |]));
  Alcotest.(check bool) "negative demand" true
    (bad (fun () ->
         Gap.make ~costs:[| [| 1.; 1. |] |] ~demands:[| [| -1.; 1. |] |]
           ~capacities:[| 1.; 1. |]));
  Alcotest.(check bool) "mismatched demands" true
    (bad (fun () ->
         Gap.make ~costs:[| [| 1.; 1. |] |] ~demands:[||] ~capacities:[| 1.; 1. |]))

let test_counts () =
  let g = sample () in
  Alcotest.(check int) "items" 3 (Gap.item_count g);
  Alcotest.(check int) "servers" 2 (Gap.server_count g)

let test_objective () =
  Alcotest.(check (float 1e-9)) "sum of chosen costs" 7. (Gap.objective (sample ()) [| 1; 1; 0 |])

let test_feasibility () =
  let g = sample () in
  (* item demands on server 0: i0=1, i1=2, i2=1 with capacity 2 *)
  Alcotest.(check bool) "ok" true (Gap.is_feasible g [| 0; 1; 1 |]);
  Alcotest.(check bool) "server 0 overloaded" false (Gap.is_feasible g [| 0; 0; 0 |])

let test_brute_force () =
  match Oracle.gap_brute_force (sample ()) with
  | None -> Alcotest.fail "expected a solution"
  | Some (assignment, cost) ->
      Alcotest.(check bool) "feasible" true (Gap.is_feasible (sample ()) assignment);
      (* optimal: i0 -> s0 (1), i1 -> s1 (0), i2 -> s1? demand 2 on s1:
         i1 uses 2, i2 uses 2 -> 4 total, fits capacity 4;
         total cost 1 + 0 + 3 = 4. Alternative i2 -> s0: 1 + 0 + 3 = 4
         with demands 1+1=2 on s0. Either way cost 4. *)
      Alcotest.(check (float 1e-9)) "optimal cost" 4. cost

let test_brute_force_infeasible () =
  let g =
    Gap.make ~costs:[| [| 1. |] |] ~demands:[| [| 5. |] |] ~capacities:[| 1. |]
  in
  Alcotest.(check bool) "no solution" true (Oracle.gap_brute_force g = None)

let test_brute_force_guard () =
  let costs = Array.make 30 [| 1.; 1.; 1. |] in
  let demands = Array.make 30 [| 0.; 0.; 0. |] in
  let g = Gap.make ~costs ~demands ~capacities:[| 1.; 1.; 1. |] in
  Alcotest.check_raises "refuses huge spaces"
    (Invalid_argument "Oracle.gap_brute_force: search space too large") (fun () ->
      ignore (Oracle.gap_brute_force g))

let test_lp_relaxation_shape () =
  let lp = Gap.lp_relaxation (sample ()) in
  Alcotest.(check int) "variables = items x servers" 6 (Lp.variable_count lp);
  Alcotest.(check int) "constraints = items + servers" 5 (Lp.constraint_count lp)

let prop_lp_bounds_integer_optimum =
  (* the LP relaxation is a valid lower bound on the integer optimum *)
  QCheck.Test.make ~name:"LP relaxation <= integer optimum" ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Cap_util.Rng.create ~seed in
      let items = 2 + Cap_util.Rng.int rng 3 and servers = 2 + Cap_util.Rng.int rng 2 in
      let g =
        Gap.make
          ~costs:
            (Array.init items (fun _ ->
                 Array.init servers (fun _ -> Cap_util.Rng.float_in rng 0. 10.)))
          ~demands:
            (Array.init items (fun _ ->
                 Array.init servers (fun _ -> Cap_util.Rng.float_in rng 0.5 2.)))
          ~capacities:(Array.init servers (fun _ -> Cap_util.Rng.float_in rng 2. 6.))
      in
      match Oracle.gap_brute_force g with
      | None -> true
      | Some (_, integer_opt) -> (
          match Simplex.solve (Gap.lp_relaxation g) with
          | Simplex.Optimal { objective; _ } -> objective <= integer_opt +. 1e-6
          | Simplex.Infeasible -> false (* integer feasible implies LP feasible *)
          | Simplex.Unbounded -> false))

let tests =
  [
    ( "milp/gap",
      [
        case "make validation" test_make_validation;
        case "counts" test_counts;
        case "objective" test_objective;
        case "feasibility" test_feasibility;
        case "brute force" test_brute_force;
        case "brute force infeasible" test_brute_force_infeasible;
        case "brute force guard" test_brute_force_guard;
        case "lp relaxation shape" test_lp_relaxation_shape;
        QCheck_alcotest.to_alcotest prop_lp_bounds_integer_optimum;
      ] );
  ]
