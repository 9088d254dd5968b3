module Regret = Cap_core.Regret
module Walk = Regret.Walk

let case name f = Alcotest.test_case name `Quick f

(* A walk over one item whose keys (lower is better) and ties are
   given; [draw_all] lists every server in preference order. *)
let walk ?ties keys =
  let w = Walk.create (Array.length keys) in
  Array.blit keys 0 (Walk.keys w) 0 (Array.length keys);
  Option.iter (fun t -> Array.blit t 0 (Walk.ties w) 0 (Array.length t)) ties;
  w

let draw_all w =
  Walk.start w;
  let rec go acc = match Walk.next w with -1 -> List.rev acc | s -> go (s :: acc) in
  go []

(* Regret with GreZ's desirability, the negated key. *)
let regret ?(rule = Regret.Best_minus_second) keys =
  Walk.regret rule (walk keys) ~desirability:Float.neg

(* [rank] over items whose key rows are given per id. *)
let rank ?(rule = Regret.Best_minus_second) table ids =
  let servers = Array.length table.(0) in
  let w = Walk.create servers in
  Regret.rank w ~rule ~ids:(Array.of_list ids)
    ~fill:(fun id -> Array.blit table.(id) 0 (Walk.keys w) 0 servers)
    ~desirability:Float.neg
  |> Array.to_list

let test_pref_sorting () =
  Alcotest.(check (list int)) "ascending key" [ 2; 1; 0 ] (draw_all (walk [| 2.; 1.; 0. |]))

let test_tie_break () =
  (* equal keys everywhere: ties broken by the tie row, then server
     index *)
  Alcotest.(check (list int)) "tie break first, then index" [ 2; 0; 1 ]
    (draw_all (walk ~ties:[| 0.; 0.; -1. |] [| 5.; 5.; 5. |]))

let test_regret_value () =
  Alcotest.(check (float 1e-9)) "best minus second" 3. (regret [| -10.; -4.; -7. |])

let test_paper_rule () =
  Alcotest.(check (float 1e-9)) "second minus best" (-3.)
    (regret ~rule:Regret.Second_minus_best [| -10.; -4.; -7. |])

let test_processing_order () =
  (* item 1 has a much larger regret than item 0, so it goes first *)
  let table = [| [| -5.; -4.9 |]; [| -10.; -1. |] |] in
  Alcotest.(check (list int)) "largest regret first" [ 1; 0 ] (rank table [ 0; 1 ])

let test_regret_tie_by_id () =
  let table = Array.make 10 [| 0.; -1. |] in
  Alcotest.(check (list int)) "equal regrets by ascending id" [ 2; 5; 9 ]
    (rank table [ 5; 2; 9 ])

let test_single_server () =
  Alcotest.(check (float 1e-9)) "zero regret" 0. (regret [| 3. |]);
  (* even when the only option is unreachable *)
  Alcotest.(check (float 1e-9)) "zero regret, infinite key" 0. (regret [| infinity |])

let test_validation () =
  Alcotest.check_raises "no servers"
    (Invalid_argument "Regret.Walk.create: need at least one server") (fun () ->
      ignore (Walk.create 0))

(* Keys and ties from a few distinct values, so ties are common. *)
let table_gen rng ~items ~servers =
  Array.init items (fun _ ->
      Array.init servers (fun _ -> float_of_int (Cap_util.Rng.int rng 4)))

(* The walk must reproduce the full sort the heuristics were written
   against (Oracle.Regret.order, desirability = -key, tie-break = the
   tie row) at any depth, through the selections and the sort. *)
let prop_prefs_complete_and_sorted =
  QCheck.Test.make ~name:"prefs are a sorted permutation of servers" ~count:200
    QCheck.(pair (int_range 1 12) small_nat)
    (fun (servers, seed) ->
      let rng = Cap_util.Rng.create ~seed in
      let keys = table_gen rng ~items:5 ~servers and ties = table_gen rng ~items:5 ~servers in
      let oracle =
        Oracle.Regret.order ~ids:[| 0; 1; 2; 3; 4 |] ~servers
          ~desirability:(fun j s -> -.keys.(j).(s))
          ~tie_break:(fun j s -> ties.(j).(s))
          ~rule:Regret.Best_minus_second
      in
      Array.for_all
        (fun (item : Oracle.Regret.item) ->
          let j = item.Oracle.Regret.id in
          draw_all (walk ~ties:ties.(j) keys.(j))
          = Array.to_list (Array.map fst item.Oracle.Regret.prefs))
        oracle)

let prop_processing_order_monotone =
  QCheck.Test.make ~name:"items sorted by descending regret" ~count:200
    QCheck.(triple (int_range 1 8) small_nat bool)
    (fun (servers, seed, paper) ->
      let rng = Cap_util.Rng.create ~seed in
      let keys = table_gen rng ~items:6 ~servers in
      (* an unreachable option here and there: NaN regrets must rank
         exactly as under compare *)
      Array.iter
        (fun row ->
          Array.iteri (fun s _ -> if Cap_util.Rng.int rng 3 = 0 then row.(s) <- infinity) row)
        keys;
      let rule = if paper then Regret.Second_minus_best else Regret.Best_minus_second in
      let ids = [ 0; 1; 2; 3; 4; 5 ] in
      let oracle =
        Oracle.Regret.order ~ids:(Array.of_list ids) ~servers
          ~desirability:(fun j s -> -.keys.(j).(s))
          ~tie_break:(fun _ _ -> 0.) ~rule
      in
      rank ~rule keys ids = Array.to_list (Array.map (fun i -> i.Oracle.Regret.id) oracle))

let tests =
  [
    ( "core/regret",
      [
        case "pref sorting" test_pref_sorting;
        case "tie break" test_tie_break;
        case "regret value" test_regret_value;
        case "paper-literal rule" test_paper_rule;
        case "processing order" test_processing_order;
        case "regret ties by id" test_regret_tie_by_id;
        case "single server" test_single_server;
        case "validation" test_validation;
        QCheck_alcotest.to_alcotest prop_prefs_complete_and_sorted;
        QCheck_alcotest.to_alcotest prop_processing_order_monotone;
      ] );
  ]
