module Graph = Cap_topology.Graph
module Sp = Cap_topology.Shortest_paths

let case name f = Alcotest.test_case name `Quick f

(* A small graph with a known shortest-path structure:

      0 --1-- 1 --1-- 2
      |               |
      10 ------------ 0.5   i.e. edges 0-3 (10.) and 2-3 (0.5) *)
let diamond () =
  let b = Graph.Builder.create 4 in
  Graph.Builder.add_edge b 0 1 1.;
  Graph.Builder.add_edge b 1 2 1.;
  Graph.Builder.add_edge b 0 3 10.;
  Graph.Builder.add_edge b 2 3 0.5;
  Graph.Builder.finish b

let test_dijkstra_known () =
  let dist = Sp.dijkstra (diamond ()) ~src:0 in
  Alcotest.(check (array (float 1e-9))) "distances" [| 0.; 1.; 2.; 2.5 |] dist

let test_dijkstra_unreachable () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_edge b 0 1 1.;
  let g = Graph.Builder.finish b in
  let dist = Sp.dijkstra g ~src:0 in
  Alcotest.(check bool) "unreachable infinite" true (dist.(2) = infinity);
  Alcotest.(check (float 1e-9)) "reachable" 1. dist.(1)

let test_dijkstra_invalid_source () =
  Alcotest.check_raises "bad source"
    (Invalid_argument "Shortest_paths.dijkstra: source out of range") (fun () ->
      ignore (Sp.dijkstra (diamond ()) ~src:7))

let test_path_reconstruction () =
  match Oracle.Shortest_paths.dijkstra_path (diamond ()) ~src:0 ~dst:3 with
  | None -> Alcotest.fail "expected a path"
  | Some (d, path) ->
      Alcotest.(check (float 1e-9)) "distance" 2.5 d;
      Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] path

let test_path_unreachable () =
  let b = Graph.Builder.create 2 in
  let g = Graph.Builder.finish b in
  Alcotest.(check bool) "no path" true (Oracle.Shortest_paths.dijkstra_path g ~src:0 ~dst:1 = None)

let test_floyd_warshall_known () =
  let dist = Oracle.Shortest_paths.floyd_warshall (diamond ()) in
  Alcotest.(check (float 1e-9)) "0->3" 2.5 dist.(0).(3);
  Alcotest.(check (float 1e-9)) "3->0" 2.5 dist.(3).(0);
  Alcotest.(check (float 1e-9)) "diagonal" 0. dist.(2).(2)

let test_eccentricity_diameter () =
  let dist = Sp.all_pairs (diamond ()) in
  Alcotest.(check (float 1e-9)) "ecc of 0" 2.5 (Oracle.Shortest_paths.eccentricity dist.(0));
  Alcotest.(check (float 1e-9)) "diameter" 2.5 (Oracle.Shortest_paths.diameter dist);
  Alcotest.(check (float 1e-9)) "all-infinite row" 0. (Oracle.Shortest_paths.eccentricity [| infinity |])

let random_connected_graph seed n =
  let rng = Cap_util.Rng.create ~seed in
  let b = Graph.Builder.create n in
  for v = 1 to n - 1 do
    let u = Cap_util.Rng.int rng v in
    Graph.Builder.add_edge b u v (0.1 +. Cap_util.Rng.uniform rng)
  done;
  for _ = 1 to n do
    let u = Cap_util.Rng.int rng n and v = Cap_util.Rng.int rng n in
    if u <> v && not (Graph.Builder.has_edge b u v) then
      Graph.Builder.add_edge b u v (0.1 +. Cap_util.Rng.uniform rng)
  done;
  Graph.Builder.finish b

let prop_dijkstra_equals_floyd_warshall =
  QCheck.Test.make ~name:"dijkstra = floyd-warshall" ~count:60 QCheck.small_nat (fun seed ->
      let g = random_connected_graph seed 14 in
      let d1 = Sp.all_pairs g in
      let d2 = Oracle.Shortest_paths.floyd_warshall g in
      let ok = ref true in
      for i = 0 to 13 do
        for j = 0 to 13 do
          if abs_float (d1.(i).(j) -. d2.(i).(j)) > 1e-9 then ok := false
        done
      done;
      !ok)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"shortest paths satisfy triangle inequality" ~count:60
    QCheck.small_nat (fun seed ->
      let g = random_connected_graph seed 10 in
      let d = Sp.all_pairs g in
      let ok = ref true in
      for i = 0 to 9 do
        for j = 0 to 9 do
          for k = 0 to 9 do
            if d.(i).(j) > d.(i).(k) +. d.(k).(j) +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let prop_path_consistent =
  QCheck.Test.make ~name:"reported path exists and sums to distance" ~count:60
    QCheck.small_nat (fun seed ->
      let g = random_connected_graph seed 12 in
      match Oracle.Shortest_paths.dijkstra_path g ~src:0 ~dst:11 with
      | None -> false
      | Some (d, path) ->
          let rec walk acc = function
            | u :: (v :: _ as rest) -> (
                match Graph.edge_weight g u v with
                | None -> None
                | Some w -> walk (acc +. w) rest)
            | [ _ ] | [] -> Some acc
          in
          (match walk 0. path with
          | Some total -> abs_float (total -. d) < 1e-9
          | None -> false)
          && List.hd path = 0
          && List.nth path (List.length path - 1) = 11)

let tests =
  [
    ( "topology/shortest_paths",
      [
        case "dijkstra known" test_dijkstra_known;
        case "dijkstra unreachable" test_dijkstra_unreachable;
        case "dijkstra invalid source" test_dijkstra_invalid_source;
        case "path reconstruction" test_path_reconstruction;
        case "path unreachable" test_path_unreachable;
        case "floyd-warshall known" test_floyd_warshall_known;
        case "eccentricity and diameter" test_eccentricity_diameter;
        QCheck_alcotest.to_alcotest prop_dijkstra_equals_floyd_warshall;
        QCheck_alcotest.to_alcotest prop_triangle_inequality;
        QCheck_alcotest.to_alcotest prop_path_consistent;
      ] );
  ]
