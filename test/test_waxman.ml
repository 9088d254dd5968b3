module Waxman = Cap_topology.Waxman
module Graph = Cap_topology.Graph
module Rng = Cap_util.Rng

let case name f = Alcotest.test_case name `Quick f

let test_probability () =
  let p = Waxman.probability ~alpha:0.5 ~beta:0.2 ~max_distance:100. in
  Alcotest.(check (float 1e-9)) "at zero distance = alpha" 0.5 (p 0.);
  Alcotest.(check bool) "decreasing" true (p 10. > p 50.);
  Alcotest.(check bool) "positive" true (p 1000. > 0.);
  Alcotest.check_raises "bad alpha" (Invalid_argument "Waxman: alpha must be in (0, 1]")
    (fun () -> ignore (Waxman.probability ~alpha:0. ~beta:0.2 ~max_distance:1. 0.));
  Alcotest.check_raises "bad beta" (Invalid_argument "Waxman: beta must be positive")
    (fun () -> ignore (Waxman.probability ~alpha:0.5 ~beta:0. ~max_distance:1. 0.))

let test_incremental_structure () =
  let rng = Rng.create ~seed:3 in
  let t = Waxman.generate_incremental rng ~n:30 ~m:2 ~alpha:0.15 ~beta:0.2 ~side:100. () in
  Alcotest.(check int) "nodes" 30 (Graph.node_count t.Waxman.graph);
  Alcotest.(check bool) "connected" true (Graph.is_connected t.Waxman.graph);
  (* node 1 connects with 1 link, all others with m=2 *)
  Alcotest.(check int) "edges" (1 + (28 * 2)) (Graph.edge_count t.Waxman.graph);
  Alcotest.(check int) "points" 30 (Array.length t.Waxman.points)

let test_incremental_weights_are_distances () =
  let rng = Rng.create ~seed:4 in
  let t = Waxman.generate_incremental rng ~n:15 ~m:1 ~alpha:0.5 ~beta:0.5 ~side:50. () in
  Graph.iter_edges t.Waxman.graph (fun u v w ->
      let d =
        max (Cap_topology.Point.distance t.Waxman.points.(u) t.Waxman.points.(v)) 1e-9
      in
      Alcotest.(check (float 1e-9)) "weight = distance" d w)

let test_incremental_offsets () =
  let rng = Rng.create ~seed:5 in
  let t =
    Waxman.generate_incremental rng ~n:10 ~m:1 ~alpha:0.3 ~beta:0.3 ~x0:500. ~y0:200.
      ~side:10. ()
  in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "in offset square" true
        (p.Cap_topology.Point.x >= 500. && p.Cap_topology.Point.x < 510.
        && p.Cap_topology.Point.y >= 200. && p.Cap_topology.Point.y < 210.))
    t.Waxman.points

let test_incremental_validation () =
  let rng = Rng.create ~seed:6 in
  Alcotest.check_raises "n too small"
    (Invalid_argument "Waxman.generate_incremental: n must be >= 1") (fun () ->
      ignore (Waxman.generate_incremental rng ~n:0 ~m:1 ~alpha:0.5 ~beta:0.5 ~side:1. ()));
  Alcotest.check_raises "m too small"
    (Invalid_argument "Waxman.generate_incremental: m must be >= 1") (fun () ->
      ignore (Waxman.generate_incremental rng ~n:5 ~m:0 ~alpha:0.5 ~beta:0.5 ~side:1. ()))

let test_singleton () =
  let rng = Rng.create ~seed:8 in
  let t = Waxman.generate_incremental rng ~n:1 ~m:2 ~alpha:0.5 ~beta:0.5 ~side:10. () in
  Alcotest.(check int) "one node" 1 (Graph.node_count t.Waxman.graph);
  Alcotest.(check int) "no edges" 0 (Graph.edge_count t.Waxman.graph)

let prop_incremental_connected =
  QCheck.Test.make ~name:"incremental always connected" ~count:40
    QCheck.(pair small_nat (int_range 1 3))
    (fun (seed, m) ->
      let rng = Rng.create ~seed in
      let t = Waxman.generate_incremental rng ~n:20 ~m ~alpha:0.2 ~beta:0.2 ~side:100. () in
      Graph.is_connected t.Waxman.graph)

let prop_determinism =
  QCheck.Test.make ~name:"same seed, same graph" ~count:20 QCheck.small_nat (fun seed ->
      let gen () =
        let rng = Rng.create ~seed in
        Waxman.generate_incremental rng ~n:12 ~m:2 ~alpha:0.2 ~beta:0.3 ~side:50. ()
      in
      let a = gen () and b = gen () in
      Graph.edges a.Waxman.graph = Graph.edges b.Waxman.graph)

let tests =
  [
    ( "topology/waxman",
      [
        case "probability" test_probability;
        case "incremental structure" test_incremental_structure;
        case "weights are distances" test_incremental_weights_are_distances;
        case "offset placement" test_incremental_offsets;
        case "validation" test_incremental_validation;
        case "singleton" test_singleton;
        QCheck_alcotest.to_alcotest prop_incremental_connected;
        QCheck_alcotest.to_alcotest prop_determinism;
      ] );
  ]
