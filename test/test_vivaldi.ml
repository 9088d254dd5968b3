module Vivaldi = Cap_topology.Vivaldi
module Delay = Cap_topology.Delay
module Rng = Cap_util.Rng

let case name f = Alcotest.test_case name `Quick f

(* An exactly-embeddable delay space: points on a line. *)
let line_delays n spacing =
  let matrix =
    Array.init n (fun u ->
        Array.init n (fun v -> float_of_int (abs (u - v)) *. spacing))
  in
  Delay.of_matrix matrix

let test_validation () =
  let d = line_delays 4 10. in
  let bad params =
    try
      ignore (Vivaldi.embed (Rng.create ~seed:1) ~params d);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "dimensions" true
    (bad { Vivaldi.default_params with Vivaldi.dimensions = 0 });
  Alcotest.(check bool) "rounds" true (bad { Vivaldi.default_params with Vivaldi.rounds = 0 });
  Alcotest.(check bool) "neighbors" true
    (bad { Vivaldi.default_params with Vivaldi.neighbors = 0 });
  Alcotest.(check bool) "gains" true (bad { Vivaldi.default_params with Vivaldi.ce = 0. });
  let tiny = Delay.of_matrix [| [| 0. |] |] in
  Alcotest.(check bool) "too few nodes" true
    (try
       ignore (Vivaldi.embed (Rng.create ~seed:1) tiny);
       false
     with Invalid_argument _ -> true)

let test_embeddable_space_converges () =
  let d = line_delays 12 50. in
  let t =
    Vivaldi.embed (Rng.create ~seed:2)
      ~params:{ Vivaldi.default_params with Vivaldi.rounds = 200; neighbors = 11 }
      d
  in
  let estimated = Vivaldi.estimated_delay t in
  let error = Vivaldi.median_relative_error ~estimated ~reference:d in
  Alcotest.(check bool)
    (Printf.sprintf "median error %.3f below 15%%" error)
    true (error < 0.15)

let test_estimated_delay_shape () =
  let d = line_delays 6 30. in
  let estimated = Vivaldi.estimate (Rng.create ~seed:3) d in
  Alcotest.(check int) "same node count" 6 (Delay.node_count estimated);
  for u = 0 to 5 do
    Alcotest.(check (float 1e-9)) "zero diagonal" 0. (Delay.rtt estimated u u);
    for v = u + 1 to 5 do
      Alcotest.(check (float 1e-9)) "symmetric" (Delay.rtt estimated u v)
        (Delay.rtt estimated v u);
      Alcotest.(check bool) "non-negative" true (Delay.rtt estimated u v >= 0.)
    done
  done

let test_errors_shrink () =
  let d = line_delays 10 40. in
  let t =
    Vivaldi.embed (Rng.create ~seed:4)
      ~params:{ Vivaldi.default_params with Vivaldi.rounds = 150; neighbors = 9 }
      d
  in
  let mean_error = Cap_util.Stats.mean t.Vivaldi.errors in
  Alcotest.(check bool) "confidence below the initial 1.0" true (mean_error < 0.5)

let test_on_real_topology () =
  (* On a real (triangle-inequality-respecting) topology the embedding
     should land well under the IDMaps-level factor-2 error. *)
  let w = Fixtures.generated () in
  let estimated = Vivaldi.estimate (Rng.create ~seed:5) w.Cap_model.World.delay in
  let error =
    Vivaldi.median_relative_error ~estimated ~reference:w.Cap_model.World.delay
  in
  Alcotest.(check bool)
    (Printf.sprintf "median relative error %.3f < 0.5" error)
    true (error < 0.5)

let test_median_relative_error_checks () =
  let a = line_delays 3 10. and b = line_delays 4 10. in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Vivaldi.median_relative_error: size mismatch") (fun () ->
      ignore (Vivaldi.median_relative_error ~estimated:a ~reference:b));
  Alcotest.(check (float 1e-9)) "identical spaces" 0.
    (Vivaldi.median_relative_error ~estimated:a ~reference:a)

let test_world_integration () =
  let w = Fixtures.generated () in
  let w' = Cap_model.World.with_vivaldi_observed (Rng.create ~seed:6) w in
  (* true delays unchanged, observed replaced *)
  Alcotest.(check (float 1e-9)) "true unchanged"
    (Cap_model.World.true_client_server_rtt w ~client:0 ~server:0)
    (Cap_model.World.true_client_server_rtt w' ~client:0 ~server:0);
  let differs = ref false in
  for c = 0 to 20 do
    if
      Cap_model.World.client_server_rtt w' ~client:c ~server:0
      <> Cap_model.World.client_server_rtt w ~client:c ~server:0
    then differs := true
  done;
  Alcotest.(check bool) "observed actually estimated" true !differs

let prop_deterministic =
  QCheck.Test.make ~name:"same seed, same embedding" ~count:5 QCheck.small_nat (fun seed ->
      let d = line_delays 8 25. in
      let run () = Vivaldi.estimate (Rng.create ~seed) d in
      let a = run () and b = run () in
      let ok = ref true in
      for u = 0 to 7 do
        for v = 0 to 7 do
          if Delay.rtt a u v <> Delay.rtt b u v then ok := false
        done
      done;
      !ok)

(* Every pair of nodes 1e-20 ms apart: the nodes are duplicates of
   one location, the embedding collapses them onto one point, and the
   coincident-coordinate branch draws random directions. *)
let colocated_delays n =
  Delay.of_matrix (Array.init n (fun u -> Array.init n (fun v -> if u = v then 0. else 1e-20)))

(* A random symmetric delay space, triangle inequality not enforced. *)
let random_delays rng n =
  let m = Array.make_matrix n n 0. in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Rng.float_in rng 1. 300. in
      m.(u).(v) <- d;
      m.(v).(u) <- d
    done
  done;
  Delay.of_matrix m

let bits = Int64.bits_of_float

let same_bits (a : Vivaldi.t) (b : Vivaldi.t) =
  Array.for_all2 (Array.for_all2 (fun x y -> bits x = bits y)) a.Vivaldi.coordinates
    b.Vivaldi.coordinates
  && Array.for_all2 (fun x y -> bits x = bits y) a.Vivaldi.errors b.Vivaldi.errors

(* The allocation-free embedding against the closure-based one kept in
   oracle.ml: the same float operations in the same order and the same
   rng draws, so coordinates and errors agree bit for bit, and so does
   what is left of the rng stream. *)
let prop_matches_oracle =
  QCheck.Test.make ~name:"embed bit-identical to the oracle" ~count:60
    QCheck.(triple small_nat (int_range 2 3) (int_range 0 2))
    (fun (seed, dimensions, family) ->
      let delay =
        match family with
        | 0 -> line_delays 12 25.
        | 1 -> colocated_delays 8
        | _ -> random_delays (Rng.create ~seed:(seed + 1000)) 24
      in
      let params = { Vivaldi.default_params with Vivaldi.dimensions } in
      let rng_a = Rng.create ~seed and rng_b = Rng.create ~seed in
      let a = Vivaldi.embed rng_a ~params delay in
      let b = Oracle.Vivaldi.embed rng_b ~params delay in
      same_bits a b && Rng.state rng_a = Rng.state rng_b)

let tests =
  [
    ( "topology/vivaldi",
      [
        case "validation" test_validation;
        case "embeddable space converges" test_embeddable_space_converges;
        case "estimated delay shape" test_estimated_delay_shape;
        case "confidence errors shrink" test_errors_shrink;
        case "accuracy on a real topology" test_on_real_topology;
        case "median error checks" test_median_relative_error_checks;
        case "world integration" test_world_integration;
        QCheck_alcotest.to_alcotest prop_deterministic;
        QCheck_alcotest.to_alcotest prop_matches_oracle;
      ] );
  ]
