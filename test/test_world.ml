module World = Cap_model.World
module Scenario = Cap_model.Scenario
module Traffic = Cap_model.Traffic
module Rng = Cap_util.Rng

let case name f = Alcotest.test_case name `Quick f

let small_world ?(seed = 1) () = Fixtures.generated ~seed ()

let test_counts () =
  let w = small_world () in
  Alcotest.(check int) "servers" 5 (World.server_count w);
  Alcotest.(check int) "zones" 12 (World.zone_count w);
  Alcotest.(check int) "clients" 120 (World.client_count w);
  Alcotest.(check int) "nodes" 500 (World.node_count w);
  Alcotest.(check int) "capacity entries" 5 (Array.length w.World.capacities)

let test_server_nodes_distinct () =
  let w = small_world () in
  let sorted = Array.to_list w.World.server_nodes |> List.sort_uniq compare in
  Alcotest.(check int) "distinct server nodes" 5 (List.length sorted);
  List.iter
    (fun n -> Alcotest.(check bool) "in node range" true (n >= 0 && n < 500))
    sorted

let test_capacities () =
  let w = small_world () in
  Alcotest.(check (float 1.)) "total capacity" (Traffic.of_mbps 80.) (World.total_capacity w);
  Array.iter
    (fun c ->
      Alcotest.(check bool) "at least minimum" true (c >= w.World.scenario.Scenario.min_server_capacity))
    w.World.capacities

let test_populations () =
  let w = small_world () in
  let pop = World.zone_population w in
  Alcotest.(check int) "population sums to clients" 120 (Array.fold_left ( + ) 0 pop);
  let members = Array.init (World.zone_count w) (Fixtures.zone_members w) in
  Array.iteri
    (fun z zone_members ->
      Alcotest.(check int) "members match population" pop.(z) (Array.length zone_members);
      Array.iter
        (fun c -> Alcotest.(check int) "member is in zone" z w.World.client_zones.(c))
        zone_members)
    members

let test_rates () =
  let w = small_world () in
  let pop = World.zone_population w in
  let c = 0 in
  let z = w.World.client_zones.(c) in
  Alcotest.(check (float 1e-6)) "client rate uses zone population"
    (Traffic.client_rate w.World.scenario.Scenario.traffic ~zone_population:pop.(z))
    (World.client_rate w c);
  Alcotest.(check (float 1e-6)) "forwarding = 2x" (2. *. World.client_rate w c)
    (World.forwarding_rate w c);
  let demand = Array.to_list pop |> List.mapi (fun z _ -> World.zone_rate w z) in
  Alcotest.(check (float 1e-3)) "total demand = sum of zones"
    (List.fold_left ( +. ) 0. demand)
    (World.total_demand w)

let test_delays () =
  let w = small_world () in
  Alcotest.(check (float 1e-9)) "same server zero" 0. (World.server_server_rtt w 2 2);
  let factor = w.World.scenario.Scenario.inter_server_factor in
  let raw =
    Cap_topology.Delay.rtt w.World.delay w.World.server_nodes.(0) w.World.server_nodes.(1)
  in
  Alcotest.(check (float 1e-9)) "inter-server discount" (factor *. raw)
    (World.server_server_rtt w 0 1);
  Alcotest.(check (float 1e-9)) "observed = true without error"
    (World.true_client_server_rtt w ~client:3 ~server:2)
    (Fixtures.observed_rtt w ~client:3 ~server:2)

let test_estimation_error () =
  let w = small_world () in
  let rng = Rng.create ~seed:5 in
  let w' = World.with_estimation_error rng ~factor:2. w in
  (* true delays unchanged *)
  Alcotest.(check (float 1e-9)) "true unchanged"
    (World.true_client_server_rtt w ~client:0 ~server:0)
    (World.true_client_server_rtt w' ~client:0 ~server:0);
  (* observed stays within the band *)
  let ok = ref true in
  for c = 0 to World.client_count w - 1 do
    for s = 0 to World.server_count w - 1 do
      let d = World.true_client_server_rtt w ~client:c ~server:s in
      let o = Fixtures.observed_rtt w' ~client:c ~server:s in
      if o < (d /. 2.) -. 1e-9 || o > (d *. 2.) +. 1e-9 then ok := false
    done
  done;
  Alcotest.(check bool) "observed within band" true !ok

let test_replace_clients () =
  let w = small_world () in
  let w' = World.replace_clients w ~client_nodes:[| 1; 2 |] ~client_zones:[| 0; 3 |] in
  Alcotest.(check int) "new count" 2 (World.client_count w');
  Alcotest.(check int) "original untouched" 120 (World.client_count w);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "World.replace_clients: length mismatch") (fun () ->
      ignore (World.replace_clients w ~client_nodes:[| 1 |] ~client_zones:[||]));
  Alcotest.check_raises "bad node" (Invalid_argument "World.replace_clients: bad node")
    (fun () ->
      ignore (World.replace_clients w ~client_nodes:[| 1000 |] ~client_zones:[| 0 |]));
  Alcotest.check_raises "bad zone" (Invalid_argument "World.replace_clients: bad zone")
    (fun () -> ignore (World.replace_clients w ~client_nodes:[| 0 |] ~client_zones:[| 50 |]))

let test_determinism () =
  let a = small_world ~seed:9 () and b = small_world ~seed:9 () in
  Alcotest.(check bool) "same servers" true (a.World.server_nodes = b.World.server_nodes);
  Alcotest.(check bool) "same clients" true
    (a.World.client_nodes = b.World.client_nodes && a.World.client_zones = b.World.client_zones);
  Alcotest.(check bool) "same capacities" true (a.World.capacities = b.World.capacities)

let test_backbone_world () =
  let scenario =
    {
      (Scenario.make ~servers:5 ~zones:10 ~clients:50 ~total_capacity_mbps:100. ()) with
      Scenario.topology = Scenario.Att_backbone { access_nodes = 40 };
    }
  in
  let w = World.generate (Rng.create ~seed:2) scenario in
  Alcotest.(check int) "nodes" (Cap_topology.Backbone.city_count + 40) (World.node_count w);
  Alcotest.(check bool) "regions are core cities" true
    (w.World.regions = Cap_topology.Backbone.city_count);
  Array.iter
    (fun r -> Alcotest.(check bool) "region in range" true (r >= 0 && r < w.World.regions))
    w.World.region_of_node

(* The cache is an Atomic slot on the (immutable) world record; every
   record-deriving operation must install a fresh one. These tests pin
   that contract for the two mutation paths outside World itself. *)

let test_cache_replace_clients () =
  let w = small_world () in
  (* Force the cache, then derive a world with every client in zone 0. *)
  let rate_before = World.client_rate w 0 in
  let clients = World.client_count w in
  let w' =
    World.replace_clients w ~client_nodes:w.World.client_nodes
      ~client_zones:(Array.make clients 0)
  in
  Alcotest.(check int) "derived world: all clients in zone 0" clients
    ((World.zone_population w').(0));
  Alcotest.(check int) "derived world: zone 1 emptied" 0 ((World.zone_population w').(1));
  Alcotest.(check (float 1e-6)) "derived world: rate uses new population"
    (Traffic.client_rate w.World.scenario.Scenario.traffic ~zone_population:clients)
    (World.client_rate w' 0);
  (* the original world's cache is untouched *)
  Alcotest.(check (float 1e-6)) "original world unchanged" rate_before (World.client_rate w 0)

(* float32 storage: one part in 2^24 of relative rounding, with
   generous headroom. An absolute term covers values near zero. *)
let f32_tolerance x = 1e-5 *. (1. +. Float.abs x)

let check_f32 msg expected got =
  if Float.abs (got -. expected) > f32_tolerance expected then
    Alcotest.failf "%s: expected %.9g within f32 tolerance, got %.9g" msg expected got

let test_cache_health_apply () =
  let w = small_world () in
  let before = Bigarray.Array1.get (World.dense w).World.cs_rtt 0 in
  let health = Cap_model.Health.create ~servers:(World.server_count w) in
  Cap_model.Health.degrade health 0 ~delay_penalty:50.;
  let w' = Cap_model.Health.apply health w in
  let after = Bigarray.Array1.get (World.dense w').World.cs_rtt 0 in
  check_f32 "degraded server penalty lands in the cache" (before +. 50.) after;
  check_f32 "cache matches the direct lookup"
    (Fixtures.observed_rtt w' ~client:0 ~server:0)
    after;
  Alcotest.(check (float 1e-9)) "original cache unchanged" before
    (Bigarray.Array1.get (World.dense w).World.cs_rtt 0)

let test_cache_invalidate_rebuilds () =
  let w = small_world () in
  let before = World.cached w in
  let before_dense = World.dense w in
  World.invalidate w;
  let after = World.cached w in
  let after_dense = World.dense w in
  Alcotest.(check bool) "rebuilt cache is a new value" false (before == after);
  Alcotest.(check bool) "zone data identical" true
    (before.World.zone_pop = after.World.zone_pop
    && before.World.zone_off = after.World.zone_off
    && before.World.zone_clients = after.World.zone_clients
    && before.World.zone_rate_of = after.World.zone_rate_of);
  (* Bigarrays compare structurally via their custom compare. *)
  Alcotest.(check bool) "f32 matrices identical" true
    (compare before.World.ss_rtt after.World.ss_rtt = 0
    && compare before.World.ss_rtt_true after.World.ss_rtt_true = 0
    && compare before.World.ns_rtt after.World.ns_rtt = 0
    && compare before.World.ns_rtt_true after.World.ns_rtt_true = 0
    && compare before_dense.World.cs_rtt after_dense.World.cs_rtt = 0
    && compare before_dense.World.cs_rtt_true after_dense.World.cs_rtt_true = 0)

(* Satellite: the f32 flat matrices must agree with the boxed
   double-precision lookups within float32 tolerance, on every kind of
   derived world, and every deriving operation must install a fresh
   (empty) cache slot. *)

let check_matrices_agree w =
  let c = World.cached w in
  let d = World.dense w in
  let m = World.server_count w in
  for cl = 0 to World.client_count w - 1 do
    for s = 0 to m - 1 do
      check_f32 "cs_rtt vs observed_rtt"
        (Fixtures.observed_rtt w ~client:cl ~server:s)
        (Bigarray.Array1.get d.World.cs_rtt ((cl * m) + s));
      check_f32 "cs_rtt_true vs true_rtt"
        (World.true_client_server_rtt w ~client:cl ~server:s)
        (Bigarray.Array1.get d.World.cs_rtt_true ((cl * m) + s))
    done
  done;
  for s1 = 0 to m - 1 do
    for s2 = 0 to m - 1 do
      check_f32 "ss_rtt vs observed_rtt" (World.server_server_rtt w s1 s2)
        (Bigarray.Array1.get c.World.ss_rtt ((s1 * m) + s2));
      check_f32 "ss_rtt_true vs true_rtt" (World.true_server_server_rtt w s1 s2)
        (Bigarray.Array1.get c.World.ss_rtt_true ((s1 * m) + s2))
    done
  done;
  for node = 0 to min 49 (World.node_count w - 1) do
    for s = 0 to m - 1 do
      check_f32 "ns_rtt vs observed_rtt" (World.node_server_rtt w ~node ~server:s)
        (Bigarray.Array1.get c.World.ns_rtt ((node * m) + s))
    done
  done

let check_fresh_slot msg w' =
  Alcotest.(check bool) msg true (Atomic.get w'.World.cache = None)

let test_f32_agreement_derived () =
  List.iter
    (fun seed ->
      let w = small_world ~seed () in
      check_matrices_agree w;
      let rng = Rng.create ~seed:(seed + 100) in
      let perturbed = World.with_estimation_error rng ~factor:2. w in
      check_fresh_slot "estimation error installs fresh slot" perturbed;
      check_matrices_agree perturbed;
      let vivaldi = World.with_vivaldi_observed (Rng.create ~seed:(seed + 200)) w in
      check_fresh_slot "vivaldi installs fresh slot" vivaldi;
      check_matrices_agree vivaldi;
      let health = Cap_model.Health.create ~servers:(World.server_count w) in
      Cap_model.Health.degrade health 1 ~delay_penalty:35.;
      Cap_model.Health.cut_link health 0 2;
      let damaged = Cap_model.Health.apply health w in
      check_fresh_slot "Health.apply installs fresh slot" damaged;
      check_matrices_agree damaged;
      let replaced =
        World.replace_clients w ~client_nodes:[| 0; 1; 2 |] ~client_zones:[| 0; 1; 2 |]
      in
      check_fresh_slot "replace_clients installs fresh slot" replaced;
      check_matrices_agree replaced)
    [ 1; 2; 3 ]

let test_cache_csr_ascending () =
  let w = small_world () in
  let members = Array.init (World.zone_count w) (Fixtures.zone_members w) in
  Array.iter
    (fun zone_members ->
      let sorted = Array.copy zone_members in
      Array.sort compare sorted;
      Alcotest.(check bool) "zone members ascend" true (zone_members = sorted))
    members

let prop_client_placement_valid =
  QCheck.Test.make ~name:"clients placed on valid nodes and zones" ~count:20 QCheck.small_nat
    (fun seed ->
      let w = small_world ~seed:(seed + 1) () in
      Array.for_all (fun n -> n >= 0 && n < 500) w.World.client_nodes
      && Array.for_all (fun z -> z >= 0 && z < 12) w.World.client_zones)

let tests =
  [
    ( "model/world",
      [
        case "counts" test_counts;
        case "server nodes distinct" test_server_nodes_distinct;
        case "capacities" test_capacities;
        case "populations" test_populations;
        case "rates" test_rates;
        case "delays" test_delays;
        case "estimation error" test_estimation_error;
        case "replace clients" test_replace_clients;
        case "determinism" test_determinism;
        case "backbone world" test_backbone_world;
        case "cache: replace_clients installs fresh" test_cache_replace_clients;
        case "cache: Health.apply installs fresh" test_cache_health_apply;
        case "cache: invalidate rebuilds identically" test_cache_invalidate_rebuilds;
        case "cache: CSR zone members ascend" test_cache_csr_ascending;
        case "cache: f32 matrices agree with boxed lookups on derived worlds"
          test_f32_agreement_derived;
        QCheck_alcotest.to_alcotest prop_client_placement_valid;
      ] );
  ]
