(* Client aggregation: structure, exactness against the unaggregated
   solver on small worlds, feasibility, and determinism. *)

module Rng = Cap_util.Rng
module World = Cap_model.World
module Scenario = Cap_model.Scenario
module Aggregate = Cap_model.Aggregate
module Assignment = Cap_model.Assignment
module Pool = Cap_par.Pool

let case name f = Alcotest.test_case name `Quick f

let at_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

(* Small instances of the paper's two structured scenario families:
   clustered physical/virtual distributions (Fig. 6 type 4) and full
   physical-virtual correlation (Fig. 5, delta = 1). *)
let scenario family =
  let base = Scenario.make ~servers:5 ~zones:12 ~clients:200 ~total_capacity_mbps:120. () in
  match family with
  | `Clustered ->
      let physical, virtual_world = Cap_experiments.Fig6.distribution_of_type 4 in
      { base with Scenario.physical; virtual_world }
  | `Correlated -> { base with Scenario.correlation = 1.0 }

let families = [ (`Clustered, "clustered"); (`Correlated, "correlated") ]
let seeds = [ 1; 2; 3 ]

let world family seed = World.generate (Rng.create ~seed) (scenario family)

(* identity aggregation: one group per occupied (zone, node) pair *)
let identity_agg w seed =
  Aggregate.build (Rng.create ~seed:(seed + 50)) ~buckets:(World.node_count w) w

let test_structure () =
  List.iter
    (fun (family, _) ->
      List.iter
        (fun seed ->
          let w = world family seed in
          let agg = identity_agg w seed in
          let k = World.client_count w in
          Alcotest.(check int) "weights sum to clients" k
            (Array.fold_left ( + ) 0 agg.Aggregate.group_weight);
          let seen = Array.make k false in
          for g = 0 to Aggregate.group_count agg - 1 do
            Array.iter
              (fun cl ->
                Alcotest.(check bool) "member listed once" false seen.(cl);
                seen.(cl) <- true;
                Alcotest.(check int) "members share the group zone"
                  agg.Aggregate.group_zone.(g)
                  w.World.client_zones.(cl))
              (Aggregate.members agg g)
          done;
          Alcotest.(check bool) "every client in a group" true
            (Array.for_all Fun.id seen);
          (* zone CSR covers the groups in zone-major order *)
          for z = 0 to World.zone_count w - 1 do
            for g = agg.Aggregate.zone_group_off.(z) to agg.Aggregate.zone_group_off.(z + 1) - 1 do
              Alcotest.(check int) "zone CSR consistent" z agg.Aggregate.group_zone.(g)
            done
          done)
        seeds)
    families

(* Under identity aggregation a group's RTT row must equal its
   members' dense rows bit for bit: the mean of n identical f32 values
   computed in double is exact. *)
let test_identity_rows_exact () =
  let w = world `Clustered 1 in
  let agg = identity_agg w 1 in
  let d = World.dense w in
  let m = World.server_count w in
  for g = 0 to Aggregate.group_count agg - 1 do
    Array.iter
      (fun cl ->
        for s = 0 to m - 1 do
          Alcotest.(check (float 0.)) "group row = member row"
            (Bigarray.Array1.get d.World.cs_rtt ((cl * m) + s))
            (Bigarray.Array1.get agg.Aggregate.gs_rtt ((g * m) + s))
        done)
      (Aggregate.members agg g)
  done

(* A bucketed group row, recomputed from the group's own members: count
   them by node, sum count * node row in double over ascending node
   id, divide by the group weight. The build gets there another way —
   per-zone node counts and the bucket's node list — so matching this
   bit for bit pins the counts, the double accumulation and the one
   float32 rounding. It cannot pin the order of the summands: each is
   a float32 times a small integer, and their double sum is exact. *)
let reference_row agg (ns : World.f32) g =
  let w = agg.Aggregate.world in
  let m = World.server_count w in
  let count = Array.make (World.node_count w) 0 in
  Array.iter
    (fun cl ->
      let node = w.World.client_nodes.(cl) in
      count.(node) <- count.(node) + 1)
    (Aggregate.members agg g);
  let acc = Array.make m 0. in
  Array.iteri
    (fun node n ->
      if n > 0 then
        for s = 0 to m - 1 do
          acc.(s) <- acc.(s) +. (float_of_int n *. Bigarray.Array1.get ns ((node * m) + s))
        done)
    count;
  Array.map (fun x -> x /. float_of_int agg.Aggregate.group_weight.(g)) acc

let test_bucketed_rows_pinned () =
  let f32_bits x = Int32.bits_of_float x in
  List.iter
    (fun (family, fname) ->
      (* observed rows differ from true ones, so both fills are pinned *)
      let w = World.with_vivaldi_observed (Rng.create ~seed:6) (world family 1) in
      let c = World.cached w in
      let m = World.server_count w in
      List.iter
        (fun buckets ->
          let agg = Aggregate.build (Rng.create ~seed:51) ~buckets w in
          let mixed = ref 0 in
          for g = 0 to Aggregate.group_count agg - 1 do
            let nodes = Array.map (fun cl -> w.World.client_nodes.(cl)) (Aggregate.members agg g) in
            if Array.exists (( <> ) nodes.(0)) nodes then incr mixed;
            List.iter
              (fun (what, ns, gs) ->
                let expected = reference_row agg ns g in
                for s = 0 to m - 1 do
                  if f32_bits expected.(s) <> f32_bits (Bigarray.Array1.get gs ((g * m) + s)) then
                    Alcotest.failf "%s buckets %d group %d server %d: %s row %h, reference %h"
                      fname buckets g s what
                      (Bigarray.Array1.get gs ((g * m) + s))
                      expected.(s)
                done)
              [
                ("observed", c.World.ns_rtt, agg.Aggregate.gs_rtt);
                ("true", c.World.ns_rtt_true, agg.Aggregate.gs_rtt_true);
              ]
          done;
          Alcotest.(check bool)
            (Printf.sprintf "%s buckets %d: some group spans several nodes" fname buckets)
            true (!mixed > 0))
        [ 4; 16 ])
    families

(* A boxed float per Bigarray read in the group-row fill costs about 15
   times the words the build allocates today. The ceiling is twice the
   1.31M minor words measured on this world. *)
let test_build_minor_words () =
  let w = World.generate (Rng.create ~seed:1) (Scenario.of_notation "100s-400z-20000c-20000cp") in
  ignore (World.cached w : World.cache);
  let before = Gc.minor_words () in
  let agg = Aggregate.build (Rng.create ~seed:1) w in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "bucketed" true (agg.Aggregate.buckets < World.node_count w);
  if words > 2.6e6 then Alcotest.failf "Aggregate.build allocated %.0f minor words" words

let test_exactness_vs_unaggregated () =
  List.iter
    (fun (family, fname) ->
      List.iter
        (fun seed ->
          let w = world family seed in
          let exact =
            Cap_core.Two_phase.run Cap_core.Two_phase.grez_grec (Rng.create ~seed:77) w
          in
          let aggregated =
            Cap_core.Agg_solve.solve (Rng.create ~seed:77)
              ~buckets:(World.node_count w) w
          in
          let label metric = Printf.sprintf "%s/%d %s" fname seed metric in
          Alcotest.(check (list string)) (label "no capacity violations") []
            (Assignment.violations aggregated w);
          (* identical costs up to tie-breaking noise in the mean-delay
             accumulation order *)
          Alcotest.(check (float 0.05)) (label "pQoS matches")
            (Assignment.pqos exact w) (Assignment.pqos aggregated w);
          Alcotest.(check (float 0.05)) (label "utilization matches")
            (Assignment.utilization exact w)
            (Assignment.utilization aggregated w))
        seeds)
    families

let test_bucketed_feasible () =
  List.iter
    (fun (family, fname) ->
      List.iter
        (fun seed ->
          let w = world family seed in
          let agg = Aggregate.build (Rng.create ~seed:(seed + 50)) ~buckets:8 w in
          Alcotest.(check bool) (fname ^ " buckets respected") true
            (Aggregate.group_count agg <= World.zone_count w * 8);
          let targets = Cap_core.Agg_solve.assign_zones agg in
          let contacts = Cap_core.Agg_solve.refine_contacts agg ~targets in
          let a = Assignment.make ~target_of_zone:targets ~contact_of_client:contacts in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%d bucketed: no violations" fname seed)
            [] (Assignment.violations a w))
        seeds)
    families

let test_deterministic_and_pool_independent () =
  let w = world `Clustered 2 in
  let solve () = Cap_core.Agg_solve.solve (Rng.create ~seed:9) ~buckets:8 w in
  let a = solve () in
  let b = solve () in
  Alcotest.(check bool) "same seed, same assignment" true (compare a b = 0);
  (* the aggregation caches live on the world: rebuild from scratch
     under each pool size so every parallel fill actually re-runs *)
  let fresh jobs =
    at_jobs jobs @@ fun () ->
    let w = world `Correlated 3 in
    Cap_core.Agg_solve.solve (Rng.create ~seed:11) ~buckets:8 w
  in
  let serial = fresh 1 in
  let parallel = fresh 4 in
  Alcotest.(check bool) "jobs 1 vs 4 identical" true (compare serial parallel = 0)

let test_fluid_sim_aggregated () =
  let w = world `Correlated 1 in
  let agg = identity_agg w 1 in
  let a = Cap_core.Agg_solve.solve (Rng.create ~seed:77) ~buckets:(World.node_count w) w in
  let exact = Cap_sim.Fluid_sim.run (Rng.create ~seed:4) w a in
  let grouped = Cap_sim.Fluid_sim.run_aggregated (Rng.create ~seed:4) agg a in
  (* same assignment, same rng: the queue trajectories are identical *)
  Array.iteri
    (fun s (r : Cap_sim.Fluid_sim.server_report) ->
      Alcotest.(check (float 1e-9)) "queueing delay identical"
        r.Cap_sim.Fluid_sim.mean_queueing_delay
        grouped.Cap_sim.Fluid_sim.per_server.(s).Cap_sim.Fluid_sim.mean_queueing_delay)
    exact.Cap_sim.Fluid_sim.per_server;
  (* group-mean pricing is f32-rounded, so counts may flip only at the
     bound boundary *)
  Alcotest.(check (float 0.05)) "nominal pQoS matches"
    exact.Cap_sim.Fluid_sim.nominal_pqos grouped.Cap_sim.Fluid_sim.nominal_pqos;
  Alcotest.(check (float 0.05)) "effective pQoS matches"
    exact.Cap_sim.Fluid_sim.effective_pqos grouped.Cap_sim.Fluid_sim.effective_pqos

let tests =
  [
    ( "model/aggregate",
      [
        case "group structure partitions the clients" test_structure;
        case "identity aggregation: group rows exact" test_identity_rows_exact;
        case "bucketed group rows match the reference bit for bit" test_bucketed_rows_pinned;
        case "build allocation ceiling" test_build_minor_words;
        case "exactness vs unaggregated GreZ-GreC" test_exactness_vs_unaggregated;
        case "bucketed mode stays feasible" test_bucketed_feasible;
        case "deterministic per seed, pool independent" test_deterministic_and_pool_independent;
        case "Fluid_sim.run_aggregated matches run" test_fluid_sim_aggregated;
      ] );
  ]
