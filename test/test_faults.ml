module Rng = Cap_util.Rng
module World = Cap_model.World
module Health = Cap_model.Health
module Assignment = Cap_model.Assignment
module Fault = Cap_faults.Fault
module Sim = Cap_sim.Dve_sim
module Policy = Cap_sim.Policy
module Trace = Cap_sim.Trace

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Health mask                                                         *)

let test_health_basics () =
  let h = Health.create ~servers:5 in
  Alcotest.(check bool) "all alive" true (Health.all_alive h);
  Health.crash h 2;
  Health.degrade h 4 ~delay_penalty:80.;
  Alcotest.(check bool) "s2 dead" false (Health.is_alive h 2);
  Alcotest.(check int) "four alive" 4 (Health.alive_count h);
  Alcotest.(check (float 1e-9)) "s4 degraded" 80. h.Health.delay_penalty.(4);
  (* degrading a dead server is ignored, crashing clears the penalty *)
  Health.degrade h 2 ~delay_penalty:50.;
  Health.crash h 4;
  Health.recover h 4;
  Alcotest.(check (float 1e-9)) "penalty cleared" 0. h.Health.delay_penalty.(4);
  Health.recover h 2;
  Alcotest.(check bool) "recovered" true (Health.all_alive h);
  Alcotest.check_raises "negative penalty"
    (Invalid_argument "Health.degrade: negative delay penalty") (fun () ->
      Health.degrade h 0 ~delay_penalty:(-1.));
  Alcotest.check_raises "bad server" (Invalid_argument "Health: server out of range")
    (fun () -> Health.crash h 7)

let test_health_apply () =
  let w = Fixtures.standard () in
  let h = Health.create ~servers:2 in
  Health.crash h 1;
  let projected = Health.apply h w in
  Alcotest.(check (float 1e-9)) "dead capacity zeroed" 0. projected.World.capacities.(1);
  Alcotest.(check bool) "dead penalty infinite" true
    (projected.World.server_delay_penalty.(1) = infinity);
  Alcotest.(check (float 1e-9)) "survivor untouched" w.World.capacities.(0)
    projected.World.capacities.(0);
  (* a client on the dead server now has unbounded delay *)
  let a = Assignment.make ~target_of_zone:[| 0; 1 |] ~contact_of_client:[| 0; 0; 1; 1 |] in
  Alcotest.(check bool) "delay through dead server unbounded" true
    (Assignment.client_delay a projected 2 = infinity);
  (* degradation inflates delay without killing the server *)
  Health.recover h 1;
  Health.degrade h 1 ~delay_penalty:40.;
  let slowed = Health.apply h w in
  Alcotest.(check (float 1e-9)) "degraded keeps capacity" w.World.capacities.(1)
    slowed.World.capacities.(1);
  Alcotest.(check (float 1e-9)) "delay inflated by penalty"
    (Assignment.client_delay a w 2 +. 40.)
    (Assignment.client_delay a slowed 2)

let test_health_links () =
  let h = Health.create ~servers:4 in
  Alcotest.(check bool) "links pristine" true (Health.links_pristine h);
  Alcotest.(check int) "one component" 1 (Health.partition_count h);
  Health.cut_link h 0 2;
  Alcotest.(check bool) "cut both ways" true
    (Health.link_is_cut h 0 2 && Health.link_is_cut h 2 0);
  Alcotest.(check int) "one cut" 1 (Health.cut_link_count h);
  Alcotest.(check int) "still one component (reroute)" 1 (Health.partition_count h);
  (* degrading a cut link is ignored, like degrading a dead server —
     and stays ignored after the link is restored *)
  Health.degrade_link h 0 2 ~delay_penalty:70.;
  Alcotest.(check (float 1e-9)) "degrade on cut ignored" 0.
    (Health.link_delay_penalty h 0 2);
  Health.restore_link h 0 2;
  Alcotest.(check (float 1e-9)) "still no penalty after restore" 0.
    (Health.link_delay_penalty h 0 2);
  Alcotest.(check bool) "pristine again" true (Health.is_pristine h);
  (* a live degradation shows up and is symmetric *)
  Health.degrade_link h 1 3 ~delay_penalty:40.;
  Alcotest.(check (float 1e-9)) "penalty set" 40. (Health.link_delay_penalty h 3 1);
  Alcotest.(check bool) "not pristine" false (Health.links_pristine h);
  (* cutting clears the penalty *)
  Health.cut_link h 1 3;
  Health.restore_link h 1 3;
  Alcotest.(check (float 1e-9)) "cut clears penalty" 0. (Health.link_delay_penalty h 1 3);
  (* a mixed mask: server damage and link damage side by side *)
  Health.crash h 1;
  Health.cut_link h 0 2;
  Health.degrade_link h 2 3 ~delay_penalty:40.;
  Alcotest.(check bool) "mixed mask: s1 down" false (Health.is_alive h 1);
  Alcotest.(check bool) "mixed mask: 0-2 cut" true (Health.link_is_cut h 0 2);
  Alcotest.(check (float 1e-9)) "mixed mask: 2-3 degraded" 40.
    (Health.link_delay_penalty h 2 3);
  Alcotest.check_raises "equal endpoints"
    (Invalid_argument "Health: link endpoints must differ") (fun () ->
      Health.cut_link h 2 2);
  Alcotest.check_raises "negative link penalty"
    (Invalid_argument "Health.degrade_link: negative delay penalty") (fun () ->
      Health.degrade_link h 0 3 ~delay_penalty:(-5.))

let test_health_partition_count () =
  let h = Health.create ~servers:4 in
  (* isolate {0} from {1,2,3} *)
  Health.cut_link h 0 1;
  Health.cut_link h 0 2;
  Health.cut_link h 0 3;
  Alcotest.(check int) "two components" 2 (Health.partition_count h);
  (* killing the rest leaves only s0's singleton component *)
  Health.crash h 1;
  Health.crash h 2;
  Health.crash h 3;
  Alcotest.(check int) "one live component" 1 (Health.partition_count h);
  Health.crash h 0;
  Alcotest.(check int) "all dead" 0 (Health.partition_count h)

let test_health_apply_links () =
  let w = Fixtures.generated () in
  let h = Health.create ~servers:(World.server_count w) in
  (* pristine mask: apply is the identity on the mesh *)
  let same = Health.apply h w in
  Alcotest.(check bool) "pristine apply keeps no mesh" true
    (same.World.server_mesh = None);
  (* cut 0-1: the effective delay reroutes, never drops below direct *)
  Health.cut_link h 0 1;
  let cut = Health.apply h w in
  Alcotest.(check bool) "mesh baked" true (cut.World.server_mesh <> None);
  Alcotest.(check bool) "rerouted delay at least direct" true
    (World.server_server_rtt cut 0 1 >= World.server_server_rtt w 0 1);
  Alcotest.(check bool) "still reachable over the mesh" true
    (World.servers_reachable cut 0 1);
  (* a fully partitioned pair is infinite and unreachable *)
  for s = 1 to World.server_count w - 1 do
    Health.cut_link h 0 s
  done;
  let split = Health.apply h w in
  Alcotest.(check bool) "infinite across the partition" true
    (World.server_server_rtt split 0 1 = infinity);
  Alcotest.(check bool) "unreachable" false (World.servers_reachable split 0 1);
  Alcotest.(check bool) "self always reachable" true (World.servers_reachable split 0 0)

let prop_cut_restore_all_links_is_identity =
  QCheck.Test.make
    ~name:"cutting then restoring every link restores the pristine RTT matrix" ~count:10
    QCheck.small_nat (fun seed ->
      let w = Fixtures.generated ~seed:(seed + 1) () in
      let m = World.server_count w in
      let h = Health.create ~servers:m in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          Health.cut_link h i j
        done
      done;
      let damaged = Health.apply h w in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          Health.restore_link h i j
        done
      done;
      let healed = Health.apply h w in
      let split_ok = ref true and exact = ref true in
      for i = 0 to m - 1 do
        for j = 0 to m - 1 do
          if i <> j && World.server_server_rtt damaged i j <> infinity then
            split_ok := false;
          (* bitwise equality, not approximate: the overlay must
             short-circuit to the base matrix when pristine *)
          if World.server_server_rtt healed i j <> World.server_server_rtt w i j then
            exact := false;
          if
            World.true_server_server_rtt healed i j
            <> World.true_server_server_rtt w i j
          then exact := false
        done
      done;
      !split_ok && !exact && Health.is_pristine h)

(* ------------------------------------------------------------------ *)
(* Fault schedules                                                     *)

let test_schedule_validate () =
  let ok = [ { Fault.at = 5.; event = Fault.Crash 1 }; { Fault.at = 2.; event = Fault.Recover 0 } ] in
  (match Fault.validate ~servers:2 ok with
  | [ a; b ] ->
      Alcotest.(check (float 1e-9)) "sorted" 2. a.Fault.at;
      Alcotest.(check (float 1e-9)) "sorted 2" 5. b.Fault.at
  | _ -> Alcotest.fail "expected both events back");
  let bad schedule = try ignore (Fault.validate ~servers:2 schedule); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative time" true (bad [ { Fault.at = -1.; event = Fault.Crash 0 } ]);
  Alcotest.(check bool) "server out of range" true (bad [ { Fault.at = 0.; event = Fault.Crash 9 } ]);
  Alcotest.(check bool) "bad penalty" true
    (bad [ { Fault.at = 0.; event = Fault.Degrade { server = 0; delay_penalty = 0. } } ])

let test_poisson_generator () =
  let gen seed = Fault.poisson (Rng.create ~seed) ~servers:4 ~mtbf:50. ~mttr:20. ~duration:500. in
  let a = gen 3 and b = gen 3 and c = gen 4 in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check bool) "seed-sensitive" true (a <> c);
  Alcotest.(check bool) "produces faults" true (Fault.crash_count a > 0);
  (* per server, events alternate crash / recover in time order *)
  for s = 0 to 3 do
    let mine = List.filter (fun t -> Fault.servers_of t.Fault.event = [ s ]) a in
    ignore
      (List.fold_left
         (fun expect_crash t ->
           (match t.Fault.event with
           | Fault.Crash _ ->
               Alcotest.(check bool) "crash expected" true expect_crash
           | Fault.Recover _ ->
               Alcotest.(check bool) "recover expected" false expect_crash
           | Fault.Degrade _ | Fault.Link_cut _ | Fault.Link_restore _
           | Fault.Link_degrade _ ->
               Alcotest.fail "poisson only crashes and recovers");
           not expect_crash)
         true mine)
  done;
  List.iter
    (fun t ->
      Alcotest.(check bool) "within horizon" true (t.Fault.at >= 0. && t.Fault.at < 500.))
    a

let test_merge () =
  let a = [ { Fault.at = 10.; event = Fault.Crash 0 }; { Fault.at = 30.; event = Fault.Recover 0 } ] in
  let b = [ { Fault.at = 20.; event = Fault.Crash 1 } ] in
  let times = List.map (fun t -> t.Fault.at) (Fault.merge [ a; b ]) in
  Alcotest.(check (list (float 1e-9))) "time ordered" [ 10.; 20.; 30. ] times

let test_link_events_validate () =
  let bad schedule =
    try
      ignore (Fault.validate ~servers:4 schedule);
      false
    with Invalid_argument _ -> true
  in
  let ok =
    [
      { Fault.at = 5.; event = Fault.Link_cut { s1 = 0; s2 = 3 } };
      { Fault.at = 9.; event = Fault.Link_restore { s1 = 3; s2 = 0 } };
    ]
  in
  Alcotest.(check int) "link events pass" 2 (List.length (Fault.validate ~servers:4 ok));
  Alcotest.(check int) "cut count" 1 (Fault.link_cut_count ok);
  Alcotest.(check bool) "equal endpoints rejected" true
    (bad [ { Fault.at = 0.; event = Fault.Link_cut { s1 = 1; s2 = 1 } } ]);
  Alcotest.(check bool) "endpoint out of range" true
    (bad [ { Fault.at = 0.; event = Fault.Link_restore { s1 = 0; s2 = 9 } } ]);
  Alcotest.(check bool) "non-positive link penalty" true
    (bad
       [
         {
           Fault.at = 0.;
           event = Fault.Link_degrade { s1 = 0; s2 = 1; delay_penalty = 0. };
         };
       ]);
  Alcotest.(check (list int)) "servers_of link event" [ 0; 3 ]
    (Fault.servers_of (Fault.Link_cut { s1 = 0; s2 = 3 }))

let test_link_flapping_generator () =
  let gen seed =
    Fault.link_flapping (Rng.create ~seed) ~servers:4 ~mtbf:60. ~mttr:20. ~duration:400.
  in
  let a = gen 3 and b = gen 3 and c = gen 4 in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check bool) "seed-sensitive" true (a <> c);
  Alcotest.(check bool) "produces cuts" true (Fault.link_cut_count a > 0);
  (* per link, events alternate cut / restore in time order *)
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      let mine =
        List.filter
          (fun t -> List.sort compare (Fault.servers_of t.Fault.event) = [ i; j ])
          a
      in
      ignore
        (List.fold_left
           (fun expect_cut t ->
             (match t.Fault.event with
             | Fault.Link_cut _ ->
                 Alcotest.(check bool) "cut expected" true expect_cut
             | Fault.Link_restore _ ->
                 Alcotest.(check bool) "restore expected" false expect_cut
             | _ -> Alcotest.fail "flapping only cuts and restores");
             not expect_cut)
           true mine)
    done
  done;
  List.iter
    (fun t ->
      Alcotest.(check bool) "within horizon" true (t.Fault.at >= 0. && t.Fault.at < 400.))
    a;
  Alcotest.check_raises "one server has no links"
    (Invalid_argument "Fault.link_flapping: need at least two servers") (fun () ->
      ignore (Fault.link_flapping (Rng.create ~seed:1) ~servers:1 ~mtbf:1. ~mttr:1. ~duration:1.))

let test_partition_generator () =
  (* 5 servers, explicit groups {0,1} and {2}, implicit rest {3,4}:
     cross-group pairs = 2*1 + 2*2 + 1*2 = 8 cuts *)
  let schedule =
    Fault.partition ~servers:5 ~groups:[| [| 0; 1 |]; [| 2 |] |] ~at:50. ~heal_after:25. ()
  in
  Alcotest.(check int) "eight cuts" 8 (Fault.link_cut_count schedule);
  Alcotest.(check int) "and as many restores" 16 (List.length schedule);
  List.iter
    (fun t ->
      match t.Fault.event with
      | Fault.Link_cut _ -> Alcotest.(check (float 1e-9)) "cuts at AT" 50. t.Fault.at
      | Fault.Link_restore _ ->
          Alcotest.(check (float 1e-9)) "heals at AT+HEAL" 75. t.Fault.at
      | _ -> Alcotest.fail "partition only cuts and restores")
    schedule;
  (* intra-group links survive *)
  List.iter
    (fun t ->
      match Fault.servers_of t.Fault.event with
      | [ a; b ] ->
          let group s = if s <= 1 then 0 else if s = 2 then 1 else 2 in
          Alcotest.(check bool) "only cross-group links cut" true (group a <> group b)
      | _ -> Alcotest.fail "link events have two endpoints")
    schedule;
  (* applying the cuts to a health mask yields exactly three components *)
  let h = Health.create ~servers:5 in
  List.iter
    (fun t ->
      match t.Fault.event with
      | Fault.Link_cut { s1; s2 } -> Health.cut_link h s1 s2
      | _ -> ())
    schedule;
  Alcotest.(check int) "three components" 3 (Health.partition_count h);
  (* no heal_after: cuts only *)
  let cuts_only = Fault.partition ~servers:5 ~groups:[| [| 0 |] |] ~at:10. () in
  Alcotest.(check int) "cuts only" (List.length cuts_only) (Fault.link_cut_count cuts_only);
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "duplicate server rejected" true
    (bad (fun () -> Fault.partition ~servers:5 ~groups:[| [| 0; 0 |] |] ~at:1. ()));
  Alcotest.(check bool) "out-of-range rejected" true
    (bad (fun () -> Fault.partition ~servers:5 ~groups:[| [| 9 |] |] ~at:1. ()));
  Alcotest.(check bool) "non-positive heal rejected" true
    (bad (fun () ->
         Fault.partition ~servers:5 ~groups:[| [| 0 |] |] ~at:1. ~heal_after:0. ()))

(* ------------------------------------------------------------------ *)
(* failure-aware refresh                                               *)

let test_refresh_evacuates_dead_server () =
  let w = Fixtures.standard () in
  let previous =
    Assignment.make ~target_of_zone:[| 0; 1 |] ~contact_of_client:[| 0; 0; 1; 1 |]
  in
  let next, migration =
    Cap_core.Incremental.refresh ~max_zone_moves:0 ~alive:[| true; false |] w ~previous
  in
  Alcotest.(check int) "orphan moved to survivor" 0 next.Assignment.target_of_zone.(1);
  Alcotest.(check int) "one zone move" 1 migration.Cap_core.Incremental.zone_moves;
  Array.iter
    (fun contact -> Alcotest.(check int) "no contact on dead server" 0 contact)
    next.Assignment.contact_of_client;
  Alcotest.(check int) "nothing shed" 0 (Assignment.unassigned_zones next)

let test_refresh_sheds_when_capacity_insufficient () =
  (* each 2-client zone needs pop*(pop+1)*1000 = 6000 bps; the sole
     survivor can hold exactly one *)
  let w = Fixtures.standard ~capacities:[| 6000.; 1e9 |] () in
  let previous =
    Assignment.make ~target_of_zone:[| 0; 1 |] ~contact_of_client:[| 0; 0; 1; 1 |]
  in
  let next, _ =
    Cap_core.Incremental.refresh ~alive:[| true; false |] w ~previous
  in
  Alcotest.(check int) "survivor keeps its zone" 0 next.Assignment.target_of_zone.(0);
  Alcotest.(check int) "orphan shed explicitly" Assignment.unassigned
    next.Assignment.target_of_zone.(1);
  Alcotest.(check int) "shed zone's clients unassigned" Assignment.unassigned
    next.Assignment.contact_of_client.(2);
  Alcotest.(check int) "one zone shed" 1 (Assignment.unassigned_zones next);
  Alcotest.(check int) "two clients shed" 2 (Assignment.unassigned_clients next);
  Alcotest.(check (list string)) "loads stay valid" [] (Assignment.violations next w);
  (* capacity back: the shed zone is re-admitted *)
  let healed, _ = Cap_core.Incremental.refresh ~alive:[| true; true |] w ~previous:next in
  Alcotest.(check int) "re-admitted" 0 (Assignment.unassigned_zones healed)

let test_refresh_all_dead_sheds_everything () =
  let w = Fixtures.standard () in
  let previous =
    Assignment.make ~target_of_zone:[| 0; 1 |] ~contact_of_client:[| 0; 0; 1; 1 |]
  in
  let next, _ = Cap_core.Incremental.refresh ~alive:[| false; false |] w ~previous in
  Alcotest.(check int) "all zones shed" 2 (Assignment.unassigned_zones next);
  Alcotest.(check int) "all clients shed" 4 (Assignment.unassigned_clients next)

(* ------------------------------------------------------------------ *)
(* invariant checker                                                   *)

let contains ~needle haystack =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* One assignment per class of the merged checker. Each bad case names
   a fragment of the violation its own clause reports, so dropping any
   clause fails a case even where a later clause would also object. *)
let test_invariants_flag_bad_states () =
  let w = Fixtures.standard () in
  let u = Assignment.unassigned in
  let healthy = Health.create ~servers:2 in
  let crashed = Health.create ~servers:2 in
  Health.crash crashed 1;
  let blackout = Health.create ~servers:2 in
  Health.crash blackout 0;
  Health.crash blackout 1;
  let cut = Health.create ~servers:2 in
  Health.cut_link cut 0 1;
  (* 1 bit/s per server: any hosted zone overloads it *)
  let tight = Fixtures.standard ~capacities:[| 1.; 1. |] () in
  let cases =
    [
      ("healthy", healthy, w, true, [| 0; 1 |], [| 0; 0; 1; 1 |], None);
      ("fully shed", blackout, Health.apply blackout w, true, [| u; u |], [| u; u; u; u |], None);
      ("out-of-range target", healthy, w, true, [| 0; 2 |], [| 0; 0; 1; 1 |],
       Some "zone 1 assigned to invalid server 2");
      ("out-of-range contact", healthy, w, true, [| 0; 1 |], [| 0; 0; 1; 7 |],
       Some "client 3 assigned to invalid server 7");
      ("mask width", Health.create ~servers:3, w, true, [| 0; 1 |], [| 0; 0; 1; 1 |],
       Some "health mask covers 3 servers");
      ("dead target", crashed, Health.apply crashed w, true, [| 0; 1 |], [| 0; 0; 1; 1 |],
       Some "zone 1 targets dead server 1");
      ("dead contact", crashed, Health.apply crashed w, true, [| 0; 0 |], [| 0; 0; 0; 1 |],
       Some "client 3 contacts dead server 1");
      ("shed client of a hosted zone", healthy, w, true, [| 0; 1 |], [| 0; 0; 1; u |],
       Some "client 3 contact -1 inconsistent");
      ("contact in a shed zone", healthy, w, true, [| 0; u |], [| 0; 0; 1; u |],
       Some "client 2 contact 1 inconsistent");
      ("contact across a cut link", cut, Health.apply cut w, true, [| 0; 1 |], [| 0; 0; 0; 1 |],
       Some "client 2 contacts server 0, which cannot reach target 1 (partition)");
      ("overload, capacity on", healthy, tight, true, [| 0; 1 |], [| 0; 0; 1; 1 |],
       Some "exceeds capacity");
      ("overload, capacity off", healthy, tight, false, [| 0; 1 |], [| 0; 0; 1; 1 |], None);
    ]
  in
  List.iter
    (fun (name, health, world, capacity, target_of_zone, contact_of_client, expect) ->
      let a = Assignment.make ~target_of_zone ~contact_of_client in
      let found = Assignment.violations ~health ~capacity a world in
      match expect with
      | None -> Alcotest.(check (list string)) name [] found
      | Some needle ->
          if not (List.exists (contains ~needle) found) then
            Alcotest.failf "%s: expected a violation mentioning %S, got [%s]" name needle
              (String.concat "; " found))
    cases

(* ------------------------------------------------------------------ *)
(* end-to-end chaos runs                                               *)

let algorithm = Cap_core.Two_phase.grez_grec

let run_chaos ?(duration = 400.) ?(seed = 3) ?(policy = Policy.Periodic 50.) faults =
  let w = Fixtures.generated ~seed () in
  (* a stable population (no arrivals, effectively infinite sessions)
     isolates fault effects: pQoS can actually return to its pre-crash
     level instead of drifting with churn *)
  let config =
    {
      Sim.default_config with
      duration;
      policy;
      sample_interval = 10.;
      arrival_rate = 0.;
      mean_session = 1e7;
      faults;
      retry_interval = 5.;
    }
  in
  Sim.run (Rng.create ~seed) config ~world:w ~algorithm

let most_loaded_server ~seed =
  let w = Fixtures.generated ~seed () in
  let a = Cap_core.Two_phase.run algorithm (Rng.create ~seed) w in
  let loads = Assignment.server_loads a w in
  let best = ref 0 in
  Array.iteri (fun s l -> if l > loads.(!best) then best := s) loads;
  !best

let test_crash_then_recover_round_trips () =
  let victim = most_loaded_server ~seed:3 in
  let outcome =
    run_chaos
      [
        { Fault.at = 100.; event = Fault.Crash victim };
        { Fault.at = 200.; event = Fault.Recover victim };
      ]
  in
  let faults = outcome.Sim.faults in
  Alcotest.(check int) "one crash" 1 faults.Sim.crashes;
  Alcotest.(check int) "one recovery" 1 faults.Sim.recoveries;
  Alcotest.(check bool) "failovers ran" true (faults.Sim.failovers >= 2);
  Alcotest.(check (list string)) "no invariant violations" [] faults.Sim.invariant_violations;
  Alcotest.(check int) "one episode" 1 (List.length faults.Sim.episodes);
  let episode = List.hd faults.Sim.episodes in
  (match episode.Sim.recovered_at with
  | None -> Alcotest.fail "episode never recovered"
  | Some ended ->
      (* an immediate, fully-repairing failover recovers at the crash
         instant itself (MTTR 0) *)
      Alcotest.(check bool) "recovered at or after the crash" true
        (ended >= episode.Sim.started_at));
  (* recovery means pQoS back within tolerance of its pre-crash level *)
  (match Trace.final outcome.Sim.trace with
  | None -> Alcotest.fail "expected samples"
  | Some p ->
      Alcotest.(check int) "nobody left shed" 0 p.Trace.unassigned;
      Alcotest.(check int) "all servers back" 0 p.Trace.down_servers);
  Alcotest.(check bool) "pQoS dipped or moved during the outage" true
    (episode.Sim.min_pqos <= episode.Sim.pre_pqos)

let test_total_failure_degrades_without_raising () =
  (* kill every server; the run must complete with everyone explicitly
     unassigned, not raise *)
  let crash_all =
    List.init 5 (fun s -> { Fault.at = 50.; event = Fault.Crash s })
  in
  let outcome = run_chaos ~duration:100. crash_all in
  let faults = outcome.Sim.faults in
  Alcotest.(check (list string)) "invariants hold even with zero capacity" []
    faults.Sim.invariant_violations;
  Alcotest.(check bool) "clients were shed" true (faults.Sim.shed_peak > 0);
  Alcotest.(check bool) "final population fully shed" true
    (Assignment.unassigned_clients outcome.Sim.final_assignment
    = World.client_count outcome.Sim.final_world);
  match Trace.final outcome.Sim.trace with
  | None -> Alcotest.fail "expected samples"
  | Some p -> Alcotest.(check int) "all servers down in trace" 5 p.Trace.down_servers

let test_capacity_returns_and_clients_rehome () =
  let crash_all = List.init 5 (fun s -> { Fault.at = 50.; event = Fault.Crash s }) in
  let recover_all = List.init 5 (fun s -> { Fault.at = 80.; event = Fault.Recover s }) in
  let outcome = run_chaos ~duration:200. (Fault.merge [ crash_all; recover_all ]) in
  let faults = outcome.Sim.faults in
  Alcotest.(check (list string)) "no invariant violations" [] faults.Sim.invariant_violations;
  Alcotest.(check bool) "shed during blackout" true (faults.Sim.shed_peak > 0);
  Alcotest.(check int) "everyone re-homed" 0
    (Assignment.unassigned_clients outcome.Sim.final_assignment)

let test_seeded_chaos_invariants =
  QCheck.Test.make ~name:"invariants hold across seeded poisson chaos" ~count:3
    QCheck.small_nat (fun n ->
      let seed = n + 1 in
      let faults =
        Fault.poisson (Rng.create ~seed:(seed + 100)) ~servers:5 ~mtbf:120. ~mttr:40.
          ~duration:300.
      in
      let outcome = run_chaos ~duration:300. ~seed faults in
      outcome.Sim.faults.Sim.invariant_violations = [])

let test_degrade_dips_pqos () =
  (* a heavy penalty on every server must show up as a pQoS drop *)
  let outcome =
    run_chaos ~duration:100. ~policy:Policy.Never
      (List.init 5 (fun s ->
           { Fault.at = 50.; event = Fault.Degrade { server = s; delay_penalty = 500. } }))
  in
  Alcotest.(check int) "degradations counted" 5 outcome.Sim.faults.Sim.degradations;
  Alcotest.(check (list string)) "no invariant violations" []
    outcome.Sim.faults.Sim.invariant_violations;
  let before, after =
    List.partition (fun p -> p.Trace.time <= 50.) (Trace.points outcome.Sim.trace)
  in
  let mean ps = List.fold_left (fun acc p -> acc +. p.Trace.pqos) 0. ps /. float_of_int (List.length ps) in
  Alcotest.(check bool) "pQoS collapsed under +500ms everywhere" true
    (mean after < mean before -. 0.3)

let test_chaos_determinism () =
  let faults =
    Fault.poisson (Rng.create ~seed:9) ~servers:5 ~mtbf:100. ~mttr:30. ~duration:200.
  in
  let a = run_chaos ~duration:200. faults and b = run_chaos ~duration:200. faults in
  Alcotest.(check bool) "same trace" true
    (Trace.points a.Sim.trace = Trace.points b.Sim.trace);
  Alcotest.(check bool) "same fault report" true (a.Sim.faults = b.Sim.faults)

(* ------------------------------------------------------------------ *)
(* partition tolerance, end to end                                     *)

let test_partition_chaos_round_trips () =
  (* split {0,1} from {2,3,4} for 100 s: no assignment may ever cross
     the partition, the episode must be recorded, and healing must
     close it with the exact time-to-reconnect *)
  let faults =
    Fault.partition ~servers:5 ~groups:[| [| 0; 1 |] |] ~at:100. ~heal_after:100. ()
  in
  let outcome = run_chaos ~duration:400. faults in
  let report = outcome.Sim.faults in
  Alcotest.(check int) "six links cut" 6 report.Sim.link_cuts;
  Alcotest.(check int) "six links restored" 6 report.Sim.link_restores;
  Alcotest.(check (list string)) "no cross-partition assignment, ever" []
    report.Sim.invariant_violations;
  Alcotest.(check int) "one partition episode" 1 (List.length report.Sim.partitions);
  let episode = List.hd report.Sim.partitions in
  Alcotest.(check (float 1e-9)) "opened at the split" 100. episode.Sim.partitioned_at;
  (match episode.Sim.healed_at with
  | None -> Alcotest.fail "partition never healed"
  | Some healed -> Alcotest.(check (float 1e-9)) "healed at the restore" 200. healed);
  Alcotest.(check int) "two components at the peak" 2 episode.Sim.peak_components;
  (* the mesh is whole again at the end: components back to 1 *)
  (match Trace.final outcome.Sim.trace with
  | None -> Alcotest.fail "expected samples"
  | Some p -> Alcotest.(check int) "whole again" 1 p.Trace.components);
  (* the trace saw the split *)
  Alcotest.(check bool) "trace recorded the partition" true
    (List.exists (fun p -> p.Trace.components = 2) (Trace.points outcome.Sim.trace));
  let chaos = Cap_sim.Chaos.analyze outcome in
  Alcotest.(check int) "chaos episode count" 1 chaos.Cap_sim.Chaos.partition_episodes;
  Alcotest.(check int) "none unresolved" 0 chaos.Cap_sim.Chaos.unresolved_partitions;
  (match chaos.Cap_sim.Chaos.mean_reconnect with
  | None -> Alcotest.fail "reconnect time missing"
  | Some r -> Alcotest.(check (float 1e-9)) "time-to-reconnect exact" 100. r);
  Alcotest.(check bool) "pQoS during partition measured" true
    (chaos.Cap_sim.Chaos.pqos_during_partition <> None)

let test_link_degrade_dips_pqos () =
  (* degrade every backbone link heavily: relayed clients slow down *)
  let degrade =
    List.concat
      (List.init 5 (fun i ->
           List.filteri (fun j _ -> j > i) (List.init 5 Fun.id)
           |> List.map (fun j ->
                  {
                    Fault.at = 50.;
                    event = Fault.Link_degrade { s1 = i; s2 = j; delay_penalty = 400. };
                  })))
  in
  let outcome = run_chaos ~duration:100. ~policy:Policy.Never degrade in
  Alcotest.(check int) "degradations counted" 10 outcome.Sim.faults.Sim.link_degradations;
  Alcotest.(check (list string)) "no invariant violations" []
    outcome.Sim.faults.Sim.invariant_violations;
  Alcotest.(check int) "no partition from degradation" 0
    (List.length outcome.Sim.faults.Sim.partitions)

let test_link_chaos_determinism () =
  let faults =
    Fault.merge
      [
        Fault.link_flapping (Rng.create ~seed:9) ~servers:5 ~mtbf:80. ~mttr:30.
          ~duration:200.;
        Fault.poisson (Rng.create ~seed:10) ~servers:5 ~mtbf:150. ~mttr:40. ~duration:200.;
      ]
  in
  let a = run_chaos ~duration:200. faults and b = run_chaos ~duration:200. faults in
  Alcotest.(check bool) "same trace" true
    (Trace.points a.Sim.trace = Trace.points b.Sim.trace);
  Alcotest.(check bool) "same fault report" true (a.Sim.faults = b.Sim.faults)

let test_seeded_link_chaos_invariants =
  QCheck.Test.make ~name:"invariants hold across seeded link+server chaos" ~count:3
    QCheck.small_nat (fun n ->
      let seed = n + 1 in
      let faults =
        Fault.merge
          [
            Fault.link_flapping (Rng.create ~seed:(seed + 200)) ~servers:5 ~mtbf:100.
              ~mttr:40. ~duration:300.;
            Fault.poisson (Rng.create ~seed:(seed + 300)) ~servers:5 ~mtbf:150. ~mttr:40.
              ~duration:300.;
          ]
      in
      let outcome = run_chaos ~duration:300. ~seed faults in
      outcome.Sim.faults.Sim.invariant_violations = [])

let test_partition_checkpoint_resume () =
  (* SIGTERM-style interruption mid-partition: resuming from any
     checkpoint must reproduce the uninterrupted trace bitwise *)
  let w = Fixtures.generated ~seed:3 () in
  let faults =
    Fault.partition ~servers:5 ~groups:[| [| 0; 1 |] |] ~at:100. ~heal_after:120. ()
  in
  let config =
    {
      Sim.default_config with
      duration = 400.;
      policy = Policy.Periodic 50.;
      sample_interval = 10.;
      arrival_rate = 0.;
      mean_session = 1e7;
      faults;
      retry_interval = 5.;
    }
  in
  let baseline = Sim.run (Rng.create ~seed:3) config ~world:w ~algorithm in
  let captured = ref [] in
  let hook =
    {
      Sim.every = Some 60.;
      request = (fun () -> false);
      write = (fun ~reason:_ ck -> captured := ck :: !captured);
    }
  in
  let observed = Sim.run ~checkpoint:hook (Rng.create ~seed:3) config ~world:w ~algorithm in
  Alcotest.(check bool) "checkpointing does not perturb the run" true
    (Trace.points observed.Sim.trace = Trace.points baseline.Sim.trace);
  let mid_partition =
    List.filter
      (fun ck ->
        let t = Sim.checkpoint_time ck in
        t >= 100. && t < 220.)
      !captured
  in
  Alcotest.(check bool) "captured mid-partition checkpoints" true (mid_partition <> []);
  List.iter
    (fun ck ->
      let resumed = Sim.resume config ~world:w ~algorithm ck in
      Alcotest.(check bool) "resumed trace bitwise-identical" true
        (Trace.points resumed.Sim.trace = Trace.points baseline.Sim.trace);
      Alcotest.(check bool) "resumed fault report identical" true
        (resumed.Sim.faults = baseline.Sim.faults))
    !captured

let test_chaos_report () =
  let victim = most_loaded_server ~seed:3 in
  let outcome =
    run_chaos
      [
        { Fault.at = 100.; event = Fault.Crash victim };
        { Fault.at = 200.; event = Fault.Recover victim };
      ]
  in
  let report = Cap_sim.Chaos.analyze outcome in
  Alcotest.(check bool) "availability in range" true
    (report.Cap_sim.Chaos.availability >= 0. && report.Cap_sim.Chaos.availability <= 1.);
  Alcotest.(check bool) "mttr present" true (report.Cap_sim.Chaos.mttr <> None);
  Alcotest.(check bool) "failure-window pQoS present" true
    (report.Cap_sim.Chaos.pqos_during_failure <> None);
  Alcotest.(check int) "no unresolved episodes" 0 report.Cap_sim.Chaos.unresolved_episodes;
  Alcotest.(check bool) "table renders" true
    (Cap_util.Table.render (Cap_sim.Chaos.to_table outcome report) <> "")

let tests =
  [
    ( "faults/health",
      [
        case "health basics" test_health_basics;
        case "health apply" test_health_apply;
        case "link state" test_health_links;
        case "partition count" test_health_partition_count;
        case "apply with link damage" test_health_apply_links;
        QCheck_alcotest.to_alcotest prop_cut_restore_all_links_is_identity;
      ] );
    ( "faults/schedule",
      [
        case "validate" test_schedule_validate;
        case "poisson generator" test_poisson_generator;
        case "merge" test_merge;
        case "link events validate" test_link_events_validate;
        case "link flapping generator" test_link_flapping_generator;
        case "partition generator" test_partition_generator;
      ] );
    ( "faults/refresh",
      [
        case "evacuates dead server" test_refresh_evacuates_dead_server;
        case "sheds on insufficient capacity" test_refresh_sheds_when_capacity_insufficient;
        case "all dead sheds everything" test_refresh_all_dead_sheds_everything;
        case "invariant checker" test_invariants_flag_bad_states;
      ] );
    ( "faults/chaos",
      [
        case "crash then recover round-trips" test_crash_then_recover_round_trips;
        case "total failure degrades, never raises" test_total_failure_degrades_without_raising;
        case "capacity returns, clients re-home" test_capacity_returns_and_clients_rehome;
        case "degrade dips pQoS" test_degrade_dips_pqos;
        case "determinism" test_chaos_determinism;
        case "chaos report" test_chaos_report;
        QCheck_alcotest.to_alcotest test_seeded_chaos_invariants;
      ] );
    ( "faults/partition",
      [
        case "partition round-trips" test_partition_chaos_round_trips;
        case "link degradation" test_link_degrade_dips_pqos;
        case "link chaos determinism" test_link_chaos_determinism;
        case "checkpoint/resume mid-partition" test_partition_checkpoint_resume;
        QCheck_alcotest.to_alcotest test_seeded_link_chaos_invariants;
      ] );
  ]
