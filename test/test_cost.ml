module Cost = Cap_core.Cost
module World = Cap_model.World

let case name f = Alcotest.test_case name `Quick f
let feq = Alcotest.(check (float 1e-9))

(* Fixture recap: clients c0@n0/z0, c1@n2/z0, c2@n3/z1, c3@n3/z1;
   servers s0@n0, s1@n1; D = 150; delays n0-n1=100 n0-n2=40 n0-n3=300
   n1-n2=260 n1-n3=60; inter-server = 50. *)

let test_initial_matrix () =
  let w = Fixtures.standard () in
  (* z0 on s0: c0 -> 0, c1 -> 40, both within 150 => cost 0
     z0 on s1: c0 -> 100 ok, c1 -> 260 over => cost 1
     z1 on s0: both clients at 300 => cost 2
     z1 on s1: both at 60 => cost 0 *)
  Alcotest.(check (array (array int))) "C^I"
    [| [| 0; 1 |]; [| 2; 0 |] |]
    (Cost.initial_matrix w)

let test_initial_single_zone () =
  let w = Fixtures.standard () in
  let members = Fixtures.zone_members w 1 in
  Alcotest.(check int) "z1 on s0" 2 (Cost.initial w ~zone_members:members ~server:0);
  Alcotest.(check int) "z1 on s1" 0 (Cost.initial w ~zone_members:members ~server:1)

let test_initial_uses_observed_delays () =
  let w = Fixtures.standard () in
  (* pretend measurements doubled every delay: now z0 on s0 has c1 at
     80 (ok) and z1 on s1 has both clients at 120 (ok), but z0 on s1
     has c0 at 200 (over). *)
  let observed = Cap_topology.Delay.map_pairs w.World.delay ~f:(fun _ _ d -> 2. *. d) in
  let w = { w with World.observed } in
  Alcotest.(check (array (array int))) "C^I on doubled observations"
    [| [| 0; 2 |]; [| 2; 0 |] |]
    (Cost.initial_matrix w)

let test_fill_rejects_ragged () =
  let w = Fixtures.standard () in
  let invalid = Invalid_argument "Cost.fill_initial_matrix: buffer does not match the world" in
  (* the right number of rows, but a later one too short or too long:
     the shape check must look at every row, not only the first *)
  List.iter
    (fun rows ->
      Alcotest.check_raises "ragged buffer" invalid (fun () -> Cost.fill_initial_matrix w rows))
    [ [| Array.make 2 0; Array.make 1 0 |]; [| Array.make 2 0; Array.make 3 0 |]; [| Array.make 2 0 |] ];
  let rows = [| Array.make 2 7; Array.make 2 7 |] in
  Cost.fill_initial_matrix w rows;
  Alcotest.(check (array (array int))) "a well-shaped buffer is overwritten"
    (Cost.initial_matrix w) rows

let test_zone_tables () =
  let w = Fixtures.standard () in
  let costs, delays = Cost.zone_tables w in
  Alcotest.(check (array (array int))) "costs are C^I" (Cost.initial_matrix w) costs;
  (* z0 = {c0, c1}: (0 + 40) / 2 on s0, (100 + 260) / 2 on s1;
     z1 = {c2, c3}: 300 on s0, 60 on s1 *)
  Alcotest.(check (array (array (float 1e-9)))) "mean observed RTT"
    [| [| 20.; 180. |]; [| 300.; 60. |] |]
    delays

let test_relayed_delay () =
  let w = Fixtures.standard () in
  let targets = [| 0; 1 |] in
  (* c2 (zone z1 on s1) via contact s0: 300 + 50 *)
  feq "via contact" 350. (Cost.relayed_delay w ~targets ~client:2 ~contact:0);
  (* direct: contact = target *)
  feq "direct" 60. (Cost.relayed_delay w ~targets ~client:2 ~contact:1)

let test_refined () =
  let w = Fixtures.standard () in
  let targets = [| 1; 1 |] in
  (* c1's target is s1 (direct 260, over by 110); via s0: 40 + 50 = 90,
     within the bound -> cost 0. *)
  feq "over the bound" 110. (Cost.refined w ~targets ~client:1 ~contact:1);
  feq "relay rescues" 0. (Cost.refined w ~targets ~client:1 ~contact:0)

let test_refined_matrix () =
  let w = Fixtures.standard () in
  let targets = [| 1; 1 |] in
  let m = Cost.refined_matrix w ~targets in
  Alcotest.(check int) "rows = clients" 4 (Array.length m);
  Alcotest.(check int) "cols = servers" 2 (Array.length m.(0));
  feq "matches pointwise" (Cost.refined w ~targets ~client:1 ~contact:0) m.(1).(0);
  feq "matches pointwise 2" (Cost.refined w ~targets ~client:1 ~contact:1) m.(1).(1)

let prop_refined_nonnegative =
  QCheck.Test.make ~name:"refined cost non-negative" ~count:40
    QCheck.(triple small_nat (int_range 0 119) (int_range 0 4))
    (fun (seed, client, contact) ->
      let w = Fixtures.generated ~seed:(seed + 1) () in
      let targets = Array.init (World.zone_count w) (fun z -> z mod 5) in
      Cost.refined w ~targets ~client ~contact >= 0.)

let prop_initial_bounded_by_population =
  QCheck.Test.make ~name:"initial cost at most zone population" ~count:20 QCheck.small_nat
    (fun seed ->
      let w = Fixtures.generated ~seed:(seed + 1) () in
      let pop = World.zone_population w in
      let matrix = Cost.initial_matrix w in
      let ok = ref true in
      Array.iteri
        (fun z row ->
          Array.iter (fun c -> if c < 0 || c > pop.(z) then ok := false) row)
        matrix;
      !ok)

let prop_refined_zero_within_bound =
  QCheck.Test.make ~name:"refined is zero iff relayed delay within bound" ~count:40
    QCheck.(triple small_nat (int_range 0 119) (int_range 0 4))
    (fun (seed, client, contact) ->
      let w = Fixtures.generated ~seed:(seed + 1) () in
      let targets = Array.init (World.zone_count w) (fun z -> z mod 5) in
      let d = Cost.relayed_delay w ~targets ~client ~contact in
      let c = Cost.refined w ~targets ~client ~contact in
      let bound = w.World.scenario.Cap_model.Scenario.delay_bound in
      if d <= bound then c = 0. else abs_float (c -. (d -. bound)) < 1e-9)

let tests =
  [
    ( "core/cost",
      [
        case "initial matrix" test_initial_matrix;
        case "initial single zone" test_initial_single_zone;
        case "initial uses observed delays" test_initial_uses_observed_delays;
        case "fill_initial_matrix rejects ragged buffers" test_fill_rejects_ragged;
        case "zone tables" test_zone_tables;
        case "relayed delay" test_relayed_delay;
        case "refined" test_refined;
        case "refined matrix" test_refined_matrix;
        QCheck_alcotest.to_alcotest prop_refined_nonnegative;
        QCheck_alcotest.to_alcotest prop_initial_bounded_by_population;
        QCheck_alcotest.to_alcotest prop_refined_zero_within_bound;
      ] );
  ]
