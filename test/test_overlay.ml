module Overlay = Cap_topology.Overlay

let case name f = Alcotest.test_case name `Quick f

(* A 4-server mesh with asymmetric-looking but symmetric base RTTs.
   Deliberately violates the triangle inequality (0-3 direct is 10 but
   0-1-3 is 5) so the pristine short-circuit is observable: a pristine
   overlay must return the base matrix verbatim, not shortest paths. *)
let base =
  [|
    [| 0.; 2.; 6.; 10. |];
    [| 2.; 0.; 4.; 3. |];
    [| 6.; 4.; 0.; 5. |];
    [| 10.; 3.; 5.; 0. |];
  |]

let base_rtt i j = base.(i).(j)

let build ?alive ?(link = fun _ _ -> Overlay.Up) () =
  Overlay.build ~servers:4 ?alive ~base_rtt ~link ()

let test_pristine_identity () =
  let o = build () in
  Alcotest.(check bool) "pristine" true (Overlay.pristine o);
  Alcotest.(check int) "one component" 1 (Overlay.component_count o);
  for i = 0 to 3 do
    for j = 0 to 3 do
      Alcotest.(check (float 0.)) "base matrix verbatim" base.(i).(j)
        (Overlay.effective_rtt o i j)
    done
  done;
  Alcotest.(check bool) "triangle violation preserved" true
    (Overlay.effective_rtt o 0 3 > base.(0).(1) +. base.(1).(3))

let test_cut_reroutes () =
  let link i j =
    if (i, j) = (0, 1) || (i, j) = (1, 0) then Overlay.Cut else Overlay.Up
  in
  let o = build ~link () in
  Alcotest.(check bool) "not pristine" false (Overlay.pristine o);
  Alcotest.(check int) "still one component" 1 (Overlay.component_count o);
  Alcotest.(check bool) "still reachable" true (Overlay.reachable o 0 1);
  (* best surviving route 0-1: direct is gone; 0-2-1 = 10, 0-3-1 = 13,
     but once rerouting is on, 0-3 itself improves to 0-1... no: 0-1 is
     cut, so 0-3 best is min(direct 10, 0-2-3 = 11) = 10, and 0-1 best
     is min(0-2-1 = 10, 0-3-1 = 13) = 10 *)
  Alcotest.(check (float 1e-9)) "rerouted via s2" 10. (Overlay.effective_rtt o 0 1);
  Alcotest.(check (float 1e-9)) "untouched pair unchanged" 4.
    (Overlay.effective_rtt o 1 2)

let test_degraded_link () =
  let link i j =
    if i + j = 1 then Overlay.Degraded 100. else Overlay.Up (* 0-1 slow *)
  in
  let o = build ~link () in
  (* direct 0-1 now costs 102; the cheapest detour is 0-2-1 = 6+4 = 10 *)
  Alcotest.(check (float 1e-9)) "routes around the slow link" 10.
    (Overlay.effective_rtt o 0 1);
  Alcotest.check_raises "non-positive penalty rejected"
    (Invalid_argument "Overlay.build: degraded penalty must be positive and finite")
    (fun () -> ignore (build ~link:(fun _ _ -> Overlay.Degraded 0.) ()))

let test_partition () =
  (* cut every link between {0,1} and {2,3} *)
  let group s = if s <= 1 then 0 else 1 in
  let link i j = if group i <> group j then Overlay.Cut else Overlay.Up in
  let o = build ~link () in
  Alcotest.(check int) "two components" 2 (Overlay.component_count o);
  Alcotest.(check bool) "cross-partition unreachable" false (Overlay.reachable o 0 3);
  Alcotest.(check bool) "infinite across the cut" true
    (Overlay.effective_rtt o 1 2 = infinity);
  Alcotest.(check bool) "reaches itself" true (Overlay.reachable o 2 2);
  Alcotest.(check (float 1e-9)) "intra-component delay survives" 2.
    (Overlay.effective_rtt o 0 1);
  Alcotest.(check int) "component ids dense" 0 (Overlay.component_of o 0);
  Alcotest.(check int) "second component id" 1 (Overlay.component_of o 2);
  let groups = Overlay.components o in
  Alcotest.(check int) "two groups" 2 (Array.length groups);
  Alcotest.(check bool) "group members sorted" true
    (groups.(0) = [| 0; 1 |] && groups.(1) = [| 2; 3 |])

let test_dead_server_is_no_relay () =
  (* all links up, but s1 is dead: the cheap 0-1-3 path may not be used
     and s1 reaches nobody *)
  let o = build ~alive:(fun s -> s <> 1) () in
  Alcotest.(check bool) "not pristine with a death" false (Overlay.pristine o);
  Alcotest.(check bool) "dead endpoint unreachable" false (Overlay.reachable o 0 1);
  Alcotest.(check int) "dead server has no component" (-1) (Overlay.component_of o 1);
  Alcotest.(check int) "survivors stay whole" 1 (Overlay.component_count o);
  (* 0-3 cannot shortcut through the dead s1: best is direct 10
     (0-2-3 = 11) *)
  Alcotest.(check (float 1e-9)) "no relaying through the dead" 10.
    (Overlay.effective_rtt o 0 3)

let test_all_dead () =
  let o = build ~alive:(fun _ -> false) () in
  Alcotest.(check int) "zero components" 0 (Overlay.component_count o);
  Alcotest.(check bool) "nothing reachable" false (Overlay.reachable o 0 1);
  Alcotest.(check bool) "self-reachability survives death" true (Overlay.reachable o 0 0)

(* ------------------------------------------------------------------ *)
(* properties                                                          *)

(* random symmetric positive base matrices *)
let random_base rng n =
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = 1. +. Cap_util.Rng.float rng 499. in
      m.(i).(j) <- d;
      m.(j).(i) <- d
    done
  done;
  m

let test_restore_is_exact =
  QCheck.Test.make ~name:"cutting then restoring every link restores the base matrix"
    ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (seed, n_raw) ->
      let n = 2 + (n_raw mod 7) in
      let rng = Cap_util.Rng.create ~seed in
      let m = random_base rng n in
      let damaged =
        Overlay.build ~servers:n
          ~base_rtt:(fun i j -> m.(i).(j))
          ~link:(fun _ _ -> Overlay.Cut)
          ()
      in
      let healed =
        Overlay.build ~servers:n
          ~base_rtt:(fun i j -> m.(i).(j))
          ~link:(fun _ _ -> Overlay.Up)
          ()
      in
      let all_cut = Overlay.component_count damaged = n in
      let exact = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Overlay.effective_rtt healed i j <> m.(i).(j) && i <> j then exact := false
        done
      done;
      all_cut && !exact && Overlay.pristine healed)

let test_matches_floyd_warshall =
  QCheck.Test.make
    ~name:"damaged overlay delays = Floyd-Warshall over surviving links" ~count:20
    QCheck.small_nat
    (fun seed ->
      let n = 6 in
      let rng = Cap_util.Rng.create ~seed:(seed + 1) in
      let m = random_base rng n in
      (* cut each link with probability ~1/3, degrade with ~1/6 *)
      let state = Array.make_matrix n n Overlay.Up in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let r = Cap_util.Rng.int rng 6 in
          let s =
            if r < 2 then Overlay.Cut
            else if r = 2 then Overlay.Degraded (1. +. Cap_util.Rng.float rng 50.)
            else Overlay.Up
          in
          state.(i).(j) <- s;
          state.(j).(i) <- s
        done
      done;
      let o =
        Overlay.build ~servers:n
          ~base_rtt:(fun i j -> m.(i).(j))
          ~link:(fun i j -> state.(i).(j))
          ()
      in
      (* reference: Floyd-Warshall over the surviving weighted graph *)
      let b = Cap_topology.Graph.Builder.create n in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          match state.(i).(j) with
          | Overlay.Cut -> ()
          | Overlay.Up -> Cap_topology.Graph.Builder.add_edge b i j m.(i).(j)
          | Overlay.Degraded p ->
              Cap_topology.Graph.Builder.add_edge b i j (m.(i).(j) +. p)
        done
      done;
      let reference =
        Oracle.Shortest_paths.floyd_warshall (Cap_topology.Graph.Builder.finish b)
      in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let got = Overlay.effective_rtt o i j in
          let want = reference.(i).(j) in
          if
            not
              (got = want
              || (got < infinity && want < infinity && abs_float (got -. want) < 1e-6))
          then ok := false
        done
      done;
      !ok)

let tests =
  [
    ( "overlay",
      [
        case "pristine identity" test_pristine_identity;
        case "cut link reroutes" test_cut_reroutes;
        case "degraded link" test_degraded_link;
        case "partition" test_partition;
        case "dead server is no relay" test_dead_server_is_no_relay;
        case "all dead" test_all_dead;
        QCheck_alcotest.to_alcotest test_restore_is_exact;
        QCheck_alcotest.to_alcotest test_matches_floyd_warshall;
      ] );
  ]
