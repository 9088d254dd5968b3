module Overlay = Cap_topology.Overlay

type t = {
  alive : bool array;
  delay_penalty : float array;
  link_cut : bool array array;
  link_penalty : float array array;
}

let create ~servers =
  if servers <= 0 then invalid_arg "Health.create: servers must be positive";
  {
    alive = Array.make servers true;
    delay_penalty = Array.make servers 0.;
    link_cut = Array.make_matrix servers servers false;
    link_penalty = Array.make_matrix servers servers 0.;
  }

let server_count t = Array.length t.alive

let check t s =
  if s < 0 || s >= server_count t then invalid_arg "Health: server out of range"

let check_link t s1 s2 =
  check t s1;
  check t s2;
  if s1 = s2 then invalid_arg "Health: link endpoints must differ"

let is_alive t s =
  check t s;
  t.alive.(s)

let alive_count t =
  Array.fold_left (fun acc up -> if up then acc + 1 else acc) 0 t.alive

let all_alive t = alive_count t = server_count t

let links_pristine t =
  Array.for_all (fun row -> Array.for_all not row) t.link_cut
  && Array.for_all (fun row -> Array.for_all (fun p -> p = 0.) row) t.link_penalty

let is_pristine t =
  all_alive t
  && Array.for_all (fun penalty -> penalty = 0.) t.delay_penalty
  && links_pristine t

let alive_mask t = Array.copy t.alive

let crash t s =
  check t s;
  t.alive.(s) <- false;
  t.delay_penalty.(s) <- 0.

let recover t s =
  check t s;
  t.alive.(s) <- true;
  t.delay_penalty.(s) <- 0.

let degrade t s ~delay_penalty =
  check t s;
  if delay_penalty < 0. then invalid_arg "Health.degrade: negative delay penalty";
  if t.alive.(s) then t.delay_penalty.(s) <- delay_penalty

let cut_link t s1 s2 =
  check_link t s1 s2;
  t.link_cut.(s1).(s2) <- true;
  t.link_cut.(s2).(s1) <- true;
  t.link_penalty.(s1).(s2) <- 0.;
  t.link_penalty.(s2).(s1) <- 0.

let restore_link t s1 s2 =
  check_link t s1 s2;
  t.link_cut.(s1).(s2) <- false;
  t.link_cut.(s2).(s1) <- false;
  t.link_penalty.(s1).(s2) <- 0.;
  t.link_penalty.(s2).(s1) <- 0.

let degrade_link t s1 s2 ~delay_penalty =
  check_link t s1 s2;
  if delay_penalty < 0. then
    invalid_arg "Health.degrade_link: negative delay penalty";
  if not t.link_cut.(s1).(s2) then begin
    t.link_penalty.(s1).(s2) <- delay_penalty;
    t.link_penalty.(s2).(s1) <- delay_penalty
  end

let link_is_cut t s1 s2 =
  check_link t s1 s2;
  t.link_cut.(s1).(s2)

let link_delay_penalty t s1 s2 =
  check_link t s1 s2;
  t.link_penalty.(s1).(s2)

let cut_link_count t =
  let n = ref 0 in
  for s1 = 0 to server_count t - 1 do
    for s2 = s1 + 1 to server_count t - 1 do
      if t.link_cut.(s1).(s2) then incr n
    done
  done;
  !n

let link_state t s1 s2 =
  check_link t s1 s2;
  if t.link_cut.(s1).(s2) then Overlay.Cut
  else if t.link_penalty.(s1).(s2) > 0. then
    Overlay.Degraded t.link_penalty.(s1).(s2)
  else Overlay.Up

let overlay t ~base_rtt =
  Overlay.build ~servers:(server_count t)
    ~alive:(fun s -> t.alive.(s))
    ~base_rtt
    ~link:(fun s1 s2 -> link_state t s1 s2)
    ()

let partition_count t =
  if all_alive t && links_pristine t then 1
  else Overlay.component_count (overlay t ~base_rtt:(fun _ _ -> 1.))

let apply t world =
  if server_count t <> World.server_count world then
    invalid_arg "Health.apply: mask does not match the world's servers";
  let capacities =
    Array.mapi
      (fun s capacity -> if t.alive.(s) then capacity else 0.)
      world.World.capacities
  in
  let server_delay_penalty =
    Array.init (server_count t) (fun s ->
        if t.alive.(s) then t.delay_penalty.(s) else infinity)
  in
  let server_mesh =
    (* Only link damage needs overlay rerouting; pure server faults
       keep the historical direct-RTT behaviour (dead servers are
       already unreachable through their infinite penalty). *)
    if links_pristine t then None
    else
      let bake model =
        let ov =
          overlay t ~base_rtt:(fun s1 s2 ->
              World.server_rtt_base model world s1 s2)
        in
        Array.init (server_count t) (fun s1 ->
            Array.init (server_count t) (fun s2 ->
                Overlay.effective_rtt ov s1 s2))
      in
      let true_rtt = bake world.World.delay in
      let observed_rtt =
        (* Common case: no estimation error — share the matrix. *)
        if world.World.observed == world.World.delay then true_rtt
        else bake world.World.observed
      in
      Some { World.true_rtt; observed_rtt }
  in
  {
    world with
    World.capacities;
    server_delay_penalty;
    server_mesh;
    (* capacities/penalties/mesh all feed the cached RTT matrices *)
    cache = World.fresh_cache ();
  }
