module World = Cap_model.World
module Scenario = Cap_model.Scenario
module Pool = Cap_par.Pool

let delay_bound (world : World.t) = world.World.scenario.Scenario.delay_bound

(* All hot-path costs read the cached float32 node x server matrix
   through each client's node. A client's row of the dense client tier
   is a copy of its node's row ([World.dense]), so the observed RTT a
   cost sees is the same f32-rounded value everywhere: late detection
   (Grec), desirability ([refined]), tie-breaks ([relayed_delay]) and
   the matrix fills below agree bit for bit, and no solver needs the
   k x m copy. *)

let cs_read world ~client ~server =
  let c = World.cached world in
  Bigarray.Array1.get c.World.ns_rtt
    ((world.World.client_nodes.(client) * c.World.c_servers) + server)

let initial world ~zone_members ~server =
  let bound = delay_bound world in
  Array.fold_left
    (fun acc client ->
      if cs_read world ~client ~server > bound then acc + 1 else acc)
    0 zone_members

(* Row-parallel over zones; each row reads the zone's clients through
   the CSR index and each client's node row, so one entry is one
   contiguous scan instead of k pointer-chasing delay lookups. Every
   row is written by exactly one task — the fill is deterministic at
   any pool size. *)
let fill_initial_matrix world rows =
  let c = World.cached world in
  let servers = World.server_count world in
  let zones = World.zone_count world in
  if
    Array.length rows <> zones
    || Array.exists (fun row -> Array.length row <> servers) rows
  then invalid_arg "Cost.fill_initial_matrix: buffer does not match the world";
  let bound = delay_bound world in
  let ns = c.World.ns_rtt and nodes = world.World.client_nodes in
  Pool.parallel_for (Pool.default ()) ~n:zones (fun z ->
      let row = rows.(z) in
      Array.fill row 0 servers 0;
      for i = c.World.zone_off.(z) to c.World.zone_off.(z + 1) - 1 do
        let base = nodes.(c.World.zone_clients.(i)) * servers in
        for server = 0 to servers - 1 do
          if Bigarray.Array1.unsafe_get ns (base + server) > bound then
            row.(server) <- row.(server) + 1
        done
      done)

let initial_matrix world =
  let rows =
    Array.init (World.zone_count world) (fun _ ->
        Array.make (World.server_count world) 0)
  in
  fill_initial_matrix world rows;
  rows

(* GreZ's two tables in one scan: the C^I counts and, for the
   tie-break, the mean observed RTT per (zone, server). Each mean sums
   in ascending client id, as the CSR lists them, and empty zones tie
   at 0. Row-parallel and deterministic like [fill_initial_matrix]. *)
let zone_tables world =
  let c = World.cached world in
  let servers = World.server_count world in
  let zones = World.zone_count world in
  let bound = delay_bound world in
  let ns = c.World.ns_rtt and nodes = world.World.client_nodes in
  let costs = Array.make zones [||] and delays = Array.make zones [||] in
  Pool.parallel_for (Pool.default ()) ~n:zones (fun z ->
      let cost = Array.make servers 0 and delay = Array.make servers 0. in
      let lo = c.World.zone_off.(z) and hi = c.World.zone_off.(z + 1) in
      for i = lo to hi - 1 do
        let base = nodes.(c.World.zone_clients.(i)) * servers in
        for server = 0 to servers - 1 do
          let rtt = Bigarray.Array1.unsafe_get ns (base + server) in
          cost.(server) <- cost.(server) + Bool.to_int (rtt > bound);
          delay.(server) <- delay.(server) +. rtt
        done
      done;
      if hi > lo then begin
        let members = float_of_int (hi - lo) in
        for server = 0 to servers - 1 do
          delay.(server) <- delay.(server) /. members
        done
      end;
      costs.(z) <- cost;
      delays.(z) <- delay);
  (costs, delays)

let ss_read world s1 s2 =
  let c = World.cached world in
  Bigarray.Array1.get c.World.ss_rtt ((s1 * World.server_count world) + s2)

let relayed_delay world ~targets ~client ~contact =
  let target = targets.(world.World.client_zones.(client)) in
  cs_read world ~client ~server:contact +. ss_read world contact target

let refined world ~targets ~client ~contact =
  max 0. (relayed_delay world ~targets ~client ~contact -. delay_bound world)

(* Row-parallel over clients, on the cached flat matrices. *)
let refined_matrix world ~targets =
  let c = World.cached world in
  let servers = World.server_count world in
  let clients = World.client_count world in
  let bound = delay_bound world in
  let ns = c.World.ns_rtt and ss = c.World.ss_rtt in
  let rows = Array.make clients [||] in
  Pool.parallel_for (Pool.default ()) ~n:clients (fun client ->
      let base = world.World.client_nodes.(client) * servers in
      let target = targets.(world.World.client_zones.(client)) in
      rows.(client) <-
        Array.init servers (fun contact ->
            max 0.
              (Bigarray.Array1.unsafe_get ns (base + contact)
               +. Bigarray.Array1.unsafe_get ss ((contact * servers) + target)
               -. bound)));
  rows
