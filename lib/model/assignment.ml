type t = {
  target_of_zone : int array;
  contact_of_client : int array;
}

let unassigned = -1

let make ~target_of_zone ~contact_of_client =
  { target_of_zone = Array.copy target_of_zone; contact_of_client = Array.copy contact_of_client }

let with_virc_contacts world ~target_of_zone =
  let contact_of_client =
    Array.map (fun z -> target_of_zone.(z)) world.World.client_zones
  in
  { target_of_zone = Array.copy target_of_zone; contact_of_client }

let target_of_client t world c = t.target_of_zone.(world.World.client_zones.(c))

let client_delay t world c =
  let contact = t.contact_of_client.(c) in
  let target = target_of_client t world c in
  if contact = unassigned || target = unassigned then infinity
  else
    World.true_client_server_rtt world ~client:c ~server:contact
    +. World.true_server_server_rtt world contact target

let has_qos t world c =
  client_delay t world c <= world.World.scenario.Scenario.delay_bound

let pqos t world =
  let k = World.client_count world in
  if k = 0 then 1.
  else begin
    let with_qos = ref 0 in
    for c = 0 to k - 1 do
      if has_qos t world c then incr with_qos
    done;
    float_of_int !with_qos /. float_of_int k
  end

let delay_samples t world =
  Array.init (World.client_count world) (client_delay t world)

let server_loads t world =
  let loads = Array.make (World.server_count world) 0. in
  let population = World.zone_population world in
  let traffic = world.World.scenario.Scenario.traffic in
  Array.iteri
    (fun z target ->
      if target <> unassigned then
        loads.(target) <- loads.(target) +. Traffic.zone_rate traffic ~population:population.(z))
    t.target_of_zone;
  Array.iteri
    (fun c contact ->
      let target = target_of_client t world c in
      if contact <> unassigned && target <> unassigned && contact <> target then begin
        let rate =
          Traffic.forwarding_rate traffic
            ~zone_population:population.(world.World.client_zones.(c))
        in
        loads.(contact) <- loads.(contact) +. rate
      end)
    t.contact_of_client;
  loads

let utilization t world =
  let capacity = World.total_capacity world in
  if capacity = 0. then 0.
  else Array.fold_left ( +. ) 0. (server_loads t world) /. capacity

let capacity_epsilon = 1e-6

let over_capacity load capacity = load > capacity *. (1. +. capacity_epsilon)

let violations ?health ?(capacity = true) t world =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let m = World.server_count world in
  let zones = World.zone_count world in
  let clients = World.client_count world in
  if Array.length t.target_of_zone <> zones then
    add "target_of_zone has %d entries for %d zones" (Array.length t.target_of_zone) zones;
  if Array.length t.contact_of_client <> clients then
    add "contact_of_client has %d entries for %d clients"
      (Array.length t.contact_of_client)
      clients;
  (match health with
  | Some h when Health.server_count h <> m ->
      add "health mask covers %d servers, world has %d" (Health.server_count h) m
  | Some _ | None -> ());
  let dead s = match health with Some h -> not (Health.is_alive h s) | None -> false in
  if !problems = [] then begin
    Array.iteri
      (fun z s ->
        if s <> unassigned then
          if s < 0 || s >= m then add "zone %d assigned to invalid server %d" z s
          else if dead s then add "zone %d targets dead server %d" z s)
      t.target_of_zone;
    Array.iteri
      (fun c s ->
        if s <> unassigned then
          if s < 0 || s >= m then add "client %d assigned to invalid server %d" c s
          else if dead s then add "client %d contacts dead server %d" c s)
      t.contact_of_client
  end;
  if !problems = [] then
    (* The unassigned sentinel is only legal on a client whose zone is
       itself unassigned (and vice versa). Under a health mask, [world]
       is the health-applied world, so a contact that cannot reach its
       zone's target sits across a backbone partition. *)
    Array.iteri
      (fun c contact ->
        let target = t.target_of_zone.(world.World.client_zones.(c)) in
        if (contact = unassigned) <> (target = unassigned) then
          add "client %d contact %d inconsistent with its zone's target %d" c contact target
        else if
          Option.is_some health && contact <> unassigned
          && not (World.servers_reachable world contact target)
        then
          add "client %d contacts server %d, which cannot reach target %d (partition)" c
            contact target)
      t.contact_of_client;
  if !problems = [] && capacity then
    Array.iteri
      (fun s load ->
        if over_capacity load world.World.capacities.(s) then
          add "server %d load %.0f exceeds capacity %.0f" s load world.World.capacities.(s))
      (server_loads t world);
  List.rev !problems

let is_valid t world = violations t world = []

let unassigned_zones t =
  Array.fold_left (fun acc s -> if s = unassigned then acc + 1 else acc) 0 t.target_of_zone

let unassigned_clients t =
  Array.fold_left
    (fun acc s -> if s = unassigned then acc + 1 else acc)
    0 t.contact_of_client

let overloaded_servers t world =
  let loads = server_loads t world in
  let over = ref [] in
  for s = Array.length loads - 1 downto 0 do
    if over_capacity loads.(s) world.World.capacities.(s) then over := s :: !over
  done;
  !over
