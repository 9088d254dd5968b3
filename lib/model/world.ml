module Rng = Cap_util.Rng
module Delay = Cap_topology.Delay
module Hierarchical = Cap_topology.Hierarchical
module Backbone = Cap_topology.Backbone
module Point = Cap_topology.Point

type mesh = {
  true_rtt : float array array;
  observed_rtt : float array array;
}

type f32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type dense = {
  cs_rtt : f32;
  cs_rtt_true : f32;
}

type cache = {
  c_servers : int;
  zone_pop : int array;
  zone_rate_of : float array;
  zone_client_rate : float array;
  zone_off : int array;
  zone_clients : int array;
  ns_rtt : f32;
  ns_rtt_true : f32;
  ss_rtt : f32;
  ss_rtt_true : f32;
  dense : dense option Atomic.t;
}

type t = {
  scenario : Scenario.t;
  delay : Delay.t;
  observed : Delay.t;
  region_of_node : int array;
  regions : int;
  server_nodes : int array;
  capacities : float array;
  server_delay_penalty : float array;
  server_mesh : mesh option;
  client_nodes : int array;
  client_zones : int array;
  sampler : Distribution.t;
  cache : cache option Atomic.t;
}

let fresh_cache () = Atomic.make None

let server_count t = Array.length t.server_nodes
let zone_count t = t.scenario.Scenario.zones
let client_count t = Array.length t.client_nodes
let node_count t = Delay.node_count t.delay

let build_topology rng (scenario : Scenario.t) =
  match scenario.Scenario.topology with
  | Scenario.Brite params ->
      let topo = Hierarchical.generate rng params in
      let graph = topo.Hierarchical.graph in
      graph, Array.copy topo.Hierarchical.as_of, topo.Hierarchical.n_as
  | Scenario.Att_backbone { access_nodes } ->
      let topo = Backbone.generate rng ~access_nodes in
      let graph = topo.Backbone.graph in
      let core = topo.Backbone.core_count in
      let points = topo.Backbone.points in
      (* Region = nearest core city, so physically close access nodes
         share a region. *)
      let region_of p =
        let best = ref 0 and best_d = ref infinity in
        for c = 0 to core - 1 do
          let d = Point.distance p points.(c) in
          if d < !best_d then begin
            best := c;
            best_d := d
          end
        done;
        !best
      in
      let regions = Array.init (Array.length points) (fun i -> region_of points.(i)) in
      graph, regions, core
  | Scenario.Transit_stub params ->
      let topo = Cap_topology.Transit_stub.generate rng params in
      (* Region = transit/stub domain, so stub neighbourhoods share a
         region. *)
      let domains =
        1 + Array.fold_left max 0 topo.Cap_topology.Transit_stub.domain_of
      in
      ( topo.Cap_topology.Transit_stub.graph,
        Array.copy topo.Cap_topology.Transit_stub.domain_of,
        domains )

let generate rng (scenario : Scenario.t) =
  let graph, region_of_node, regions = build_topology rng scenario in
  let delay = Delay.create graph ~max_rtt:scenario.Scenario.max_rtt in
  let nodes = Delay.node_count delay in
  if scenario.Scenario.servers > nodes then invalid_arg "World.generate: more servers than nodes";
  let server_nodes = Rng.sample_distinct rng ~k:scenario.Scenario.servers ~n:nodes in
  let capacities =
    Capacity.generate rng ~servers:scenario.Scenario.servers
      ~total:scenario.Scenario.total_capacity
      ~min_per_server:scenario.Scenario.min_server_capacity
  in
  let sampler =
    Distribution.prepare rng ~physical:scenario.Scenario.physical
      ~virtual_world:scenario.Scenario.virtual_world
      ~correlation:scenario.Scenario.correlation ~nodes ~zones:scenario.Scenario.zones
      ~region_of_node:(fun n -> region_of_node.(n))
      ~regions
  in
  let client_nodes = Array.make scenario.Scenario.clients 0 in
  let client_zones = Array.make scenario.Scenario.clients 0 in
  for c = 0 to scenario.Scenario.clients - 1 do
    let node = Distribution.sample_node sampler rng in
    client_nodes.(c) <- node;
    client_zones.(c) <- Distribution.sample_zone sampler rng ~node
  done;
  {
    scenario;
    delay;
    observed = delay;
    region_of_node;
    regions;
    server_nodes;
    capacities;
    server_delay_penalty = Array.make scenario.Scenario.servers 0.;
    server_mesh = None;
    client_nodes;
    client_zones;
    sampler;
    cache = fresh_cache ();
  }

let with_estimation_error rng ~factor t =
  {
    t with
    observed = Cap_topology.Estimation_error.apply rng ~factor t.delay;
    cache = fresh_cache ();
  }

let with_vivaldi_observed rng ?params t =
  {
    t with
    observed = Cap_topology.Vivaldi.estimate rng ?params t.delay;
    cache = fresh_cache ();
  }

let rtt_in model t ~client ~server =
  Delay.rtt model t.client_nodes.(client) t.server_nodes.(server)
  +. t.server_delay_penalty.(server)

let server_rtt_base model t s1 s2 =
  if s1 = s2 then 0.
  else
    t.scenario.Scenario.inter_server_factor
    *. Delay.rtt model t.server_nodes.(s1) t.server_nodes.(s2)

let server_rtt_in model t s1 s2 =
  if s1 = s2 then 0.
  else
    let base =
      match t.server_mesh with
      | None -> server_rtt_base model t s1 s2
      | Some mesh ->
          (* Physical equality: [model] is either [t.delay] or
             [t.observed], both captured when the mesh was baked. *)
          (if model == t.delay then mesh.true_rtt else mesh.observed_rtt).(s1).(s2)
    in
    base +. t.server_delay_penalty.(s1) +. t.server_delay_penalty.(s2)

let servers_reachable t s1 s2 = s1 = s2 || server_rtt_in t.delay t s1 s2 < infinity

let node_server_rtt t ~node ~server =
  Delay.rtt t.observed node t.server_nodes.(server) +. t.server_delay_penalty.(server)

let server_server_rtt t s1 s2 = server_rtt_in t.observed t s1 s2
let true_client_server_rtt t ~client ~server = rtt_in t.delay t ~client ~server
let true_server_server_rtt t s1 s2 = server_rtt_in t.delay t s1 s2

(* ------------------------------------------------------------------ *)
(* Derived-data cache                                                  *)

(* The build is a pure function of the world, so a lost race between
   two domains just wastes one rebuild; the compare-and-set keeps a
   single winner and the [Atomic] gives the publication the required
   happens-before edge. Client x server fills go row-parallel over the
   default pool (inline when already inside a pool task). *)

let f32_create n = Bigarray.Array1.create Bigarray.Float32 Bigarray.C_layout n

(* Rows per parallel task in the dense fill: enough rows that a task
   is a few cache lines of bookkeeping per memcpy burst, few enough
   that the pool load-balances. Values never depend on the schedule,
   so the block size cannot affect results. *)
let fill_block = 256

let fill_ns t model =
  let nodes = node_count t and servers = server_count t in
  let m = f32_create (nodes * servers) in
  let pool = Cap_par.Pool.default () in
  Cap_par.Pool.parallel_for pool ~n:nodes (fun node ->
      let base = node * servers in
      for server = 0 to servers - 1 do
        Bigarray.Array1.unsafe_set m (base + server)
          (Delay.rtt model node t.server_nodes.(server)
          +. t.server_delay_penalty.(server))
      done);
  m

(* Client rows are copies of their node's row (penalties are already
   baked into [ns]), so the k x m fill is k strided memcpys instead of
   k*m delay lookups. *)
let fill_cs t ~ns =
  let servers = server_count t and clients = client_count t in
  let m = f32_create (clients * servers) in
  let pool = Cap_par.Pool.default () in
  let blocks = (clients + fill_block - 1) / fill_block in
  Cap_par.Pool.parallel_for pool ~n:blocks (fun b ->
      let lo = b * fill_block in
      let hi = min clients (lo + fill_block) - 1 in
      for client = lo to hi do
        Bigarray.Array1.blit
          (Bigarray.Array1.sub ns (t.client_nodes.(client) * servers) servers)
          (Bigarray.Array1.sub m (client * servers) servers)
      done);
  m

let build_cache t =
  let servers = server_count t in
  let clients = client_count t in
  let zones = zone_count t in
  let traffic = t.scenario.Scenario.traffic in
  let zone_pop = Array.make zones 0 in
  Array.iter (fun z -> zone_pop.(z) <- zone_pop.(z) + 1) t.client_zones;
  let zone_rate_of =
    Array.map (fun population -> Traffic.zone_rate traffic ~population) zone_pop
  in
  let zone_client_rate =
    Array.map
      (fun population ->
        if population = 0 then nan
        else Traffic.client_rate traffic ~zone_population:population)
      zone_pop
  in
  let zone_off = Array.make (zones + 1) 0 in
  for z = 0 to zones - 1 do
    zone_off.(z + 1) <- zone_off.(z) + zone_pop.(z)
  done;
  let zone_clients = Array.make clients 0 in
  let cursor = Array.copy zone_off in
  for c = 0 to clients - 1 do
    let z = t.client_zones.(c) in
    zone_clients.(cursor.(z)) <- c;
    cursor.(z) <- cursor.(z) + 1
  done;
  let fill_ss model =
    let m = f32_create (servers * servers) in
    for i = 0 to (servers * servers) - 1 do
      Bigarray.Array1.unsafe_set m i (server_rtt_in model t (i / servers) (i mod servers))
    done;
    m
  in
  let ns_rtt_true = fill_ns t t.delay in
  let ns_rtt = if t.observed == t.delay then ns_rtt_true else fill_ns t t.observed in
  let ss_rtt_true = fill_ss t.delay in
  let ss_rtt = if t.observed == t.delay then ss_rtt_true else fill_ss t.observed in
  {
    c_servers = servers;
    zone_pop;
    zone_rate_of;
    zone_client_rate;
    zone_off;
    zone_clients;
    ns_rtt;
    ns_rtt_true;
    ss_rtt;
    ss_rtt_true;
    dense = Atomic.make None;
  }

let cached t =
  match Atomic.get t.cache with
  | Some cache -> cache
  | None ->
      let cache = build_cache t in
      if Atomic.compare_and_set t.cache None (Some cache) then cache
      else (match Atomic.get t.cache with Some c -> c | None -> cache)

(* The k x m matrices live behind their own slot inside the cache
   value: at k = 1M, m = 500 they are 2 GB of float32, and no solver
   touches them (they read the node rows these copy). Same benign CAS race as
   [cached]; invalidation is inherited, because the slot dies with the
   cache value it sits in. *)
let dense t =
  let c = cached t in
  match Atomic.get c.dense with
  | Some d -> d
  | None ->
      let cs_rtt_true = fill_cs t ~ns:c.ns_rtt_true in
      let cs_rtt =
        if t.observed == t.delay then cs_rtt_true else fill_cs t ~ns:c.ns_rtt
      in
      let d = { cs_rtt; cs_rtt_true } in
      if Atomic.compare_and_set c.dense None (Some d) then d
      else (match Atomic.get c.dense with Some d -> d | None -> d)

let invalidate t = Atomic.set t.cache None

(* ------------------------------------------------------------------ *)
(* Populations and rates (O(1) via the cache)                          *)

let zone_population t = Array.copy (cached t).zone_pop

let client_rate t c = (cached t).zone_client_rate.(t.client_zones.(c))

let forwarding_rate t c = 2. *. client_rate t c

let zone_rate t z =
  let rates = (cached t).zone_rate_of in
  if z < 0 || z >= Array.length rates then 0. else rates.(z)

let total_demand t = Array.fold_left ( +. ) 0. (cached t).zone_rate_of

let total_capacity t = Array.fold_left ( +. ) 0. t.capacities

let replace_clients t ~client_nodes ~client_zones =
  if Array.length client_nodes <> Array.length client_zones then
    invalid_arg "World.replace_clients: length mismatch";
  let nodes = node_count t and zones = zone_count t in
  Array.iter
    (fun n -> if n < 0 || n >= nodes then invalid_arg "World.replace_clients: bad node")
    client_nodes;
  Array.iter
    (fun z -> if z < 0 || z >= zones then invalid_arg "World.replace_clients: bad zone")
    client_zones;
  {
    t with
    client_nodes = Array.copy client_nodes;
    client_zones = Array.copy client_zones;
    cache = fresh_cache ();
  }
