(* Hand-built deterministic worlds with explicit delay matrices, so
   tests can assert exact costs, delays and loads. *)

module Rng = Cap_util.Rng
module Delay = Cap_topology.Delay
module Scenario = Cap_model.Scenario
module World = Cap_model.World
module Traffic = Cap_model.Traffic
module Distribution = Cap_model.Distribution

let rng ?(seed = 42) () = Rng.create ~seed

(* A 4-node network:

     node 0 --- node 1      symmetric RTT matrix in ms; servers sit on
     node 2 --- node 3      nodes 0 and 1; clients on any node. *)
let delay_matrix =
  [|
    [| 0.; 100.; 40.; 300. |];
    [| 100.; 0.; 260.; 60. |];
    [| 40.; 260.; 0.; 200. |];
    [| 300.; 60.; 200.; 0. |];
  |]

(* The traffic model is chosen so numbers are easy: 1 msg/s of 125
   bytes = 1000 bits/s per stream, so R^T = (1 + population) kbit/s. *)
let traffic = Traffic.make ~message_rate:1. ~message_size:125 ()

let stream_bps = 1000.

(* A tiny scenario shell; topology is irrelevant because tests build
   the world record directly. *)
let scenario ?(delay_bound = 150.) ?(capacity_per_server = 1e9) ?(inter_server_factor = 0.5)
    ~servers ~zones ~clients () =
  {
    Scenario.default with
    Scenario.name = "fixture";
    servers;
    zones;
    clients;
    total_capacity = capacity_per_server *. float_of_int servers;
    min_server_capacity = 0.;
    delay_bound;
    max_rtt = 300.;
    inter_server_factor;
    correlation = 0.;
    traffic;
  }

let sampler ~nodes ~zones =
  Distribution.prepare (rng ())
    ~physical:Distribution.Uniform_physical ~virtual_world:Distribution.Uniform_virtual
    ~correlation:0. ~nodes ~zones
    ~region_of_node:(fun _ -> 0)
    ~regions:1

(* [world ~server_nodes ~capacities ~clients:(node, zone) list] builds a
   World.t over the 4-node delay matrix above. *)
let world ?(delay_bound = 150.) ?(inter_server_factor = 0.5) ~server_nodes ~capacities ~clients
    ~zones () =
  let servers = Array.length server_nodes in
  let k = List.length clients in
  let scenario =
    {
      (scenario ~delay_bound ~inter_server_factor ~servers ~zones ~clients:k ())
      with
      Scenario.total_capacity = Array.fold_left ( +. ) 0. capacities;
    }
  in
  let delay = Delay.of_matrix delay_matrix in
  {
    World.scenario;
    delay;
    observed = delay;
    region_of_node = Array.make 4 0;
    regions = 1;
    server_nodes = Array.copy server_nodes;
    capacities = Array.copy capacities;
    server_delay_penalty = Array.make servers 0.;
    server_mesh = None;
    client_nodes = Array.of_list (List.map fst clients);
    client_zones = Array.of_list (List.map snd clients);
    sampler = sampler ~nodes:4 ~zones;
    cache = World.fresh_cache ();
  }

(* The standard fixture used across algorithm tests:
   servers: s0 at node 0, s1 at node 1 (inter-server RTT 100 * 0.5 = 50)
   zones:   z0, z1
   clients: c0 at node 0 in z0   d(c0,s0)=0    d(c0,s1)=100
            c1 at node 2 in z0   d(c1,s0)=40   d(c1,s1)=260
            c2 at node 3 in z1   d(c2,s0)=300  d(c2,s1)=60
            c3 at node 3 in z1   d(c3,s0)=300  d(c3,s1)=60
   bound D = 150 ms. *)
let standard ?(capacities = [| 1e9; 1e9 |]) ?(delay_bound = 150.) () =
  world ~delay_bound ~server_nodes:[| 0; 1 |] ~capacities
    ~clients:[ 0, 0; 2, 0; 3, 1; 3, 1 ]
    ~zones:2 ()

(* A generated mid-size world for property tests, memoized by seed:
   topology generation dominates test time and worlds are immutable. *)
let generated_cache : (int, World.t) Hashtbl.t = Hashtbl.create 32

let generated ?(seed = 7) () =
  match Hashtbl.find_opt generated_cache seed with
  | Some world -> world
  | None ->
      let scenario =
        Scenario.make ~servers:5 ~zones:12 ~clients:120 ~total_capacity_mbps:80. ()
      in
      let world = World.generate (Rng.create ~seed) scenario in
      Hashtbl.replace generated_cache seed world;
      world

(* Zone [z]'s clients, ascending, read off the world cache's CSR. *)
let zone_members w z =
  let c = World.cached w in
  Array.sub c.World.zone_clients c.World.zone_off.(z)
    (c.World.zone_off.(z + 1) - c.World.zone_off.(z))

(* Observed RTT from client [client]'s node to [server]. *)
let observed_rtt w ~client ~server =
  World.node_server_rtt w ~node:w.World.client_nodes.(client) ~server
