module Rng = Cap_util.Rng
module Vivaldi = Cap_topology.Vivaldi
module Pool = Cap_par.Pool

type t = {
  world : World.t;
  buckets : int;
  bucket_of_node : int array;
  groups : int;
  group_zone : int array;
  group_weight : int array;
  zone_group_off : int array;
  group_off : int array;
  group_clients : int array;
  gs_rtt : World.f32;
  gs_rtt_true : World.f32;
}

let default_buckets = 16

let group_count t = t.groups

let members t g = Array.sub t.group_clients t.group_off.(g) (t.group_off.(g + 1) - t.group_off.(g))

(* ------------------------------------------------------------------ *)
(* Node clustering                                                     *)

let sq_distance a b =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

(* Deterministic k-means over the Vivaldi coordinates: k-means++
   seeding from the caller's rng, a fixed number of Lloyd rounds, and
   all ties broken toward the lowest index — the result is a pure
   function of (rng state, coordinates, buckets). *)
let kmeans rng ~buckets coords =
  let n = Array.length coords in
  let centers = Array.make buckets coords.(0) in
  centers.(0) <- Array.copy coords.(Rng.int rng n);
  let dist2 = Array.make n infinity in
  for c = 1 to buckets - 1 do
    let total = ref 0. in
    for i = 0 to n - 1 do
      dist2.(i) <- min dist2.(i) (sq_distance coords.(i) centers.(c - 1));
      total := !total +. dist2.(i)
    done;
    let pick =
      if !total <= 0. then Rng.int rng n
      else begin
        let r = Rng.uniform rng *. !total in
        let acc = ref 0. and chosen = ref (n - 1) and stop = ref false in
        for i = 0 to n - 1 do
          if not !stop then begin
            acc := !acc +. dist2.(i);
            if !acc >= r then begin
              chosen := i;
              stop := true
            end
          end
        done;
        !chosen
      end
    in
    centers.(c) <- Array.copy coords.(pick)
  done;
  let assign = Array.make n 0 in
  let nearest p =
    let best = ref 0 and best_d = ref infinity in
    for c = 0 to buckets - 1 do
      let d = sq_distance p centers.(c) in
      if d < !best_d then begin
        best := c;
        best_d := d
      end
    done;
    !best
  in
  let dims = Array.length coords.(0) in
  for _round = 1 to 8 do
    for i = 0 to n - 1 do
      assign.(i) <- nearest coords.(i)
    done;
    let sums = Array.init buckets (fun _ -> Array.make dims 0.) in
    let counts = Array.make buckets 0 in
    for i = 0 to n - 1 do
      let c = assign.(i) in
      counts.(c) <- counts.(c) + 1;
      let s = sums.(c) in
      for d = 0 to dims - 1 do
        s.(d) <- s.(d) +. coords.(i).(d)
      done
    done;
    for c = 0 to buckets - 1 do
      (* an empty cluster keeps its old center *)
      if counts.(c) > 0 then
        centers.(c) <-
          Array.init dims (fun d -> sums.(c).(d) /. float_of_int counts.(c))
    done
  done;
  for i = 0 to n - 1 do
    assign.(i) <- nearest coords.(i)
  done;
  assign

(* ------------------------------------------------------------------ *)
(* Build                                                               *)

let build rng ?(buckets = default_buckets) world =
  if buckets < 1 then invalid_arg "Aggregate.build: buckets must be positive";
  let k = World.client_count world in
  let zones = World.zone_count world in
  let nodes = World.node_count world in
  let servers = World.server_count world in
  let c = World.cached world in
  let bucket_of_node, buckets =
    if buckets >= nodes then (Array.init nodes Fun.id, nodes)
    else
      let embedding = Vivaldi.embed rng world.World.observed in
      (kmeans rng ~buckets embedding.Vivaldi.coordinates, buckets)
  in
  (* Group key = zone-major (zone, bucket): group ids come out sorted
     by zone, so each zone's groups are one contiguous id range. *)
  let key_count = Array.make (zones * buckets) 0 in
  for cl = 0 to k - 1 do
    let key =
      (world.World.client_zones.(cl) * buckets)
      + bucket_of_node.(world.World.client_nodes.(cl))
    in
    key_count.(key) <- key_count.(key) + 1
  done;
  let gid_of_key = Array.make (zones * buckets) (-1) in
  let groups = ref 0 in
  Array.iteri
    (fun key n ->
      if n > 0 then begin
        gid_of_key.(key) <- !groups;
        incr groups
      end)
    key_count;
  let groups = !groups in
  let group_zone = Array.make groups 0 in
  let group_weight = Array.make groups 0 in
  let zone_group_off = Array.make (zones + 1) 0 in
  Array.iteri
    (fun key n ->
      if n > 0 then begin
        let g = gid_of_key.(key) in
        group_zone.(g) <- key / buckets;
        group_weight.(g) <- n
      end)
    key_count;
  for z = 0 to zones - 1 do
    let count = ref 0 in
    for b = 0 to buckets - 1 do
      if key_count.((z * buckets) + b) > 0 then incr count
    done;
    zone_group_off.(z + 1) <- zone_group_off.(z) + !count
  done;
  let group_off = Array.make (groups + 1) 0 in
  for g = 0 to groups - 1 do
    group_off.(g + 1) <- group_off.(g) + group_weight.(g)
  done;
  let group_clients = Array.make k 0 in
  let cursor = Array.copy group_off in
  for cl = 0 to k - 1 do
    let key =
      (world.World.client_zones.(cl) * buckets)
      + bucket_of_node.(world.World.client_nodes.(cl))
    in
    let g = gid_of_key.(key) in
    group_clients.(cursor.(g)) <- cl;
    cursor.(g) <- cursor.(g) + 1
  done;
  let bucket_nodes_off = Array.make (buckets + 1) 0 in
  Array.iter (fun b -> bucket_nodes_off.(b + 1) <- bucket_nodes_off.(b + 1) + 1) bucket_of_node;
  for b = 0 to buckets - 1 do
    bucket_nodes_off.(b + 1) <- bucket_nodes_off.(b + 1) + bucket_nodes_off.(b)
  done;
  let bucket_nodes = Array.make nodes 0 in
  let bcursor = Array.copy bucket_nodes_off in
  for node = 0 to nodes - 1 do
    let b = bucket_of_node.(node) in
    bucket_nodes.(bcursor.(b)) <- node;
    bcursor.(b) <- bcursor.(b) + 1
  done;
  let group_bucket = Array.make groups 0 in
  Array.iteri
    (fun key n -> if n > 0 then group_bucket.(gid_of_key.(key)) <- key mod buckets)
    key_count;
  (* Weighted mean RTT per (group, server), accumulated in double over
     ascending node id, stored f32. A group row is a weighted mean over
     the nodes of its bucket instead of a sum over its members:
     O(nnz(zone, node) * m) instead of O(k * m). Zone-parallel: each
     task counts its zone's members by node from the zone's contiguous
     slice of the member CSR, then fills the zone's groups;
     deterministic at any pool size. When every group is a single
     (zone, node) class — buckets >= nodes — the mean of n identical
     f32 values is exact, which is what makes aggregation lossless on
     small worlds. [ns] is annotated so the Bigarray reads compile to
     unboxed loads. *)
  let client_nodes = world.World.client_nodes in
  let fill_gs (ns : World.f32) =
    let m = Bigarray.Array1.create Bigarray.Float32 Bigarray.C_layout (groups * servers) in
    Pool.parallel_for (Pool.default ()) ~n:zones (fun z ->
        let g0 = zone_group_off.(z) and g1 = zone_group_off.(z + 1) in
        if g1 > g0 then begin
          let node_count = Array.make nodes 0 in
          for i = group_off.(g0) to group_off.(g1) - 1 do
            let node = client_nodes.(group_clients.(i)) in
            node_count.(node) <- node_count.(node) + 1
          done;
          let acc = Array.make servers 0. in
          for g = g0 to g1 - 1 do
            let b = group_bucket.(g) in
            Array.fill acc 0 servers 0.;
            for i = bucket_nodes_off.(b) to bucket_nodes_off.(b + 1) - 1 do
              let node = bucket_nodes.(i) in
              let count = node_count.(node) in
              if count > 0 then begin
                let weight = float_of_int count in
                let base = node * servers in
                for s = 0 to servers - 1 do
                  Array.unsafe_set acc s
                    (Array.unsafe_get acc s +. (weight *. Bigarray.Array1.unsafe_get ns (base + s)))
                done
              end
            done;
            let weight = float_of_int group_weight.(g) in
            let base = g * servers in
            for s = 0 to servers - 1 do
              Bigarray.Array1.unsafe_set m (base + s) (Array.unsafe_get acc s /. weight)
            done
          done
        end);
    m
  in
  let gs_rtt_true = fill_gs c.World.ns_rtt_true in
  let gs_rtt =
    if c.World.ns_rtt == c.World.ns_rtt_true then gs_rtt_true
    else fill_gs c.World.ns_rtt
  in
  {
    world;
    buckets;
    bucket_of_node;
    groups;
    group_zone;
    group_weight;
    zone_group_off;
    group_off;
    group_clients;
    gs_rtt;
    gs_rtt_true;
  }
