module Rng = Cap_util.Rng

type physical =
  | Uniform_physical
  | Clustered_physical of { clusters : int; weight : float }

type virtual_world =
  | Uniform_virtual
  | Clustered_virtual of { hot_zones : int; weight : float }

type t = {
  node_weights : float array;
  zone_weights : float array;
  preferred : int array array; (* region -> preferred zone ids *)
  region_of_node : int -> int;
  correlation : float;
  (* prepared prefix-sum samplers: bit-identical draws to running
     Rng.weighted_index on the corresponding weight arrays, but
     O(log n) per client instead of O(n) — the difference between
     seconds and minutes when sampling a million clients *)
  node_sampler : Rng.weighted;
  zone_sampler : Rng.weighted;
  preferred_samplers : Rng.weighted array; (* region -> sampler *)
}

let clustered_weights rng ~count ~clusters ~weight ~what =
  if clusters <= 0 then invalid_arg (what ^ ": cluster count must be positive");
  if clusters > count then invalid_arg (what ^ ": more clusters than elements");
  if weight <= 1. then invalid_arg (what ^ ": cluster weight must exceed 1");
  let weights = Array.make count 1. in
  Array.iter (fun i -> weights.(i) <- weight) (Rng.sample_distinct rng ~k:clusters ~n:count);
  weights

let prepare rng ~physical ~virtual_world ~correlation ~nodes ~zones ~region_of_node ~regions =
  if correlation < 0. || correlation > 1. then
    invalid_arg "Distribution.prepare: correlation outside [0, 1]";
  if nodes <= 0 || zones <= 0 || regions <= 0 then
    invalid_arg "Distribution.prepare: sizes must be positive";
  let node_weights =
    match physical with
    | Uniform_physical -> Array.make nodes 1.
    | Clustered_physical { clusters; weight } ->
        clustered_weights rng ~count:nodes ~clusters ~weight ~what:"Distribution: physical"
  in
  let zone_weights =
    match virtual_world with
    | Uniform_virtual -> Array.make zones 1.
    | Clustered_virtual { hot_zones; weight } ->
        clustered_weights rng ~count:zones ~clusters:hot_zones ~weight
          ~what:"Distribution: virtual"
  in
  (* Partition the zones among the regions (shuffled, round-robin) so
     that each region has a disjoint preferred set; when there are
     fewer zones than regions some regions share by wrap-around. *)
  let shuffled = Array.init zones (fun z -> z) in
  Rng.shuffle rng shuffled;
  let preferred = Array.make regions [||] in
  if zones >= regions then begin
    let buckets = Array.make regions [] in
    Array.iteri (fun i z -> buckets.(i mod regions) <- z :: buckets.(i mod regions)) shuffled;
    Array.iteri (fun r zs -> preferred.(r) <- Array.of_list zs) buckets
  end
  else
    for r = 0 to regions - 1 do
      preferred.(r) <- [| shuffled.(r mod zones) |]
    done;
  {
    node_weights;
    zone_weights;
    preferred;
    region_of_node;
    correlation;
    node_sampler = Rng.weighted node_weights;
    zone_sampler = Rng.weighted zone_weights;
    preferred_samplers =
      Array.map
        (fun zones -> Rng.weighted (Array.map (fun z -> zone_weights.(z)) zones))
        preferred;
  }

let sample_node t rng = Rng.weighted_draw rng t.node_sampler

let sample_zone t rng ~node =
  let from_preferred = t.correlation > 0. && Rng.uniform rng < t.correlation in
  if from_preferred then begin
    let region = t.region_of_node node in
    t.preferred.(region).(Rng.weighted_draw rng t.preferred_samplers.(region))
  end
  else Rng.weighted_draw rng t.zone_sampler

let preferred_zones t ~region = Array.to_list t.preferred.(region)
