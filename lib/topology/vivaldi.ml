module Rng = Cap_util.Rng

type params = {
  dimensions : int;
  rounds : int;
  neighbors : int;
  ce : float;
  cc : float;
}

let default_params = { dimensions = 3; rounds = 60; neighbors = 16; ce = 0.25; cc = 0.25 }

type t = {
  coordinates : float array array;
  errors : float array;
}

let validate params n =
  if params.dimensions <= 0 then invalid_arg "Vivaldi: dimensions must be positive";
  if params.rounds <= 0 then invalid_arg "Vivaldi: rounds must be positive";
  if params.neighbors <= 0 then invalid_arg "Vivaldi: neighbors must be positive";
  if params.ce <= 0. || params.cc <= 0. then invalid_arg "Vivaldi: gains must be positive";
  if n < 2 then invalid_arg "Vivaldi: need at least 2 nodes"

let coordinate_distance a b =
  let acc = ref 0. in
  Array.iteri (fun i ai -> acc := !acc +. ((ai -. b.(i)) *. (ai -. b.(i)))) a;
  sqrt !acc

let embed rng ?(params = default_params) delay =
  let n = Delay.node_count delay in
  validate params n;
  (* Small random initial coordinates break the symmetry of starting
     everyone at the origin. *)
  let coordinates =
    Array.init n (fun _ ->
        Array.init params.dimensions (fun _ -> Rng.float_in rng (-1.) 1.))
  in
  let errors = Array.make n 1. in
  (* Fixed random neighbor sets, as a deployment would have. *)
  let neighbor_sets =
    Array.init n (fun i ->
        let k = min params.neighbors (n - 1) in
        let chosen = Rng.sample_distinct rng ~k ~n:(n - 1) in
        (* indices skip the node itself *)
        Array.map (fun j -> if j >= i then j + 1 else j) chosen)
  in
  (* One scratch direction for every update and plain loops, so an
     update allocates nothing. [dist] sums its squares in ascending
     dimension order, as [coordinate_distance] does; the oracle in
     test/oracle.ml pins the coordinates bit for bit. *)
  let dims = params.dimensions in
  let direction = Array.make dims 0. in
  let update i j =
    let rtt = Delay.rtt delay i j in
    if rtt > 0. then begin
      let xi = coordinates.(i) and xj = coordinates.(j) in
      let sq = ref 0. in
      for d = 0 to dims - 1 do
        let v = xi.(d) -. xj.(d) in
        direction.(d) <- v;
        sq := !sq +. (v *. v)
      done;
      let dist = sqrt !sq in
      (* confidence weight: how much node i trusts itself vs j *)
      let w =
        if errors.(i) +. errors.(j) = 0. then 0.5 else errors.(i) /. (errors.(i) +. errors.(j))
      in
      let sample_error = abs_float (dist -. rtt) /. rtt in
      errors.(i) <- (sample_error *. params.ce *. w) +. (errors.(i) *. (1. -. (params.ce *. w)));
      let timestep = params.cc *. w in
      (* unit vector from j towards i; random direction if coincident *)
      if dist > 1e-12 then
        for d = 0 to dims - 1 do
          direction.(d) <- direction.(d) /. dist
        done
      else
        for d = 0 to dims - 1 do
          direction.(d) <- Rng.float_in rng (-1.) 1.
        done;
      let force = timestep *. (rtt -. dist) in
      for d = 0 to dims - 1 do
        xi.(d) <- xi.(d) +. (force *. direction.(d))
      done
    end
  in
  for _ = 1 to params.rounds do
    for i = 0 to n - 1 do
      let neighbors = neighbor_sets.(i) in
      for k = 0 to Array.length neighbors - 1 do
        update i neighbors.(k)
      done
    done
  done;
  { coordinates; errors }

let estimated_delay t =
  let n = Array.length t.coordinates in
  let matrix = Array.init n (fun _ -> Array.make n 0.) in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = coordinate_distance t.coordinates.(u) t.coordinates.(v) in
      matrix.(u).(v) <- d;
      matrix.(v).(u) <- d
    done
  done;
  Delay.of_matrix matrix

let estimate rng ?params delay = estimated_delay (embed rng ?params delay)

let median_relative_error ~estimated ~reference =
  let n = Delay.node_count reference in
  if Delay.node_count estimated <> n then
    invalid_arg "Vivaldi.median_relative_error: size mismatch";
  let samples = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let r = Delay.rtt reference u v in
      if r > 0. then
        samples := abs_float (Delay.rtt estimated u v -. r) /. r :: !samples
    done
  done;
  match !samples with
  | [] -> 0.
  | xs -> Cap_util.Stats.median (Array.of_list xs)
