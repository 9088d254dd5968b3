module Rng = Cap_util.Rng

type t = {
  graph : Graph.t;
  points : Point.t array;
}

let check_params ~alpha ~beta ~max_distance =
  if alpha <= 0. || alpha > 1. then invalid_arg "Waxman: alpha must be in (0, 1]";
  if beta <= 0. then invalid_arg "Waxman: beta must be positive";
  if max_distance <= 0. then invalid_arg "Waxman: max_distance must be positive"

let probability ~alpha ~beta ~max_distance d =
  check_params ~alpha ~beta ~max_distance;
  alpha *. exp (-.d /. (beta *. max_distance))

(* Edge weights are distances; keep them strictly positive even for
   coincident points. *)
let edge_weight a b = max (Point.distance a b) 1e-9

let place rng ~n ~x0 ~y0 ~side =
  Array.init n (fun _ -> Point.random_in rng ~x0 ~y0 ~side)

let generate_incremental rng ~n ~m ~alpha ~beta ?(x0 = 0.) ?(y0 = 0.) ~side () =
  if n < 1 then invalid_arg "Waxman.generate_incremental: n must be >= 1";
  if m < 1 then invalid_arg "Waxman.generate_incremental: m must be >= 1";
  let max_distance = side *. sqrt 2. in
  check_params ~alpha ~beta ~max_distance;
  let points = place rng ~n ~x0 ~y0 ~side in
  let builder = Graph.Builder.create n in
  for i = 1 to n - 1 do
    let weights =
      Array.init i (fun j ->
          probability ~alpha ~beta ~max_distance (Point.distance points.(i) points.(j)))
    in
    let links = min m i in
    (* Draw [links] distinct targets, zeroing the weight of chosen
       nodes so they cannot repeat. *)
    for _ = 1 to links do
      let j = Rng.weighted_index rng weights in
      weights.(j) <- 0.;
      Graph.Builder.add_edge builder i j (edge_weight points.(i) points.(j))
    done
  done;
  { graph = Graph.Builder.finish builder; points }
