(* Percentiles are given in tenths of a percent internally, so that
   99.9 never picks up a binary rounding error on the way to a rank. *)
let per_mille p =
  if not (p > 0. && p <= 100.) then invalid_arg "Quantile: percentile outside (0, 100]";
  int_of_float (Float.round (p *. 10.))

let rank ~n p =
  if n < 1 then invalid_arg "Quantile: empty sample";
  let pm = per_mille p in
  max 1 (((pm * n) + 999) / 1000)

let nearest_rank sorted p = sorted.(rank ~n:(Array.length sorted) p - 1)
let beyond ~n p = n - rank ~n p
let supported ~n p = n >= 1 && beyond ~n p >= 10

let sorted_copy values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  a

let median values = nearest_rank (sorted_copy values) 50.

let best ~higher values =
  Array.fold_left (if higher then Float.max else Float.min) values.(0) values
