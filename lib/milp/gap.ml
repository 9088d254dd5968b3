type t = {
  costs : float array array;
  demands : float array array;
  capacities : float array;
}

let make ~costs ~demands ~capacities =
  let items = Array.length costs in
  let servers = Array.length capacities in
  if items = 0 then invalid_arg "Gap.make: no items";
  if servers = 0 then invalid_arg "Gap.make: no servers";
  if Array.length demands <> items then invalid_arg "Gap.make: demands/items mismatch";
  Array.iter
    (fun row -> if Array.length row <> servers then invalid_arg "Gap.make: ragged costs")
    costs;
  Array.iter
    (fun row ->
      if Array.length row <> servers then invalid_arg "Gap.make: ragged demands";
      Array.iter (fun d -> if d < 0. then invalid_arg "Gap.make: negative demand") row)
    demands;
  Array.iter (fun c -> if c < 0. then invalid_arg "Gap.make: negative capacity") capacities;
  { costs; demands; capacities }

let item_count t = Array.length t.costs
let server_count t = Array.length t.capacities

let objective t assignment =
  let acc = ref 0. in
  Array.iteri (fun j i -> acc := !acc +. t.costs.(j).(i)) assignment;
  !acc

let is_feasible ?(eps = 1e-9) t assignment =
  let loads = Array.make (server_count t) 0. in
  Array.iteri (fun j i -> loads.(i) <- loads.(i) +. t.demands.(j).(i)) assignment;
  Array.for_all2 (fun load cap -> load <= cap +. eps) loads t.capacities

let lp_relaxation t =
  let items = item_count t and servers = server_count t in
  let vars = items * servers in
  let index j i = (j * servers) + i in
  let objective = Array.make vars 0. in
  for j = 0 to items - 1 do
    for i = 0 to servers - 1 do
      objective.(index j i) <- t.costs.(j).(i)
    done
  done;
  let convexity j =
    let coeffs = Array.make vars 0. in
    for i = 0 to servers - 1 do
      coeffs.(index j i) <- 1.
    done;
    { Lp.coeffs; relation = Lp.Eq; rhs = 1. }
  in
  let capacity i =
    let coeffs = Array.make vars 0. in
    for j = 0 to items - 1 do
      coeffs.(index j i) <- t.demands.(j).(i)
    done;
    { Lp.coeffs; relation = Lp.Le; rhs = t.capacities.(i) }
  in
  let constraints =
    List.init items convexity @ List.init servers capacity
  in
  Lp.make ~objective ~constraints
