module Union_find = Cap_util.Union_find

type link_state =
  | Up
  | Cut
  | Degraded of float

type t = {
  servers : int;
  rtt : float array array;
  component_of : int array;
  component_count : int;
  pristine : bool;
}

(* Graph.Builder rejects non-positive weights, but a base RTT of 0 is
   legitimate for co-located servers; clamp to a negligible positive
   delay instead. *)
let min_weight = 1e-9

let build ~servers ?alive ~base_rtt ~link () =
  if servers <= 0 then invalid_arg "Overlay.build: servers must be positive";
  let alive = match alive with None -> fun _ -> true | Some f -> f in
  let all_alive = ref true in
  for s = 0 to servers - 1 do
    if not (alive s) then all_alive := false
  done;
  let links_pristine = ref true in
  let builder = Graph.Builder.create servers in
  let uf = Union_find.create servers in
  for i = 0 to servers - 1 do
    for j = i + 1 to servers - 1 do
      match link i j with
      | Cut -> links_pristine := false
      | (Up | Degraded _) as state ->
          let penalty =
            match state with
            | Up -> 0.
            | Degraded p ->
                if not (p > 0. && p < infinity) then
                  invalid_arg
                    "Overlay.build: degraded penalty must be positive and \
                     finite";
                links_pristine := false;
                p
            | Cut -> assert false
          in
          if alive i && alive j then begin
            ignore (Union_find.union uf i j);
            let w = base_rtt i j +. penalty in
            if Float.is_nan w then
              invalid_arg "Overlay.build: base RTT is NaN";
            Graph.Builder.add_edge builder i j (Float.max w min_weight)
          end
    done
  done;
  let pristine = !all_alive && !links_pristine in
  let rtt =
    if pristine then
      (* Return the base matrix verbatim: rerouting over a pristine
         mesh could otherwise "improve" on direct delays whenever the
         base matrix violates the triangle inequality (e.g. Vivaldi
         estimates), and a fully healed overlay must be exactly the
         undamaged one. *)
      Array.init servers (fun i ->
          Array.init servers (fun j -> if i = j then 0. else base_rtt i j))
    else begin
      let graph = Graph.Builder.finish builder in
      Array.init servers (fun i ->
          if alive i then Shortest_paths.dijkstra graph ~src:i
          else
            Array.init servers (fun j -> if i = j then 0. else infinity))
    end
  in
  (* Densify component ids in increasing order of smallest member. *)
  let component_of = Array.make servers (-1) in
  let next = ref 0 in
  let dense = Hashtbl.create 8 in
  for s = 0 to servers - 1 do
    if alive s then begin
      let root = Union_find.find uf s in
      let id =
        match Hashtbl.find_opt dense root with
        | Some id -> id
        | None ->
            let id = !next in
            incr next;
            Hashtbl.add dense root id;
            id
      in
      component_of.(s) <- id
    end
  done;
  { servers; rtt; component_of; component_count = !next; pristine }

let pristine t = t.pristine

let check t s name =
  if s < 0 || s >= t.servers then
    invalid_arg (Printf.sprintf "Overlay.%s: server %d out of range" name s)

let effective_rtt t i j =
  check t i "effective_rtt";
  check t j "effective_rtt";
  if i = j then 0. else t.rtt.(i).(j)

let reachable t i j = effective_rtt t i j < infinity

let component_of t s =
  check t s "component_of";
  t.component_of.(s)

let component_count t = t.component_count

let components t =
  let groups = Array.make t.component_count [] in
  for s = t.servers - 1 downto 0 do
    let c = t.component_of.(s) in
    if c >= 0 then groups.(c) <- s :: groups.(c)
  done;
  Array.map Array.of_list groups
