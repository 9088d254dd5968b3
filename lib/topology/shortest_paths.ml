module Indexed_heap = Cap_util.Indexed_heap

let dijkstra g ~src =
  let n = Graph.node_count g in
  if src < 0 || src >= n then invalid_arg "Shortest_paths.dijkstra: source out of range";
  let dist = Array.make n infinity in
  let heap = Indexed_heap.create n in
  dist.(src) <- 0.;
  Indexed_heap.insert heap src 0.;
  let rec loop () =
    match Indexed_heap.pop_min heap with
    | None -> ()
    | Some (u, du) ->
        if du <= dist.(u) then
          Array.iter
            (fun (v, w) ->
              let dv = du +. w in
              if dv < dist.(v) then begin
                dist.(v) <- dv;
                Indexed_heap.insert_or_decrease heap v dv
              end)
            (Graph.neighbors g u);
        loop ()
  in
  loop ();
  dist

let all_pairs g = Array.init (Graph.node_count g) (fun src -> dijkstra g ~src)
