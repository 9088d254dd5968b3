let now_ns = Common.now_ns
let max_names = 64
let max_depth = 32

type t = {
  names : string array;
  mutable name_count : int;
  count : int array;
  total : int array;
  self : int array;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_record : int array;
  mutable depth : int;
  keep : bool;
  mutable r_name : int array;
  mutable r_start : int array;
  mutable r_stop : int array;
  mutable r_parent : int array;
  mutable r_range : int array;
  mutable records : int;
  mutable range : int;
  mutable last : int;
}

let create ~keep =
  let stack () = Array.make max_depth 0 in
  let store () = if keep then Array.make 4096 0 else [||] in
  {
    names = Array.make max_names "";
    name_count = 0;
    count = Array.make max_names 0;
    total = Array.make max_names 0;
    self = Array.make max_names 0;
    st_name = stack ();
    st_start = stack ();
    st_child = stack ();
    st_record = stack ();
    depth = 0;
    keep;
    r_name = store ();
    r_start = store ();
    r_stop = store ();
    r_parent = store ();
    r_range = store ();
    records = 0;
    range = 0;
    last = 0;
  }

let reset t =
  if t.depth <> 0 then invalid_arg "Spans.reset: spans still open";
  Array.fill t.count 0 max_names 0;
  Array.fill t.total 0 max_names 0;
  Array.fill t.self 0 max_names 0;
  t.records <- 0

let name t s =
  let rec find i =
    if i = t.name_count then begin
      if i = max_names then invalid_arg "Spans.name: too many span names";
      t.names.(i) <- s;
      t.name_count <- i + 1;
      i
    end
    else if t.names.(i) = s then i
    else find (i + 1)
  in
  find 0

let set_range t r = t.range <- r

let grow t =
  let cap = 2 * Array.length t.r_name in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.records;
    b
  in
  t.r_name <- g t.r_name;
  t.r_start <- g t.r_start;
  t.r_stop <- g t.r_stop;
  t.r_parent <- g t.r_parent;
  t.r_range <- g t.r_range

let enter t id =
  let d = t.depth in
  if d = max_depth then invalid_arg "Spans.enter: nesting too deep";
  let start = now_ns () in
  t.st_name.(d) <- id;
  t.st_start.(d) <- start;
  t.st_child.(d) <- 0;
  if t.keep then begin
    if t.records = Array.length t.r_name then grow t;
    let r = t.records in
    t.records <- r + 1;
    t.r_name.(r) <- id;
    t.r_start.(r) <- start;
    t.r_parent.(r) <- (if d = 0 then -1 else t.st_record.(d - 1));
    t.r_range.(r) <- t.range;
    t.st_record.(d) <- r
  end;
  t.depth <- d + 1

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Spans.leave: no open span";
  t.depth <- d;
  let id = t.st_name.(d) in
  let dur = stop - t.st_start.(d) in
  t.last <- dur;
  t.count.(id) <- t.count.(id) + 1;
  t.total.(id) <- t.total.(id) + dur;
  t.self.(id) <- t.self.(id) + dur - t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  if t.keep then t.r_stop.(t.st_record.(d)) <- stop

let last_s t = float_of_int t.last *. 1e-9
let count t id = t.count.(id)
let total_s t id = float_of_int t.total.(id) *. 1e-9
let self_s t id = float_of_int t.self.(id) *. 1e-9
let records t = t.records

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for r = 0 to t.records - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%s,\"poll\":%d}\n" r
          t.names.(t.r_name.(r))
          t.r_start.(r) t.r_stop.(r)
          (if t.r_parent.(r) < 0 then "null" else string_of_int t.r_parent.(r))
          t.r_range.(r)
      done)
