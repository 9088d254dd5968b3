module Binary_heap = Cap_util.Binary_heap

type 'a entry = {
  time : float;
  seq : int;
  payload : 'a;
}

type 'a t = {
  heap : 'a entry Binary_heap.t;
  mutable next_seq : int;
  mutable clock : float;
}

let cmp a b = match compare a.time b.time with 0 -> compare a.seq b.seq | c -> c

let create () = { heap = Binary_heap.create (); next_seq = 0; clock = 0. }

let schedule t ~time payload =
  if Float.is_nan time || time < 0. then invalid_arg "Event_queue.schedule: bad time";
  if time < t.clock then invalid_arg "Event_queue.schedule: scheduling into the past";
  Binary_heap.add ~cmp t.heap { time; seq = t.next_seq; payload };
  t.next_seq <- t.next_seq + 1

let next t =
  match Binary_heap.pop ~cmp t.heap with
  | None -> None
  | Some entry ->
      t.clock <- entry.time;
      Some (entry.time, entry.payload)

let peek_time t =
  match Binary_heap.peek t.heap with None -> None | Some entry -> Some entry.time

let now t = t.clock
let length t = Binary_heap.length t.heap
let is_empty t = Binary_heap.is_empty t.heap

let check t =
  if Float.is_nan t.clock || t.clock < 0. then invalid_arg "Event_queue.check: bad clock";
  let entries = Binary_heap.elements t.heap in
  let seqs = Hashtbl.create (Array.length entries) in
  Array.iter
    (fun e ->
      if Float.is_nan e.time || e.time < t.clock then
        invalid_arg "Event_queue.check: entry before the clock";
      if e.seq < 0 || e.seq >= t.next_seq then
        invalid_arg "Event_queue.check: sequence number out of range";
      if Hashtbl.mem seqs e.seq then invalid_arg "Event_queue.check: duplicate sequence number";
      Hashtbl.replace seqs e.seq ())
    entries;
  if not (Binary_heap.is_heap ~cmp t.heap) then
    invalid_arg "Event_queue.check: entries out of heap order"
