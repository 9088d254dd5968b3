(* The backing array is [[||]] while the heap is empty and is only
   ever made from an element that was added, so a float heap gets a
   flat float array from the start and every slot holds a real value
   of the element type. Slots past [size] may still reference an
   element until they are overwritten or the heap empties. *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  capacity : int;  (** length of the first backing array *)
  mutable data : 'a array;
  mutable size : int;
}

let create ?(capacity = 16) ~cmp () = { cmp; capacity = max capacity 1; data = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let grow t x =
  let data = Array.make (max t.capacity (2 * Array.length t.data)) x in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && t.cmp t.data.(l) t.data.(i) < 0 then l else i in
  let smallest = if r < t.size && t.cmp t.data.(r) t.data.(smallest) < 0 then r else smallest in
  if smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(smallest);
    t.data.(smallest) <- tmp;
    sift_down t smallest
  end

let add t x =
  if t.size = Array.length t.data then grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let of_array ~cmp a =
  let size = Array.length a in
  let t = { cmp; capacity = max size 1; data = Array.copy a; size } in
  for i = (size / 2) - 1 downto 0 do
    sift_down t i
  done;
  t

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size = 0 then t.data <- [||]
    else begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

let pop_exn t =
  match pop t with
  | Some x -> x
  | None -> invalid_arg "Binary_heap.pop_exn: empty heap"

let elements t = Array.sub t.data 0 t.size

let drain t =
  let rec loop acc =
    match pop t with
    | Some x -> loop (x :: acc)
    | None -> List.rev acc
  in
  loop []
