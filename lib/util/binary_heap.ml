(* The backing array is [[||]] while the heap is empty and is only
   ever made from an element that was added, so a float heap gets a
   flat float array from the start and every slot holds a real value
   of the element type. Slots past [size] may still reference an
   element until they are overwritten or the heap empties. The order
   is an argument of each operation, so the heap holds no closure. *)
type 'a t = {
  capacity : int;  (** length of the first backing array *)
  mutable data : 'a array;
  mutable size : int;
}

let create ?(capacity = 16) () = { capacity = max capacity 1; data = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let grow t x =
  let data = Array.make (max t.capacity (2 * Array.length t.data)) x in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let rec sift_up ~cmp t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up ~cmp t parent
    end
  end

let rec sift_down ~cmp t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && cmp t.data.(l) t.data.(i) < 0 then l else i in
  let smallest = if r < t.size && cmp t.data.(r) t.data.(smallest) < 0 then r else smallest in
  if smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(smallest);
    t.data.(smallest) <- tmp;
    sift_down ~cmp t smallest
  end

let add ~cmp t x =
  if t.size = Array.length t.data then grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up ~cmp t (t.size - 1)

let of_array ~cmp a =
  let size = Array.length a in
  let t = { capacity = max size 1; data = Array.copy a; size } in
  for i = (size / 2) - 1 downto 0 do
    sift_down ~cmp t i
  done;
  t

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop ~cmp t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size = 0 then t.data <- [||]
    else begin
      t.data.(0) <- t.data.(t.size);
      sift_down ~cmp t 0
    end;
    Some top
  end

let pop_exn ~cmp t =
  match pop ~cmp t with
  | Some x -> x
  | None -> invalid_arg "Binary_heap.pop_exn: empty heap"

let elements t = Array.sub t.data 0 t.size

let drain ~cmp t =
  let rec loop acc =
    match pop ~cmp t with
    | Some x -> loop (x :: acc)
    | None -> List.rev acc
  in
  loop []

let is_heap ~cmp t =
  t.capacity >= 1
  && t.size >= 0
  && t.size <= Array.length t.data
  &&
  let rec ordered i = i >= t.size || (cmp t.data.((i - 1) / 2) t.data.(i) <= 0 && ordered (i + 1)) in
  ordered 1
