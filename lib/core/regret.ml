type rule =
  | Best_minus_second
  | Second_minus_best

(* Selections before the rest of a walk is sorted outright. Under
   loose capacity an item stops at one of its first choices, and a
   selection is one O(m) scan, so a few of them cost less than an
   O(m log m) sort up front; a walk that goes deeper (tight capacity)
   pays for the sort once. *)
let selections = 4

module Walk = struct
  type t = {
    n : int;
    keys : float array;
    ties : float array;
    order : int array;
    mutable pos : int;
    mutable sorted : bool;
  }

  let create n =
    if n < 1 then invalid_arg "Regret.Walk.create: need at least one server";
    {
      n;
      keys = Array.make n 0.;
      ties = Array.make n 0.;
      order = Array.init n Fun.id;
      pos = n;
      sorted = true;
    }

  let keys w = w.keys
  let ties w = w.ties

  (* The preference order: key, then tie, then index. Keys and ties
     are never NaN, so [<] and [=] make this a strict total order and
     every sort or selection under it yields the same sequence. *)
  let before w a b =
    let ka = Array.unsafe_get w.keys a and kb = Array.unsafe_get w.keys b in
    ka < kb
    || ka = kb
       &&
       let ta = Array.unsafe_get w.ties a and tb = Array.unsafe_get w.ties b in
       ta < tb || (ta = tb && a < b)

  let swap o i j =
    let t = o.(i) in
    o.(i) <- o.(j);
    o.(j) <- t

  (* In-place heapsort of [order.(lo .. n-1)]: no allocation, and the
     comparison is a direct call. *)
  let sort_from w lo =
    let o = w.order and size = w.n - lo in
    let rec sift i size =
      let l = (2 * i) + 1 in
      if l < size then begin
        let child =
          if l + 1 < size && before w o.(lo + l) o.(lo + l + 1) then l + 1 else l
        in
        if before w o.(lo + i) o.(lo + child) then begin
          swap o (lo + i) (lo + child);
          sift child size
        end
      end
    in
    for i = (size / 2) - 1 downto 0 do
      sift i size
    done;
    for last = size - 1 downto 1 do
      swap o lo (lo + last);
      sift 0 last
    done

  let start w =
    for s = 0 to w.n - 1 do
      w.order.(s) <- s
    done;
    w.pos <- 0;
    w.sorted <- false

  let next w =
    if w.pos >= w.n then -1
    else begin
      if not w.sorted then
        if w.pos >= selections then begin
          sort_from w w.pos;
          w.sorted <- true
        end
        else begin
          let o = w.order in
          let best = ref w.pos in
          for i = w.pos + 1 to w.n - 1 do
            if before w o.(i) o.(!best) then best := i
          done;
          swap o w.pos !best
        end;
      let s = w.order.(w.pos) in
      w.pos <- w.pos + 1;
      s
    end

  let regret rule w ~desirability =
    if w.n = 1 then 0.
    else begin
      (* the two smallest keys, duplicates counted *)
      let lo1 = ref infinity and lo2 = ref infinity in
      for s = 0 to w.n - 1 do
        let k = w.keys.(s) in
        if k < !lo1 then begin
          lo2 := !lo1;
          lo1 := k
        end
        else if k < !lo2 then lo2 := k
      done;
      let best = desirability !lo1 and second = desirability !lo2 in
      match rule with
      | Best_minus_second -> best -. second
      | Second_minus_best -> second -. best
    end
end

let rank w ~rule ~ids ~fill ~desirability =
  let regrets =
    Array.map
      (fun id ->
        fill id;
        Walk.regret rule w ~desirability)
      ids
  in
  (* Float.compare, as the polymorphic compare would: a NaN regret
     (two unreachable options) ranks below every number. *)
  let order = Array.init (Array.length ids) Fun.id in
  Array.sort
    (fun i j ->
      match Float.compare regrets.(j) regrets.(i) with
      | 0 -> Int.compare ids.(i) ids.(j)
      | c -> c)
    order;
  Array.map (fun i -> ids.(i)) order
