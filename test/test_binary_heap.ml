module Heap = Cap_util.Binary_heap

let case name f = Alcotest.test_case name `Quick f

let int_heap () = Heap.create ()
let cmp = compare

let test_empty () =
  let h = int_heap () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check (option int)) "peek" None (Heap.peek h);
  Alcotest.(check (option int)) "pop" None (Heap.pop ~cmp h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Binary_heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn ~cmp h))

let test_ordering () =
  let h = int_heap () in
  List.iter (Heap.add ~cmp h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check int) "length" 7 (Heap.length h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 5; 7; 8; 9 ] (Heap.drain ~cmp h);
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_duplicates () =
  let h = int_heap () in
  List.iter (Heap.add ~cmp h) [ 2; 2; 1; 2 ];
  Alcotest.(check (list int)) "duplicates kept" [ 1; 2; 2; 2 ] (Heap.drain ~cmp h)

let test_of_array () =
  let a = [| 4; 1; 3; 9; 7; 0 |] in
  let h = Heap.of_array ~cmp a in
  Alcotest.(check bool) "heap order" true (Heap.is_heap ~cmp h);
  Alcotest.(check bool) "not in the reverse order" false
    (Heap.is_heap ~cmp:(fun x y -> compare y x) h);
  Alcotest.(check (list int)) "heapify" [ 0; 1; 3; 4; 7; 9 ] (Heap.drain ~cmp h);
  Alcotest.(check (array int)) "input untouched" [| 4; 1; 3; 9; 7; 0 |] a;
  let empty = Heap.of_array ~cmp [||] in
  Alcotest.(check bool) "empty of_array" true (Heap.is_empty empty)

let test_custom_order () =
  let cmp a b = compare b a in
  let h = Heap.create () in
  List.iter (Heap.add ~cmp h) [ 1; 5; 3 ];
  Alcotest.(check (list int)) "max-heap drain" [ 5; 3; 1 ] (Heap.drain ~cmp h)

let test_growth () =
  let h = Heap.create ~capacity:1 () in
  for i = 100 downto 1 do
    Heap.add ~cmp h i
  done;
  Alcotest.(check int) "length after growth" 100 (Heap.length h);
  Alcotest.(check (option int)) "min" (Some 1) (Heap.pop ~cmp h)

(* The sorted-list model's insert: O(n) per add, the same list as
   re-sorting [x :: model]. *)
let rec insert x = function
  | y :: rest when compare y x < 0 -> y :: insert x rest
  | model -> x :: model

(* Floats are stored flat, so a backing array padded with a non-float
   placeholder crashes the first time it grows or a pop clears a
   slot. *)
let test_float_heap () =
  let cmp = Float.compare in
  let h = Heap.create ~capacity:1 () in
  List.iter (Heap.add ~cmp h) [ 2.5; -1.; 7.25; 0.; 3. ];
  Alcotest.(check (option (float 0.))) "pop" (Some (-1.)) (Heap.pop ~cmp h);
  Heap.add ~cmp h 1.5;
  Alcotest.(check (list (float 0.))) "sorted drain" [ 0.; 1.5; 2.5; 3.; 7.25 ] (Heap.drain ~cmp h);
  Heap.add ~cmp h 4.;
  Alcotest.(check (list (float 0.))) "reused after emptying" [ 4. ] (Heap.drain ~cmp h)

let prop_float_model =
  (* A float heap from of_array or from create at capacity 2-4, then
     random add/pop interleavings. Float.compare ties 0. with -0., so
     the model checks order, not bits. *)
  let same a b = Float.compare a b = 0 and cmp = Float.compare in
  QCheck.Test.make ~name:"float add/pop/of_array matches model" ~count:200
    QCheck.(triple (int_range 1 4) (small_list float) (small_list (option float)))
    (fun (capacity, init, ops) ->
      let model = ref (List.sort compare init) in
      let h =
        if capacity = 1 then Heap.of_array ~cmp (Array.of_list init)
        else begin
          let h = Heap.create ~capacity () in
          List.iter (Heap.add ~cmp h) init;
          h
        end
      in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Heap.add ~cmp h x;
              model := insert x !model;
              true
          | None -> (
              let popped = Heap.pop ~cmp h in
              match !model with
              | [] -> popped = None
              | m :: rest ->
                  model := rest;
                  Option.equal same popped (Some m)))
        ops
      && List.equal same (Heap.drain ~cmp h) !model)

let prop_drain_sorted =
  QCheck.Test.make ~name:"drain is sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = int_heap () in
      List.iter (Heap.add ~cmp h) xs;
      Heap.drain ~cmp h = List.sort compare xs)

let prop_interleaved_matches_model =
  (* Random add/pop interleavings agree with a sorted-list model. *)
  QCheck.Test.make ~name:"interleaved add/pop matches model" ~count:200
    QCheck.(list (option small_int))
    (fun ops ->
      let h = int_heap () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Heap.add ~cmp h x;
              model := insert x !model;
              true
          | None -> (
              let popped = Heap.pop ~cmp h in
              match !model with
              | [] -> popped = None
              | m :: rest ->
                  model := rest;
                  popped = Some m))
        ops)

let prop_elements_multiset =
  (* [elements] is an unordered snapshot: after any add/pop interleaving
     it holds exactly what a sorted-list model says is pending. *)
  QCheck.Test.make ~name:"elements matches model multiset" ~count:200
    QCheck.(list (option small_int))
    (fun ops ->
      let h = int_heap () in
      let model = ref [] in
      List.iter
        (function
          | Some x ->
              Heap.add ~cmp h x;
              model := insert x !model
          | None -> (
              match Heap.pop ~cmp h, !model with
              | None, [] -> ()
              | Some _, [] | None, _ :: _ -> QCheck.Test.fail_report "pop/model disagree"
              | Some v, m :: rest ->
                  if v <> m then QCheck.Test.fail_report "popped wrong minimum";
                  model := rest))
        ops;
      List.sort compare (Array.to_list (Heap.elements h)) = !model)

let tests =
  [
    ( "util/binary_heap",
      [
        case "empty" test_empty;
        case "ordering" test_ordering;
        case "duplicates" test_duplicates;
        case "of_array" test_of_array;
        case "custom order" test_custom_order;
        case "growth" test_growth;
        case "float heap from capacity 1" test_float_heap;
        QCheck_alcotest.to_alcotest prop_drain_sorted;
        QCheck_alcotest.to_alcotest prop_interleaved_matches_model;
        QCheck_alcotest.to_alcotest prop_elements_multiset;
        QCheck_alcotest.to_alcotest prop_float_model;
      ] );
  ]
