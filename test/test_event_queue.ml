module Eq = Cap_sim.Event_queue

let case name f = Alcotest.test_case name `Quick f

let test_time_order () =
  let q = Eq.create () in
  Eq.schedule q ~time:3. "c";
  Eq.schedule q ~time:1. "a";
  Eq.schedule q ~time:2. "b";
  Alcotest.(check (option (pair (float 1e-9) string))) "first" (Some (1., "a")) (Eq.next q);
  Alcotest.(check (option (pair (float 1e-9) string))) "second" (Some (2., "b")) (Eq.next q);
  Alcotest.(check (option (pair (float 1e-9) string))) "third" (Some (3., "c")) (Eq.next q);
  Alcotest.(check (option (pair (float 1e-9) string))) "empty" None (Eq.next q)

let test_fifo_ties () =
  let q = Eq.create () in
  Eq.schedule q ~time:1. "first";
  Eq.schedule q ~time:1. "second";
  Eq.schedule q ~time:1. "third";
  let order = List.init 3 (fun _ -> match Eq.next q with Some (_, x) -> x | None -> "?") in
  Alcotest.(check (list string)) "insertion order" [ "first"; "second"; "third" ] order

let test_clock () =
  let q = Eq.create () in
  Alcotest.(check (float 1e-9)) "initial clock" 0. (Eq.now q);
  Eq.schedule q ~time:5. ();
  ignore (Eq.next q);
  Alcotest.(check (float 1e-9)) "clock advanced" 5. (Eq.now q)

let test_no_scheduling_into_past () =
  let q = Eq.create () in
  Eq.schedule q ~time:5. ();
  ignore (Eq.next q);
  Alcotest.check_raises "past" (Invalid_argument "Event_queue.schedule: scheduling into the past")
    (fun () -> Eq.schedule q ~time:4. ());
  (* same time as the clock is fine *)
  Eq.schedule q ~time:5. ()

let test_bad_times () =
  let q = Eq.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Event_queue.schedule: bad time")
    (fun () -> Eq.schedule q ~time:(-1.) ());
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.schedule: bad time") (fun () ->
      Eq.schedule q ~time:nan ())

let test_peek_and_length () =
  let q = Eq.create () in
  Alcotest.(check bool) "empty" true (Eq.is_empty q);
  Eq.schedule q ~time:2. ();
  Eq.schedule q ~time:1. ();
  Alcotest.(check int) "length" 2 (Eq.length q);
  Alcotest.(check (option (float 1e-9))) "peek earliest" (Some 1.) (Eq.peek_time q);
  Alcotest.(check int) "peek does not pop" 2 (Eq.length q)

let prop_drains_in_order =
  QCheck.Test.make ~name:"events drain in time order" ~count:200
    QCheck.(list (float_range 0. 100.))
    (fun times ->
      let q = Eq.create () in
      List.iter (fun t -> Eq.schedule q ~time:t ()) times;
      let rec drain acc = match Eq.next q with
        | Some (t, ()) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let drained = drain [] in
      drained = List.sort compare times)

let drain_all q =
  let rec go acc =
    match Eq.next q with Some e -> go (e :: acc) | None -> List.rev acc
  in
  go []

(* A checkpoint is a deep copy: the queue is plain data, so a marshal
   round trip is exactly what a snapshot on disk gives back. *)
let copy (q : 'a Eq.t) : 'a Eq.t = Marshal.from_string (Marshal.to_string q []) 0

let test_copy_roundtrip () =
  let q = Eq.create () in
  Eq.schedule q ~time:1. "a";
  Eq.schedule q ~time:3. "c";
  Eq.schedule q ~time:1. "a2" (* FIFO tie with "a" *);
  Eq.schedule q ~time:2. "b";
  ignore (Eq.next q) (* pop "a": clock = 1 *);
  let q' = copy q in
  Eq.check q';
  Alcotest.(check (float 1e-9)) "clock copied" (Eq.now q) (Eq.now q');
  Alcotest.(check int) "length copied" (Eq.length q) (Eq.length q');
  Alcotest.(check (list (pair (float 1e-9) string)))
    "identical delivery" (drain_all q) (drain_all q')

let test_copy_preserves_tie_numbering () =
  (* a copied queue interleaves old and new same-time events exactly
     as the original would: old events keep their sequence numbers and
     new ones continue from next_seq *)
  let q = Eq.create () in
  Eq.schedule q ~time:5. "old1";
  Eq.schedule q ~time:5. "old2";
  let q' = copy q in
  List.iter
    (fun q ->
      Eq.schedule q ~time:5. "new";
      Alcotest.(check (list (pair (float 1e-9) string)))
        "FIFO across a copy"
        [ (5., "old1"); (5., "old2"); (5., "new") ]
        (drain_all q))
    [ q; q' ]

let test_check_rejects_inconsistent () =
  let entry time seq = { Eq.time; seq; payload = () } in
  let queue ?(next_seq = 2) ?(clock = 0.) ?(cmp = compare) entries =
    { Eq.heap = Cap_util.Binary_heap.of_array ~cmp (Array.of_list entries); next_seq; clock }
  in
  let reject name q =
    match Eq.check q with
    | () -> Alcotest.failf "check accepted %s" name
    | exception Invalid_argument _ -> ()
  in
  Eq.check (queue [ entry 1. 0; entry 1. 1 ]);
  reject "entry before clock" (queue ~clock:2. [ entry 1. 0 ]);
  reject "duplicate sequence numbers" (queue [ entry 1. 0; entry 2. 0 ]);
  reject "sequence beyond next_seq" (queue ~next_seq:1 [ entry 1. 5 ]);
  reject "NaN time" (queue [ entry Float.nan 0 ]);
  reject "negative clock" (queue ~clock:(-1.) []);
  reject "NaN clock" (queue ~clock:Float.nan []);
  reject "heap out of order" (queue ~cmp:(fun a b -> compare b a) [ entry 1. 0; entry 2. 1 ])

let prop_copy_identical =
  (* After a random schedule/pop prefix, the copied queue delivers the
     same suffix as the original. *)
  QCheck.Test.make ~name:"copy preserves the delivery sequence" ~count:200
    QCheck.(pair (list (float_range 0. 100.)) (int_range 0 20))
    (fun (times, pops) ->
      let q = Eq.create () in
      List.iteri (fun i t -> Eq.schedule q ~time:t i) times;
      for _ = 1 to pops do
        ignore (Eq.next q)
      done;
      let q' = copy q in
      Eq.check q';
      drain_all q = drain_all q')

let tests =
  [
    ( "sim/event_queue",
      [
        case "time order" test_time_order;
        case "fifo ties" test_fifo_ties;
        case "clock" test_clock;
        case "no scheduling into past" test_no_scheduling_into_past;
        case "bad times" test_bad_times;
        case "peek and length" test_peek_and_length;
        case "copy roundtrip" test_copy_roundtrip;
        case "copy preserves tie numbering" test_copy_preserves_tie_numbering;
        case "check rejects inconsistent queues" test_check_rejects_inconsistent;
        QCheck_alcotest.to_alcotest prop_drains_in_order;
        QCheck_alcotest.to_alcotest prop_copy_identical;
      ] );
  ]
