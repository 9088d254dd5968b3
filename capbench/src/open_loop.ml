type outcome = {
  busy : float;
  polls : int;
  clock : float;
  complete : bool;
}

let run ~due ~deliver ~idle ~poll ~answered =
  let n = Array.length due in
  let clock = ref 0. and busy = ref 0. and polls = ref 0 and next = ref 0 in
  let finished = ref (n = 0) and stalled = ref false in
  while not (!finished || !stalled) do
    if !next < n && idle () && due.(!next) > !clock then clock := due.(!next);
    let first = !next in
    while !next < n && due.(!next) <= !clock do
      incr next
    done;
    if !next > first then deliver !next;
    let dt = poll ~clock:!clock in
    clock := !clock +. dt;
    busy := !busy +. dt;
    incr polls;
    finished := answered ~clock:!clock;
    stalled := !next = n && idle ()
  done;
  { busy = !busy; polls = !polls; clock = !clock; complete = !finished }
