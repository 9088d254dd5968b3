module Rng = Cap_util.Rng

(* One batch of work: indices [0, n) grabbed from a shared counter.
   [completed] counts finished bodies; the caller waits for it to
   reach [n]. The first exception is kept (with its backtrace) and
   re-raised by the caller; once an exception is recorded the
   remaining indices are abandoned. *)
type batch = {
  n : int;
  body : int -> unit;
  next : int Atomic.t;
  completed : int Atomic.t;
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

type t = {
  size : int; (* total participants, >= 1 *)
  mutex : Mutex.t;
  work : Condition.t; (* new batch posted, or shutdown *)
  done_ : Condition.t; (* a batch just completed *)
  mutable current : batch option;
  mutable generation : int; (* bumped per posted batch *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* True on domains currently executing pool tasks (workers always;
   the caller while it participates). Nested parallel calls check it
   and run inline instead of re-entering the pool. *)
let inside_task : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let inside () = !(Domain.DLS.get inside_task)

let run_inline ~n body =
  for i = 0 to n - 1 do
    body i
  done

(* Drain the batch: grab indices until exhausted (or a failure was
   recorded), counting every grabbed index as completed so the caller
   can account for all of them. *)
let participate t batch =
  let flag = Domain.DLS.get inside_task in
  let was_inside = !flag in
  flag := true;
  let rec grab () =
    if batch.failure = None then begin
      let i = Atomic.fetch_and_add batch.next 1 in
      if i < batch.n then begin
        (try batch.body i
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock t.mutex;
           if batch.failure = None then batch.failure <- Some (e, bt);
           Mutex.unlock t.mutex);
        ignore (Atomic.fetch_and_add batch.completed 1);
        grab ()
      end
    end
  in
  grab ();
  flag := was_inside

(* A worker can observe [completed] reach... only the caller waits on
   totals; workers merely signal [done_] after draining so a waiting
   caller re-checks. *)
let rec worker_loop t seen_generation =
  Mutex.lock t.mutex;
  while (not t.stop) && t.generation = seen_generation do
    Condition.wait t.work t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let generation = t.generation in
    let batch = t.current in
    Mutex.unlock t.mutex;
    (match batch with Some b -> participate t b | None -> ());
    Mutex.lock t.mutex;
    Condition.broadcast t.done_;
    Mutex.unlock t.mutex;
    worker_loop t generation
  end

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      size = domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      current = None;
      generation = 0;
      stop = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ ->
        Domain.spawn (fun () ->
            (Domain.DLS.get inside_task) := true;
            worker_loop t 0));
  t

let domains t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let parallel_for t ~n body =
  if n < 0 then invalid_arg "Pool.parallel_for: negative count";
  if n = 0 then ()
  else if t.size = 1 || n = 1 || !(Domain.DLS.get inside_task) then
    run_inline ~n body
  else begin
    if t.stop then invalid_arg "Pool.parallel_for: pool is shut down";
    let batch =
      {
        n;
        body;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        failure = None;
      }
    in
    Mutex.lock t.mutex;
    t.current <- Some batch;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    participate t batch;
    (* Wait for stragglers: every grabbed index is counted in
       [completed]; once no index remains to grab and all grabbed ones
       completed, the batch is done. On failure, abandoned indices are
       never grabbed, so completion means "all started bodies ended". *)
    Mutex.lock t.mutex;
    let finished () =
      let c = Atomic.get batch.completed in
      if batch.failure <> None then c >= Atomic.get batch.next || c >= batch.n
      else c >= batch.n
    in
    while not (finished ()) do
      Condition.wait t.done_ t.mutex
    done;
    t.current <- None;
    Mutex.unlock t.mutex;
    match batch.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map_seeds t ~rng ~runs body =
  if runs < 0 then invalid_arg "Pool.map_seeds: negative runs";
  let rngs = Rng.split_n rng runs in
  let out = Array.make runs None in
  parallel_for t ~n:runs (fun i -> out.(i) <- Some (body i rngs.(i)));
  Array.map (function Some v -> v | None -> assert false) out

let with_local ~domains f =
  let domains = if inside () then 1 else max 1 domains in
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Process-wide default pool                                           *)

let default_size = ref 1
let default_pool : t option ref = ref None
let default_mutex = Mutex.create ()
let at_exit_registered = ref false

let set_default_jobs jobs =
  let jobs = max 1 jobs in
  Mutex.lock default_mutex;
  (match !default_pool with
  | Some pool when pool.size <> jobs ->
      shutdown pool;
      default_pool := None
  | Some _ | None -> ());
  default_size := jobs;
  Mutex.unlock default_mutex

let default_jobs () = !default_size

let default () =
  Mutex.lock default_mutex;
  let pool =
    match !default_pool with
    | Some pool -> pool
    | None ->
        let pool = create ~domains:!default_size in
        default_pool := Some pool;
        if not !at_exit_registered then begin
          at_exit_registered := true;
          at_exit (fun () ->
              Mutex.lock default_mutex;
              let p = !default_pool in
              default_pool := None;
              Mutex.unlock default_mutex;
              match p with Some p -> shutdown p | None -> ())
        end;
        pool
  in
  Mutex.unlock default_mutex;
  pool

let ensure ~jobs =
  set_default_jobs jobs;
  default ()
