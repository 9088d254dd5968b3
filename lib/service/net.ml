module Metrics = Cap_obs.Metrics
module Clock = Cap_obs.Clock

(* ------------------------------------------------------------------ *)
(* Incremental line framing                                            *)

module Framer = struct
  type t = {
    buf : Buffer.t;
    bound : int;
    mutable seen : int;  (* bytes of the current line, buffered or not *)
    mutable over : bool;  (* current line already reported oversized *)
  }

  type event =
    | Line of string
    | Oversized of int

  let create ?(max_line_bytes = Proto.max_line_bytes) () =
    { buf = Buffer.create 128; bound = max_line_bytes; seen = 0; over = false }

  let pending t = Buffer.length t.buf

  let feed t chunk =
    let out = ref [] in
    String.iter
      (fun c ->
        if c = '\n' then begin
          if not t.over then out := Line (Buffer.contents t.buf) :: !out;
          Buffer.clear t.buf;
          t.seen <- 0;
          t.over <- false
        end
        else begin
          t.seen <- t.seen + 1;
          if t.seen <= t.bound then Buffer.add_char t.buf c
          else if not t.over then begin
            (* the bound is crossed mid-line: drop the payload now —
               waiting for a newline would buffer an attacker's stream *)
            t.over <- true;
            Buffer.clear t.buf;
            out := Oversized t.seen :: !out
          end
        end)
      chunk;
    List.rev !out
end

(* ------------------------------------------------------------------ *)
(* Token bucket                                                        *)

module Bucket = struct
  type t = {
    rate : float;
    burst : float;
    mutable tokens : float;
    mutable at : float;
  }

  let create ~rate ~burst ~now = { rate; burst; tokens = burst; at = now }

  let take b ~now =
    let dt = Float.max 0. (now -. b.at) in
    b.at <- now;
    b.tokens <- Float.min b.burst (b.tokens +. (dt *. b.rate));
    if b.tokens >= 1. then begin
      b.tokens <- b.tokens -. 1.;
      true
    end
    else false

  let level b = b.tokens
end

(* ------------------------------------------------------------------ *)
(* The injectable socket layer                                         *)

type read_result = [ `Data of int | `Eof | `Again | `Reset ]
type write_result = [ `Wrote of int | `Again | `Reset ]

type sock = {
  sock_id : int;
  sock_read : Bytes.t -> int -> int -> read_result;
  sock_write : string -> int -> int -> write_result;
  sock_close : unit -> unit;
}

type wait_result = {
  ready_accept : bool;
  ready_read : int list;
  ready_write : int list;
  wait_stalled : bool;
}

type backend = {
  bk_now : unit -> float;
  bk_accept : unit -> [ `Conn of sock | `Again ];
  bk_wait :
    timeout:float ->
    accept:bool ->
    read:int list ->
    write:int list ->
    wait_result;
}

let sigpipe_ignored =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let unix_backend ?(clock = Clock.now) ~listen () =
  Lazy.force sigpipe_ignored;
  Unix.set_nonblock listen;
  let next_id = ref 0 in
  let fds : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 16 in
  let accept () =
    match Unix.accept ~cloexec:true listen with
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
      ->
        `Again
    | fd, _ ->
        Unix.set_nonblock fd;
        incr next_id;
        let id = !next_id in
        Hashtbl.replace fds id fd;
        `Conn
          {
            sock_id = id;
            sock_read =
              (fun buf off len ->
                match Unix.read fd buf off len with
                | 0 -> `Eof
                | n -> `Data n
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                    `Again
                | exception Unix.Unix_error (_, _, _) -> `Reset);
            sock_write =
              (fun s off len ->
                match Unix.write_substring fd s off len with
                | n -> `Wrote n
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                    `Again
                | exception Unix.Unix_error (_, _, _) -> `Reset);
            sock_close =
              (fun () ->
                Hashtbl.remove fds id;
                try Unix.close fd with Unix.Unix_error _ -> ());
          }
  in
  let wait ~timeout ~accept:want_accept ~read ~write =
    let live ids = List.filter_map (fun id -> Hashtbl.find_opt fds id) ids in
    let rfds = (if want_accept then [ listen ] else []) @ live read in
    let wfds = live write in
    match Unix.select rfds wfds [] (Float.max 0. timeout) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        { ready_accept = false; ready_read = []; ready_write = []; wait_stalled = false }
    | r, w, _ ->
        let hit fdset id =
          match Hashtbl.find_opt fds id with
          | Some fd -> List.memq fd fdset
          | None -> false
        in
        {
          ready_accept = want_accept && List.memq listen r;
          ready_read = List.filter (hit r) read;
          ready_write = List.filter (hit w) write;
          wait_stalled = false;
        }
  in
  { bk_now = clock; bk_accept = accept; bk_wait = wait }

(* ------------------------------------------------------------------ *)
(* Reactor                                                             *)

type eviction = Idle | Slow | Oversized | Rate

let eviction_to_string = function
  | Idle -> "idle"
  | Slow -> "slow"
  | Oversized -> "oversized"
  | Rate -> "rate"

type close_reason =
  | Evicted of eviction
  | Rejected_busy
  | Peer_eof
  | Peer_reset
  | Shutdown

let close_reason_to_string = function
  | Evicted e -> "evicted:" ^ eviction_to_string e
  | Rejected_busy -> "busy"
  | Peer_eof -> "eof"
  | Peer_reset -> "reset"
  | Shutdown -> "shutdown"

type config = {
  max_conns : int;
  backlog : int;
  idle_timeout : float;
  max_write_buffer : int;
  max_events_per_sec : float option;
}

let default_config =
  {
    max_conns = 64;
    backlog = 64;
    idle_timeout = 30.;
    max_write_buffer = 1024 * 1024;
    max_events_per_sec = None;
  }

type stats = {
  accepted : int;
  busy_rejected : int;
  evictions : (eviction * int) list;
  peer_resets : int;
  max_concurrent : int;
}

let conns_active_gauge () =
  Metrics.Gauge.create ~help:"connections currently served by the reactor"
    "service/conns_active"

let evicted_counter reason =
  Metrics.Counter.create
    ~labels:[ ("reason", eviction_to_string reason) ]
    ~help:"connections evicted by the front-end, by typed reason"
    "service/conns_evicted_total"

let busy_counter () =
  Metrics.Counter.create
    ~help:"accepts shed with a busy line at the connection cap"
    "service/conns_busy_total"

let reset_counter () =
  Metrics.Counter.create ~help:"connections dropped by a peer reset"
    "service/conns_reset_total"

let accept_to_response_histogram () =
  Metrics.Histogram.create
    ~help:"accept(2) to first response line enqueued, seconds"
    "service/accept_to_response_seconds"

module Reactor = struct
  type conn = {
    c_id : int;
    c_sock : sock;
    c_framer : Framer.t;
    c_bucket : Bucket.t option;
    mutable c_deadline : float;
    c_out : string Queue.t;  (* response lines not yet fully written *)
    mutable c_woff : int;  (* written prefix of the queue head *)
    mutable c_wsize : int;  (* total unwritten bytes across the queue *)
    c_accepted : float;
    mutable c_responded : bool;
    mutable c_open : bool;
  }

  type t = {
    cfg : config;
    bk : backend;
    conns : (int, conn) Hashtbl.t;
    scratch : Bytes.t;
    mutable accepted : int;
    mutable busy_rejected : int;
    mutable ev_idle : int;
    mutable ev_slow : int;
    mutable ev_oversized : int;
    mutable ev_rate : int;
    mutable peer_resets : int;
    mutable max_concurrent : int;
    mutable closes : (int * close_reason) list;  (* newest first *)
    mutable stopping : bool;
  }

  let create ?(config = default_config) bk =
    {
      cfg = config;
      bk;
      conns = Hashtbl.create 16;
      scratch = Bytes.create 16384;
      accepted = 0;
      busy_rejected = 0;
      ev_idle = 0;
      ev_slow = 0;
      ev_oversized = 0;
      ev_rate = 0;
      peer_resets = 0;
      max_concurrent = 0;
      closes = [];
      stopping = false;
    }

  let active t = Hashtbl.length t.conns

  let stats t =
    {
      accepted = t.accepted;
      busy_rejected = t.busy_rejected;
      evictions =
        [ (Idle, t.ev_idle); (Slow, t.ev_slow); (Oversized, t.ev_oversized);
          (Rate, t.ev_rate) ];
      peer_resets = t.peer_resets;
      max_concurrent = t.max_concurrent;
    }

  let close_log t = List.rev t.closes

  let close t conn reason =
    if conn.c_open then begin
      conn.c_open <- false;
      Hashtbl.remove t.conns conn.c_id;
      conn.c_sock.sock_close ();
      t.closes <- (conn.c_id, reason) :: t.closes;
      (match reason with
      | Evicted Idle -> t.ev_idle <- t.ev_idle + 1
      | Evicted Slow -> t.ev_slow <- t.ev_slow + 1
      | Evicted Oversized -> t.ev_oversized <- t.ev_oversized + 1
      | Evicted Rate -> t.ev_rate <- t.ev_rate + 1
      | Peer_reset -> t.peer_resets <- t.peer_resets + 1
      | Rejected_busy | Peer_eof | Shutdown -> ());
      (match reason with
      | Evicted e -> Metrics.Counter.incr (evicted_counter e)
      | Peer_reset -> Metrics.Counter.incr (reset_counter ())
      | Rejected_busy | Peer_eof | Shutdown -> ());
      Metrics.Gauge.set (conns_active_gauge ())
        (float_of_int (Hashtbl.length t.conns))
    end

  (* Push queued bytes into the socket until it refuses. *)
  let flush_conn t conn =
    let rec go () =
      match Queue.peek_opt conn.c_out with
      | None -> `Flushed
      | Some s -> (
          let len = String.length s - conn.c_woff in
          match conn.c_sock.sock_write s conn.c_woff len with
          | `Wrote n ->
              conn.c_wsize <- conn.c_wsize - n;
              if n = len then begin
                ignore (Queue.pop conn.c_out : string);
                conn.c_woff <- 0;
                go ()
              end
              else begin
                conn.c_woff <- conn.c_woff + n;
                `Partial
              end
          | `Again -> `Partial
          | `Reset -> `Reset)
    in
    match go () with
    | `Reset -> close t conn Peer_reset
    | `Flushed | `Partial -> ()

  let send t id line =
    match Hashtbl.find_opt t.conns id with
    | None -> ()  (* the peer is gone; resume replay recovers *)
    | Some conn ->
        if not conn.c_responded then begin
          conn.c_responded <- true;
          Metrics.Histogram.observe
            (accept_to_response_histogram ())
            (Float.max 0. (t.bk.bk_now () -. conn.c_accepted))
        end;
        Queue.add (line ^ "\n") conn.c_out;
        conn.c_wsize <- conn.c_wsize + String.length line + 1

  let evict t conn reason =
    (* Best-effort goodbye: the oversized answer is worth one write
       attempt; a slow consumer's buffer is already full, so only the
       bytes it owes are tried. *)
    flush_conn t conn;
    close t conn (Evicted reason)

  let accept_pending t =
    let rec go () =
      match t.bk.bk_accept () with
      | `Again -> ()
      | `Conn sock ->
          if Hashtbl.length t.conns >= t.cfg.max_conns || t.stopping then begin
            (* shed: one busy line, then the door *)
            let line = Proto.format_response Proto.Busy ^ "\n" in
            (match sock.sock_write line 0 (String.length line) with
            | `Wrote _ | `Again | `Reset -> ());
            sock.sock_close ();
            t.busy_rejected <- t.busy_rejected + 1;
            Metrics.Counter.incr (busy_counter ());
            t.closes <- (sock.sock_id, Rejected_busy) :: t.closes;
            go ()
          end
          else begin
            let now = t.bk.bk_now () in
            let conn =
              {
                c_id = sock.sock_id;
                c_sock = sock;
                c_framer = Framer.create ();
                c_bucket =
                  Option.map
                    (fun rate ->
                      Bucket.create ~rate ~burst:(Float.max 1. rate) ~now)
                    t.cfg.max_events_per_sec;
                c_deadline = now +. t.cfg.idle_timeout;
                c_out = Queue.create ();
                c_woff = 0;
                c_wsize = 0;
                c_accepted = now;
                c_responded = false;
                c_open = true;
              }
            in
            Hashtbl.replace t.conns conn.c_id conn;
            t.accepted <- t.accepted + 1;
            t.max_concurrent <- max t.max_concurrent (Hashtbl.length t.conns);
            Metrics.Gauge.set (conns_active_gauge ())
              (float_of_int (Hashtbl.length t.conns));
            go ()
          end
    in
    go ()

  let handle_chunk t ~on_line conn chunk =
    List.iter
      (fun ev ->
        if conn.c_open && not t.stopping then
          match ev with
          | Framer.Oversized n ->
              send t conn.c_id
                (Proto.format_response
                   (Proto.Err (Proto.describe_parse_error (Proto.Oversized n))));
              evict t conn Oversized
          | Framer.Line line -> (
              let now = t.bk.bk_now () in
              conn.c_deadline <- now +. t.cfg.idle_timeout;
              match conn.c_bucket with
              | Some bucket when not (Bucket.take bucket ~now) ->
                  evict t conn Rate
              | _ -> (
                  match on_line t ~conn:conn.c_id line with
                  | `Continue -> ()
                  | `Stop -> t.stopping <- true)))
      (Framer.feed conn.c_framer chunk)

  let read_conn t ~on_line conn =
    let budget = ref (4 * Bytes.length t.scratch) in
    let continue = ref true in
    while !continue && conn.c_open && not t.stopping && !budget > 0 do
      match conn.c_sock.sock_read t.scratch 0 (Bytes.length t.scratch) with
      | `Data n ->
          budget := !budget - n;
          handle_chunk t ~on_line conn (Bytes.sub_string t.scratch 0 n)
      | `Again -> continue := false
      | `Eof ->
          (* a partial line at EOF is dropped, as the channel reader does *)
          close t conn Peer_eof;
          continue := false
      | `Reset ->
          close t conn Peer_reset;
          continue := false
    done

  let sorted_ids t =
    List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.conns [])

  let conns_with_output t =
    List.filter
      (fun id ->
        match Hashtbl.find_opt t.conns id with
        | Some c -> c.c_wsize > 0
        | None -> false)
      (sorted_ids t)

  (* Graceful shutdown: give pending response bytes one idle-timeout's
     worth of chances to land, then close everything. *)
  let drain t =
    let deadline = t.bk.bk_now () +. t.cfg.idle_timeout in
    let rec go () =
      List.iter
        (fun id ->
          match Hashtbl.find_opt t.conns id with
          | Some c -> flush_conn t c
          | None -> ())
        (conns_with_output t);
      let pending = conns_with_output t in
      let left = deadline -. t.bk.bk_now () in
      if pending <> [] && left > 0. then begin
        let r =
          t.bk.bk_wait ~timeout:(Float.min left t.cfg.idle_timeout)
            ~accept:false ~read:[] ~write:pending
        in
        if r.ready_write <> [] || not r.wait_stalled then go ()
      end
    in
    go ();
    List.iter
      (fun id ->
        match Hashtbl.find_opt t.conns id with
        | Some c -> close t c Shutdown
        | None -> ())
      (sorted_ids t)

  let poll_once t ~on_line =
    if t.stopping then begin
      drain t;
      `Stopped
    end
    else begin
      let now = t.bk.bk_now () in
      let timeout =
        Hashtbl.fold
          (fun _ c acc -> Float.min acc (c.c_deadline -. now))
          t.conns t.cfg.idle_timeout
        |> Float.max 0.
      in
      let r =
        t.bk.bk_wait ~timeout ~accept:true ~read:(sorted_ids t)
          ~write:(conns_with_output t)
      in
      if r.ready_accept then accept_pending t;
      List.iter
        (fun id ->
          match Hashtbl.find_opt t.conns id with
          | Some conn -> read_conn t ~on_line conn
          | None -> ())
        (List.sort compare r.ready_read);
      (* deadlines: only a completed line (above) pushes one out *)
      let now = t.bk.bk_now () in
      List.iter
        (fun id ->
          match Hashtbl.find_opt t.conns id with
          | Some conn when now >= conn.c_deadline -> evict t conn Idle
          | _ -> ())
        (sorted_ids t);
      (* flush everything owed, then apply the write-buffer bound *)
      List.iter
        (fun id ->
          match Hashtbl.find_opt t.conns id with
          | Some conn ->
              flush_conn t conn;
              if conn.c_open && conn.c_wsize > t.cfg.max_write_buffer then
                evict t conn Slow
          | None -> ())
        (conns_with_output t);
      if t.stopping then begin
        drain t;
        `Stopped
      end
      else if r.wait_stalled && not r.ready_accept && r.ready_read = [] then
        `Stalled
      else `Progress
    end

  let run t ~on_line =
    let rec go () =
      match poll_once t ~on_line with
      | `Progress -> go ()
      | `Stopped -> `Stopped
      | `Stalled -> `Stalled
    in
    go ()
end

(* ------------------------------------------------------------------ *)
(* Deterministic in-memory fabric                                      *)

module Sim = struct
  type step =
    | Send of string
    | Wait of float
    | Trickle of { data : string; interval : float }
    | Stall
    | Absorb
    | Reset
    | Close
    | Reconnect of float
    | Hello_resume

  type conn_state = {
    cs_id : int;
    cs_owner : peer;
    cs_to_server : (float * string) Queue.t;
    mutable cs_head : (float * string) option;  (* partially-read chunk *)
    cs_kernel : Buffer.t;  (* server output a stalled peer has not taken *)
    mutable cs_peer_closed : bool;
    mutable cs_reset : bool;
    mutable cs_server_closed : bool;
  }

  and peer = {
    p_name : string;
    p_sim : sim;
    mutable p_steps : step list;
    mutable p_at : float;  (* when the next unit of work fires *)
    mutable p_conn : conn_state option;
    mutable p_pending_connect : bool;
    mutable p_absorbing : bool;
    p_received : Buffer.t;
    p_line_tail : Buffer.t;  (* partial response line, for [numbered] *)
    mutable p_numbered : int;
    mutable p_ids : int list;  (* newest first *)
  }

  and sim = {
    mutable sim_now : float;
    sim_kernel_cap : int;
    sim_hello : string;
    mutable sim_peers : peer list;  (* oldest first *)
    sim_accept_q : conn_state Queue.t;
    sim_conns : (int, conn_state) Hashtbl.t;
    mutable sim_next_id : int;
    mutable sim_max_wait : float;
    mutable sim_max_latency : float;
  }

  type t = sim

  let create ?(kernel_buffer = 4096) ?(hello = "") () =
    {
      sim_now = 0.;
      sim_kernel_cap = kernel_buffer;
      sim_hello = hello;
      sim_peers = [];
      sim_accept_q = Queue.create ();
      sim_conns = Hashtbl.create 16;
      sim_next_id = 0;
      sim_max_wait = 0.;
      sim_max_latency = 0.;
    }

  let peer_name p = p.p_name
  let now t = t.sim_now
  let max_wait_requested t = t.sim_max_wait
  let max_read_latency t = t.sim_max_latency
  let received p = Buffer.contents p.p_received
  let numbered p = p.p_numbered
  let conn_ids p = List.rev p.p_ids

  let count_line p line =
    match Proto.parse_response line with
    | Ok (Proto.Err _ | Proto.Resume_ok _ | Proto.Busy) | Error _ -> ()
    | Ok _ -> p.p_numbered <- p.p_numbered + 1

  let absorb_bytes p s =
    Buffer.add_string p.p_received s;
    String.iter
      (fun c ->
        if c = '\n' then begin
          count_line p (Buffer.contents p.p_line_tail);
          Buffer.clear p.p_line_tail
        end
        else Buffer.add_char p.p_line_tail c)
      s

  let fresh_conn t p =
    t.sim_next_id <- t.sim_next_id + 1;
    let cs =
      {
        cs_id = t.sim_next_id;
        cs_owner = p;
        cs_to_server = Queue.create ();
        cs_head = None;
        cs_kernel = Buffer.create 256;
        cs_peer_closed = false;
        cs_reset = false;
        cs_server_closed = false;
      }
    in
    Hashtbl.replace t.sim_conns cs.cs_id cs;
    Queue.add cs t.sim_accept_q;
    p.p_conn <- Some cs;
    p.p_ids <- cs.cs_id :: p.p_ids;
    cs

  let add_peer t ?(at = 0.) ~name steps =
    let p =
      {
        p_name = name;
        p_sim = t;
        p_steps = steps;
        p_at = at;
        p_conn = None;
        p_pending_connect = true;
        p_absorbing = true;
        p_received = Buffer.create 256;
        p_line_tail = Buffer.create 64;
        p_numbered = 0;
        p_ids = [];
      }
    in
    t.sim_peers <- t.sim_peers @ [ p ];
    p

  let deliver p at s =
    match p.p_conn with
    | Some cs when (not cs.cs_reset) && not cs.cs_server_closed ->
        if s <> "" then Queue.add (at, s) cs.cs_to_server
    | _ -> ()

  let inject t p s = deliver p t.sim_now s

  (* Is the peer out of work (so it can never wake the sim again)? *)
  let peer_done p =
    p.p_steps = [] && not p.p_pending_connect

  (* Run one unit of the peer's program at time [p.p_at]. *)
  let exec_unit t p =
    let at = p.p_at in
    if p.p_pending_connect then begin
      p.p_pending_connect <- false;
      ignore (fresh_conn t p : conn_state)
    end
    else
      match p.p_steps with
      | [] -> ()
      | Send s :: rest ->
          deliver p at s;
          p.p_steps <- rest
      | Wait d :: rest ->
          p.p_at <- at +. d;
          p.p_steps <- rest
      | Trickle { data; interval } :: rest ->
          if data = "" then p.p_steps <- rest
          else begin
            deliver p at (String.make 1 data.[0]);
            let remainder = String.sub data 1 (String.length data - 1) in
            p.p_steps <-
              (if remainder = "" then rest
               else Trickle { data = remainder; interval } :: rest);
            p.p_at <- at +. interval
          end
      | Stall :: rest ->
          p.p_absorbing <- false;
          p.p_steps <- rest
      | Absorb :: rest ->
          p.p_absorbing <- true;
          (match p.p_conn with
          | Some cs when Buffer.length cs.cs_kernel > 0 ->
              absorb_bytes p (Buffer.contents cs.cs_kernel);
              Buffer.clear cs.cs_kernel
          | _ -> ());
          p.p_steps <- rest
      | Reset :: rest ->
          (match p.p_conn with
          | Some cs ->
              cs.cs_reset <- true;
              Queue.clear cs.cs_to_server;
              cs.cs_head <- None
          | None -> ());
          p.p_steps <- rest
      | Close :: rest ->
          (match p.p_conn with
          | Some cs -> cs.cs_peer_closed <- true
          | None -> ());
          p.p_steps <- rest
      | Reconnect d :: rest ->
          (match p.p_conn with
          | Some cs -> cs.cs_peer_closed <- true
          | None -> ());
          p.p_conn <- None;
          p.p_pending_connect <- true;
          p.p_at <- at +. d;
          p.p_steps <- rest
      | Hello_resume :: rest ->
          deliver p at (t.sim_hello ^ "\n");
          deliver p at (Proto.format_resume p.p_numbered ^ "\n");
          p.p_steps <- rest

  (* Execute every peer unit due at or before [sim_now], in peer
     creation order — the determinism contract. *)
  let run_due t =
    let progressed = ref true in
    while !progressed do
      progressed := false;
      List.iter
        (fun p ->
          while (not (peer_done p)) && p.p_at <= t.sim_now do
            exec_unit t p;
            progressed := true
          done)
        t.sim_peers
    done

  let next_event_time t =
    List.fold_left
      (fun acc p -> if peer_done p then acc else
          match acc with
          | None -> Some p.p_at
          | Some a -> Some (Float.min a p.p_at))
      None t.sim_peers

  let conn_readable cs =
    cs.cs_head <> None
    || not (Queue.is_empty cs.cs_to_server)
    || cs.cs_peer_closed || cs.cs_reset

  let conn_writable t cs =
    cs.cs_reset || cs.cs_server_closed || cs.cs_owner.p_absorbing
    || Buffer.length cs.cs_kernel < t.sim_kernel_cap

  let sock_of_conn t cs =
    let read buf off len =
      if cs.cs_reset then `Reset
      else begin
        let taken = ref 0 in
        let take_chunk (t0, s) =
          let n = min (len - !taken) (String.length s) in
          Bytes.blit_string s 0 buf (off + !taken) n;
          taken := !taken + n;
          t.sim_max_latency <- Float.max t.sim_max_latency (t.sim_now -. t0);
          if n < String.length s then
            cs.cs_head <- Some (t0, String.sub s n (String.length s - n))
          else cs.cs_head <- None
        in
        (match cs.cs_head with Some c -> take_chunk c | None -> ());
        while !taken < len && cs.cs_head = None
              && not (Queue.is_empty cs.cs_to_server) do
          take_chunk (Queue.pop cs.cs_to_server)
        done;
        if !taken > 0 then `Data !taken
        else if cs.cs_peer_closed then `Eof
        else `Again
      end
    in
    let write s off len =
      if cs.cs_reset then `Reset
      else begin
        let p = cs.cs_owner in
        let current =
          match p.p_conn with Some c -> c == cs | None -> false
        in
        if p.p_absorbing && current then begin
          absorb_bytes p (String.sub s off len);
          `Wrote len
        end
        else begin
          let room = t.sim_kernel_cap - Buffer.length cs.cs_kernel in
          if room <= 0 then `Again
          else begin
            let n = min room len in
            Buffer.add_substring cs.cs_kernel s off n;
            `Wrote n
          end
        end
      end
    in
    {
      sock_id = cs.cs_id;
      sock_read = read;
      sock_write = write;
      sock_close = (fun () -> cs.cs_server_closed <- true);
    }

  let backend t =
    let accept () =
      match Queue.pop t.sim_accept_q with
      | cs -> `Conn (sock_of_conn t cs)
      | exception Queue.Empty -> `Again
    in
    let wait ~timeout ~accept:want_accept ~read ~write =
      t.sim_max_wait <- Float.max t.sim_max_wait timeout;
      let target = t.sim_now +. Float.max 0. timeout in
      run_due t;
      let ready () =
        let find id = Hashtbl.find_opt t.sim_conns id in
        let rr =
          List.filter
            (fun id ->
              match find id with Some cs -> conn_readable cs | None -> false)
            read
        in
        let rw =
          List.filter
            (fun id ->
              match find id with Some cs -> conn_writable t cs | None -> false)
            write
        in
        let ra = want_accept && not (Queue.is_empty t.sim_accept_q) in
        (ra, rr, rw)
      in
      let rec go () =
        let ra, rr, rw = ready () in
        if ra || rr <> [] || rw <> [] then
          { ready_accept = ra; ready_read = rr; ready_write = rw;
            wait_stalled = false }
        else
          match next_event_time t with
          | Some te when te <= target ->
              t.sim_now <- Float.max t.sim_now te;
              run_due t;
              go ()
          | Some _ ->
              t.sim_now <- target;
              { ready_accept = false; ready_read = []; ready_write = [];
                wait_stalled = false }
          | None ->
              t.sim_now <- target;
              { ready_accept = false; ready_read = []; ready_write = [];
                wait_stalled = true }
      in
      go ()
    in
    { bk_now = (fun () -> t.sim_now); bk_accept = accept; bk_wait = wait }
end
