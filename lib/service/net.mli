(** Hardened multi-client network front-end for the daemon.

    {!Reactor} replaces the serial blocking accept loop: a
    [Unix.select]-driven event loop serving N concurrent connections
    against one shared {!Daemon.session}, with a per-connection state
    machine that a hostile peer cannot wedge:

    - {b read deadlines} — a connection that has not completed a
      request line within [idle_timeout] is evicted, whether it is
      silent or trickling bytes without a newline (slowloris defense:
      only a {e completed} line resets the deadline);
    - {b incremental framing} — {!Framer} enforces
      {!Proto.max_line_bytes} mid-read, so an unterminated line is
      detected (and evicted) the moment it crosses the bound, never
      buffered past it;
    - {b bounded write buffers} — responses queue per connection;
      a peer that stops reading while the daemon owes it bytes is
      evicted as a slow consumer once [max_write_buffer] is exceeded,
      instead of growing the heap or blocking the loop;
    - {b rate limiting} — an optional per-connection token bucket
      ([max_events_per_sec], burst of one second's budget) evicts
      flooders;
    - {b connection cap} — accepts past [max_conns] are shed with a
      one-line [busy] response and an immediate close, never queued.

    Every eviction is typed ({!eviction}) and counted — both in the
    reactor's own {!stats} and in the metrics registry
    ([service/conns_evicted_total{reason=...}], [service/conns_active],
    [service/accept_to_response_seconds]).

    The loop runs over an injectable {!backend} — records of closures
    in the style of {!Io}. {!unix_backend} is the real thing
    (non-blocking sockets + [Unix.select]); {!Sim} is a deterministic
    in-memory fabric with a simulated clock and scripted peers
    (partial reads and writes, EAGAIN storms via bounded kernel
    buffers, mid-line resets, stalled peers, byte-trickle schedules),
    so every eviction and deadline path is exercised without a real
    socket — the discipline {!Io.Mem} established for disk, applied
    to the wire. *)

(** {1 Incremental line framing} *)

module Framer : sig
  type t

  type event =
    | Line of string
        (** one complete request line, newline stripped (a trailing
            [\r] is left for {!Proto.parse_line} to strip) *)
    | Oversized of int
        (** the current line just crossed the byte bound without a
            newline; the payload is discarded, the length so far is
            reported. Emitted once per offending line, the moment the
            bound is crossed — not at the (possibly never-arriving)
            newline. *)

  val create : ?max_line_bytes:int -> unit -> t
  (** Default bound: {!Proto.max_line_bytes}. *)

  val feed : t -> string -> event list
  (** Consume one chunk of bytes (any split: single bytes, mid-CRLF,
      many lines at once) and return the completed events, in order.
      Never raises; never buffers more than the bound. *)

  val pending : t -> int
  (** Bytes currently buffered (always [<= max_line_bytes]). *)
end

(** {1 Token-bucket rate limiting} *)

module Bucket : sig
  type t

  val create : rate:float -> burst:float -> now:float -> t
  (** [rate] tokens per second, capacity [burst], starting full. *)

  val take : t -> now:float -> bool
  (** Refill by elapsed time, then spend one token; [false] means the
      bucket is exhausted (the caller evicts). *)

  val level : t -> float
end

(** {1 The injectable socket layer} *)

type read_result = [ `Data of int | `Eof | `Again | `Reset ]
type write_result = [ `Wrote of int | `Again | `Reset ]

type sock = {
  sock_id : int;  (** backend-assigned, unique for the backend's lifetime *)
  sock_read : Bytes.t -> int -> int -> read_result;
      (** [sock_read buf off len]: non-blocking read into [buf]. *)
  sock_write : string -> int -> int -> write_result;
      (** [sock_write s off len]: non-blocking write; may be short. *)
  sock_close : unit -> unit;
}

type wait_result = {
  ready_accept : bool;
  ready_read : int list;  (** subset of the requested read ids *)
  ready_write : int list;  (** subset of the requested write ids *)
  wait_stalled : bool;
      (** the backend knows nothing will {e ever} become ready (a
          drained simulation); real backends never set this *)
}

type backend = {
  bk_now : unit -> float;  (** the clock deadlines are measured on *)
  bk_accept : unit -> [ `Conn of sock | `Again ];
  bk_wait :
    timeout:float ->
    accept:bool ->
    read:int list ->
    write:int list ->
    wait_result;
      (** Block at most [timeout] seconds for readiness. The reactor
          never passes a timeout above its idle deadline — the proof
          obligation behind "the daemon never blocks past the
          deadline". *)
}

val unix_backend : ?clock:(unit -> float) -> listen:Unix.file_descr -> unit -> backend
(** The real backend: non-blocking accepted sockets multiplexed with
    [Unix.select]. [listen] must already be bound and listening.
    SIGPIPE is ignored (writes to dead peers surface as [`Reset]).
    Closing the listener stays with the caller. *)

(** {1 Reactor} *)

type eviction = Idle | Slow | Oversized | Rate

val eviction_to_string : eviction -> string
(** ["idle" | "slow" | "oversized" | "rate"] — the metric label values. *)

type close_reason =
  | Evicted of eviction
  | Rejected_busy  (** shed at the connection cap with a [busy] line *)
  | Peer_eof  (** orderly close from the peer *)
  | Peer_reset  (** connection reset / broken pipe *)
  | Shutdown  (** the daemon stopped (end-of-stream drain) *)

val close_reason_to_string : close_reason -> string

type config = {
  max_conns : int;  (** concurrent connections served; excess sheds [busy] *)
  backlog : int;  (** listen(2) backlog — used by callers when listening *)
  idle_timeout : float;  (** seconds without a completed line ⇒ eviction *)
  max_write_buffer : int;  (** pending response bytes ⇒ slow-consumer eviction *)
  max_events_per_sec : float option;  (** per-connection token bucket; [None] = off *)
}

val default_config : config
(** [max_conns = 64], [backlog = 64], [idle_timeout = 30.],
    [max_write_buffer = 1 MiB], [max_events_per_sec = None]. *)

type stats = {
  accepted : int;
  busy_rejected : int;
  evictions : (eviction * int) list;  (** in {!eviction} order, zeros included *)
  peer_resets : int;
  max_concurrent : int;
}

val accept_to_response_histogram : unit -> Cap_obs.Metrics.Histogram.t
(** The accept-to-first-response latency instrument (seconds), for
    reporting — what a newly connected client waits before the daemon
    first speaks. *)

module Reactor : sig
  type t

  val create : ?config:config -> backend -> t

  val send : t -> int -> string -> unit
  (** Enqueue one response line (newline appended) on a connection's
      write buffer. Unknown or closed connection ids are dropped
      silently — the peer is gone; resume replay is the recovery
      path. *)

  val stats : t -> stats

  val close_log : t -> (int * close_reason) list
  (** Every connection closed so far, oldest first. *)

  val poll_once :
    t ->
    on_line:(t -> conn:int -> string -> [ `Continue | `Stop ]) ->
    [ `Progress | `Stopped | `Stalled ]
  (** One wait + dispatch round: accept, read and frame, apply
      deadlines and buckets, flush writes, evict. [on_line] handles
      one completed request line (respond via {!send} — to any
      connection, not just [conn]). [`Stop] triggers a graceful
      shutdown: pending write buffers are drained (bounded by the
      idle timeout), then every connection closes with {!Shutdown}.
      [`Stalled] surfaces {!wait_result.wait_stalled}. *)

  val run :
    t ->
    on_line:(t -> conn:int -> string -> [ `Continue | `Stop ]) ->
    [ `Stopped | `Stalled ]
  (** {!poll_once} until stop or stall. *)
end

(** {1 Deterministic in-memory fabric} *)

module Sim : sig
  type t
  type peer

  (** One move in a peer's script. Steps run in order; [Send]-like
      steps take no simulated time, [Wait] and [Trickle] advance it. *)
  type step =
    | Send of string  (** deliver bytes to the server (partial line ok) *)
    | Wait of float
    | Trickle of { data : string; interval : float }
        (** one byte every [interval] seconds — the slowloris *)
    | Stall  (** stop consuming server output; its kernel buffer fills *)
    | Absorb  (** resume consuming (the default state) *)
    | Reset  (** RST: pending bytes dropped, reads and writes fail *)
    | Close  (** orderly FIN *)
    | Reconnect of float
        (** close, then appear as a fresh connection after the delay *)
    | Hello_resume
        (** send the sim's hello line plus [resume N], [N] = numbered
            responses this peer has consumed so far — the well-behaved
            reconnect handshake *)

  val create : ?kernel_buffer:int -> ?hello:string -> unit -> t
  (** [kernel_buffer] (default 4096) bounds the in-flight bytes a
      stalled peer can hold before server writes return [`Again].
      [hello] is the line {!Hello_resume} sends. *)

  val backend : t -> backend
  (** The injectable fabric; its clock starts at 0 and advances only
      inside [bk_wait]. *)

  val add_peer : t -> ?at:float -> name:string -> step list -> peer
  (** Schedule a peer that connects at [at] (default 0) and then runs
      its script. Peers execute in creation order at equal times. *)

  val inject : t -> peer -> string -> unit
  (** Deliver bytes on the peer's current connection immediately —
      for tests and benchmarks driving the reactor by hand. *)

  val received : peer -> string
  (** Every byte the peer has consumed off the wire, in order. *)

  val conn_ids : peer -> int list
  (** Backend ids of every connection the peer made, oldest first. *)

  val peer_name : peer -> string
  val now : t -> float

  val max_wait_requested : t -> float
  (** The largest [timeout] the reactor ever passed to [bk_wait] —
      the torture gate that the daemon never blocks past the
      deadline. *)

  val max_read_latency : t -> float
  (** Worst delivery-to-read delay across every byte the server
      consumed — how long a well-behaved request can sit unserved
      while adversaries misbehave. *)
end
