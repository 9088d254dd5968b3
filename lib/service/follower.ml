module Metrics = Cap_obs.Metrics

let lag_gauge () =
  Metrics.Gauge.create
    ~help:"records a follower applied in its latest poll (catch-up burst size)"
    "service/follower_lag_records"

type t = {
  session : Daemon.session;
  path : string;
  io : Io.t;
  mutable tailer : Wal.tailer option;
  mutable promoted : bool;
}

let create ?(io = Io.real) ?session config ~path =
  let session =
    match session with Some s -> s | None -> Daemon.make_session config
  in
  match Wal.open_tailer ~io ~from:(Daemon.wal_records session) ~path () with
  | Error e -> Error (Wal.describe_read_error e)
  | Ok tailer -> Ok { session; path; io; tailer = Some tailer; promoted = false }

let session t = t.session
let records_applied t = Daemon.wal_records t.session
let is_promoted t = t.promoted

let poll t =
  match t.tailer with
  | None -> Error "follower: already promoted"
  | Some tailer -> (
      match Wal.poll tailer with
      | Error e -> Error (Wal.describe_read_error e)
      | Ok [] -> Ok 0
      | Ok records -> (
          match Daemon.replay t.session records with
          | Error e -> Error e
          | Ok () ->
              let n = List.length records in
              Metrics.Gauge.set (lag_gauge ()) (float_of_int n);
              Ok n))

let catch_up t =
  let rec go total =
    match poll t with
    | Error _ as e -> e
    | Ok 0 -> Ok total
    | Ok n -> go (total + n)
  in
  go 0

let promote t ~fsync_every ?segment_bytes () =
  match t.tailer with
  | None -> Error "follower: already promoted"
  | Some tailer -> (
      Wal.close_tailer tailer;
      t.tailer <- None;
      (* The tailer can outrun durability (page-cache bytes a power cut
         lost) and GC (ground it never saw): recovery refuses both. *)
      match
        Daemon.recover ~io:t.io ~fsync_every ?segment_bytes t.session
          ~path:t.path
      with
      | Error e -> Error (Daemon.describe_recover_error e)
      | Ok caught_up ->
          t.promoted <- true;
          Ok caught_up)

let close t =
  Option.iter Wal.close_tailer t.tailer;
  t.tailer <- None
