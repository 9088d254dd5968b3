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
}

let create ?(io = Io.real) ?session config ~path =
  let session =
    match session with Some s -> s | None -> Daemon.make_session config
  in
  match Wal.open_tailer ~io ~from:(Daemon.wal_records session) ~path () with
  | Error e -> Error (Wal.describe_read_error e)
  | Ok tailer -> Ok { session; path; io; tailer = Some tailer }

let session t = t.session
let records_applied t = Daemon.wal_records t.session

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

let promote t ~fsync_every ?segment_bytes () =
  match t.tailer with
  | None -> Error "follower: already promoted"
  | Some tailer -> (
      Wal.close_tailer tailer;
      t.tailer <- None;
      (* The tailer can outrun durability (page-cache bytes a power cut
         lost) and GC (ground it never saw): recovery refuses both. *)
      Daemon.recover ~io:t.io ~fsync_every ?segment_bytes t.session ~path:t.path
      |> Result.map_error Daemon.describe_recover_error)
