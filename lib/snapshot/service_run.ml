module Engine = Cap_service.Engine

type spec = {
  scenario : string;
  seed : int;
  max_inflight : int option;
  reopt_every : int;
  reopt_moves : int;
  world_fingerprint : string;
  wal_position : int;
  response_seq : int;
}

type t = {
  spec : spec;
  state : Engine.checkpoint;
}

let kind = "cap-service-run"

let of_engine ?(wal_position = 0) ?(response_seq = 0) ~scenario ~seed ~world
    (config : Engine.config) engine =
  {
    spec =
      {
        scenario;
        seed;
        max_inflight = config.Engine.max_inflight;
        reopt_every = config.Engine.reopt_every;
        reopt_moves = config.Engine.reopt_moves;
        world_fingerprint = Sim_run.fingerprint world;
        wal_position;
        response_seq;
      };
    state = Engine.checkpoint engine;
  }

let config t =
  {
    Engine.max_inflight = t.spec.max_inflight;
    reopt_every = t.spec.reopt_every;
    reopt_moves = t.spec.reopt_moves;
  }

let resume t =
  let { scenario; seed; world_fingerprint; _ } = t.spec in
  match Sim_run.check_world ~scenario ~seed ~fingerprint:world_fingerprint with
  | Error reason -> Error ("snapshot " ^ reason)
  | Ok (_, world) -> (
      match Engine.restore ~world (config t) t.state with
      | engine -> Ok (world, engine)
      | exception Invalid_argument reason -> Error reason)

let resume_session ?expect daemon_config t =
  let { scenario; seed; wal_position; response_seq; _ } = t.spec in
  match expect with
  | Some want when want <> scenario ->
      Error (Printf.sprintf "snapshot is for %s, --expect says %s" scenario want)
  | _ -> (
      match resume t with
      | Error _ as e -> e
      | Ok (world, engine) ->
          Ok
            ( world,
              Cap_service.Daemon.resume_session daemon_config ~engine ~scenario
                ~seed ~wal_records:wal_position ~response_seq ))

(* plain data only; Marshal raises at write time if a closure sneaks in *)
let save ?io ~path t =
  match Marshal.to_string t [] with
  | payload -> Envelope.write ?io ~path ~kind payload
  | exception Invalid_argument reason -> Error (Envelope.Io_error { path; reason })

let load ~path =
  match Envelope.read ~path ~kind with
  | Error _ as e -> e
  | Ok payload -> (
      match (Marshal.from_string payload 0 : t) with
      | t -> Ok t
      | exception Failure reason -> Error (Envelope.Invalid_payload { path; reason }))

let describe t =
  Printf.sprintf "serve of %s (seed %d): %d events, %d live clients" t.spec.scenario
    t.spec.seed
    (Engine.checkpoint_events t.state)
    (Engine.checkpoint_clients t.state)
