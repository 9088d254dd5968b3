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

let resume ~world t =
  let found = Sim_run.fingerprint world in
  if found <> t.spec.world_fingerprint then
    Error
      (Printf.sprintf
         "world fingerprint mismatch (snapshot %s, regenerated %s): refusing to \
          resume against a different world"
         t.spec.world_fingerprint found)
  else
    match Engine.restore ~world (config t) t.state with
    | engine -> Ok engine
    | exception Invalid_argument reason -> Error reason

let resume_session ?expect daemon_config t =
  let { scenario; seed; wal_position; response_seq; _ } = t.spec in
  match expect with
  | Some want when want <> scenario ->
      Error (Printf.sprintf "snapshot is for %s, --expect says %s" scenario want)
  | _ -> (
      match Cap_model.Validate.scenario_notation scenario with
      | Error issue ->
          Error ("snapshot scenario: " ^ Cap_model.Validate.describe issue)
      | Ok parsed -> (
          let world =
            Cap_model.World.generate (Cap_util.Rng.create ~seed) parsed
          in
          match resume ~world t with
          | Error _ as e -> e
          | Ok engine ->
              Ok
                ( world,
                  Cap_service.Daemon.resume_session daemon_config ~engine
                    ~scenario ~seed ~wal_records:wal_position ~response_seq )))

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
