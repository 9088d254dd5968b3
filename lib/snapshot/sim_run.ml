module World = Cap_model.World
module Delay = Cap_topology.Delay

type command = Sim | Chaos

type spec = {
  command : command;
  scenario : string;
  seed : int;
  algorithm : string;
  buckets : int option;
  duration : float;
  policy : Cap_sim.Policy.t;
  roam : bool;
  flash : Cap_sim.Dve_sim.flash_crowd option;
  diurnal_amplitude : float option;
  faults : Cap_faults.Fault.schedule;
  failover_moves : int;
  world_fingerprint : string;
}

type t = {
  spec : spec;
  state : Cap_sim.Dve_sim.checkpoint;
}

let kind = "dve-sim-run"

(* The diurnal split is the only RNG draw here, and only when diurnal
   modulation is on: callers run it after world generation (and after
   chaos's fault generators), exactly where the original run drew it. *)
let config spec rng world =
  let movement =
    if spec.roam then
      Cap_sim.Dve_sim.Roam (Cap_model.Zone_map.square_for ~zones:(World.zone_count world))
    else Cap_sim.Dve_sim.Teleport
  in
  let diurnal =
    Option.map
      (fun amplitude ->
        Cap_sim.Diurnal.random (Cap_util.Rng.split rng) ~regions:world.World.regions
          ~amplitude ())
      spec.diurnal_amplitude
  in
  {
    Cap_sim.Dve_sim.default_config with
    duration = spec.duration;
    policy = spec.policy;
    movement;
    flash_crowd = spec.flash;
    diurnal;
    faults = spec.faults;
    failover_moves = spec.failover_moves;
  }

let solver spec =
  match Cap_core.Two_phase.find spec.algorithm, spec.buckets with
  | None, _ -> Error (Printf.sprintf "algorithm %s is not known to this binary" spec.algorithm)
  | Some algorithm, None -> Ok algorithm
  | Some _, Some buckets -> Ok (Cap_core.Agg_solve.two_phase ~buckets ())

let fingerprint world =
  let buf = Buffer.create 4096 in
  let add_int i = Buffer.add_string buf (string_of_int i ^ ";") in
  (* %h is exact (hex float), so the hash sees full precision *)
  let add_float f = Buffer.add_string buf (Printf.sprintf "%h;" f) in
  Buffer.add_string buf (Cap_model.Scenario.notation world.World.scenario);
  Buffer.add_char buf '|';
  add_int world.World.regions;
  Array.iter add_int world.World.region_of_node;
  Array.iter add_int world.World.server_nodes;
  Array.iter add_float world.World.capacities;
  Array.iter add_int world.World.client_nodes;
  Array.iter add_int world.World.client_zones;
  (* delay structure probed through the server mesh: cheap, yet any
     topology or normalisation change disturbs it *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b -> add_float (Delay.rtt world.World.delay a b))
        world.World.server_nodes)
    world.World.server_nodes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let check_world ~scenario ~seed ~fingerprint:recorded =
  match Cap_model.Validate.scenario_notation scenario with
  | Error issue ->
      Error (Printf.sprintf "scenario %s: %s" scenario (Cap_model.Validate.describe issue))
  | Ok parsed ->
      let rng = Cap_util.Rng.create ~seed in
      let world = World.generate rng parsed in
      let found = fingerprint world in
      if found = recorded then Ok (rng, world)
      else
        Error
          (Printf.sprintf
             "world %s (seed %d): fingerprint mismatch (snapshot %s, regenerated %s; \
              written by a different build?)"
             scenario seed recorded found)

(* The payload is marshalled without [Closures]: every field is plain
   data, and Marshal raises at write time if a closure ever sneaks into
   the checkpoint, which would break resume across processes. *)
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
  Printf.sprintf "%s of %s (seed %d, algorithm %s): t=%.1fs, %d clients"
    (match t.spec.command with Sim -> "sim" | Chaos -> "chaos")
    t.spec.scenario t.spec.seed t.spec.algorithm
    (Cap_sim.Dve_sim.checkpoint_time t.state)
    (Cap_sim.Dve_sim.checkpoint_clients t.state)
