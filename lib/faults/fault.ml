module Rng = Cap_util.Rng

type event =
  | Crash of int
  | Recover of int
  | Degrade of { server : int; delay_penalty : float }
  | Link_cut of { s1 : int; s2 : int }
  | Link_restore of { s1 : int; s2 : int }
  | Link_degrade of { s1 : int; s2 : int; delay_penalty : float }

type timed = {
  at : float;
  event : event;
}

type schedule = timed list

let server_of = function
  | Crash s | Recover s | Degrade { server = s; _ } -> s
  | Link_cut _ | Link_restore _ | Link_degrade _ ->
      invalid_arg "Fault.server_of: link event has two endpoints"

let servers_of = function
  | Crash s | Recover s | Degrade { server = s; _ } -> [ s ]
  | Link_cut { s1; s2 } | Link_restore { s1; s2 } | Link_degrade { s1; s2; _ }
    -> [ s1; s2 ]

let describe_event = function
  | Crash s -> Printf.sprintf "crash(s%d)" s
  | Recover s -> Printf.sprintf "recover(s%d)" s
  | Degrade { server; delay_penalty } ->
      Printf.sprintf "degrade(s%d,+%gms)" server delay_penalty
  | Link_cut { s1; s2 } -> Printf.sprintf "cut(s%d-s%d)" s1 s2
  | Link_restore { s1; s2 } -> Printf.sprintf "restore(s%d-s%d)" s1 s2
  | Link_degrade { s1; s2; delay_penalty } ->
      Printf.sprintf "degrade(s%d-s%d,+%gms)" s1 s2 delay_penalty

let describe schedule =
  match schedule with
  | [] -> "no faults"
  | events ->
      String.concat ", "
        (List.map (fun { at; event } -> Printf.sprintf "%g:%s" at (describe_event event)) events)

let validate ~servers schedule =
  List.iter
    (fun { at; event } ->
      if at < 0. || Float.is_nan at then
        invalid_arg "Fault.validate: event scheduled at a negative time";
      List.iter
        (fun s ->
          if s < 0 || s >= servers then
            invalid_arg
              (Printf.sprintf "Fault.validate: server %d out of range" s))
        (servers_of event);
      (match event with
      | Link_cut { s1; s2 } | Link_restore { s1; s2 } | Link_degrade { s1; s2; _ }
        ->
          if s1 = s2 then
            invalid_arg "Fault.validate: link endpoints must differ"
      | Crash _ | Recover _ | Degrade _ -> ());
      match event with
      | Degrade { delay_penalty; _ } | Link_degrade { delay_penalty; _ } ->
          if delay_penalty <= 0. || Float.is_nan delay_penalty then
            invalid_arg "Fault.validate: degrade penalty must be positive"
      | Crash _ | Recover _ | Link_cut _ | Link_restore _ -> ())
    schedule;
  List.stable_sort (fun a b -> compare a.at b.at) schedule

let crash_count schedule =
  List.length (List.filter (fun { event; _ } -> match event with Crash _ -> true | _ -> false) schedule)

let link_cut_count schedule =
  List.length
    (List.filter
       (fun { event; _ } -> match event with Link_cut _ -> true | _ -> false)
       schedule)

(* ------------------------------------------------------------------ *)
(* generators                                                          *)

(* Per-server alternating renewal process: up for Exp(1/mtbf), down
   for Exp(1/mttr), repeated over [0, duration). Deterministic in the
   generator's stream: server order is fixed and each server gets its
   own split stream, so one server's draw count never shifts
   another's. *)
let poisson rng ~servers ~mtbf ~mttr ~duration =
  if servers <= 0 then invalid_arg "Fault.poisson: servers must be positive";
  if mtbf <= 0. then invalid_arg "Fault.poisson: mtbf must be positive";
  if mttr <= 0. then invalid_arg "Fault.poisson: mttr must be positive";
  if duration <= 0. then invalid_arg "Fault.poisson: duration must be positive";
  let events = ref [] in
  for s = 0 to servers - 1 do
    let stream = Rng.split rng in
    let t = ref (Rng.exponential stream ~rate:(1. /. mtbf)) in
    let continue = ref true in
    while !continue && !t < duration do
      events := { at = !t; event = Crash s } :: !events;
      let downtime = Rng.exponential stream ~rate:(1. /. mttr) in
      let back = !t +. downtime in
      if back < duration then begin
        events := { at = back; event = Recover s } :: !events;
        t := back +. Rng.exponential stream ~rate:(1. /. mtbf)
      end
      else continue := false
    done
  done;
  validate ~servers (List.rev !events)

(* A correlated regional outage: every server of the region goes down
   at [at] and comes back [downtime] later, each with a small jitter so
   the failure looks like a cascading rack/AZ loss rather than one
   atomic instant. *)
let regional_outage rng ~region_of_server ~region ~at ~downtime ?(jitter = 0.) () =
  if at < 0. then invalid_arg "Fault.regional_outage: negative start time";
  if downtime <= 0. then invalid_arg "Fault.regional_outage: downtime must be positive";
  if jitter < 0. then invalid_arg "Fault.regional_outage: negative jitter";
  let servers = Array.length region_of_server in
  let events = ref [] in
  Array.iteri
    (fun s r ->
      if r = region then begin
        let delta () = if jitter = 0. then 0. else Rng.float rng jitter in
        let down_at = at +. delta () in
        events :=
          { at = down_at +. downtime; event = Recover s }
          :: { at = down_at; event = Crash s }
          :: !events
      end)
    region_of_server;
  validate ~servers (List.rev !events)

(* Gilbert-Elliott-style per-link flapping: each undirected link is an
   independent two-state chain — good (up) with mean sojourn [mtbf],
   bad (cut) with mean sojourn [mttr] — sampled as an alternating
   renewal process over [0, duration). Links are visited in a fixed
   (s1 < s2) order and each gets its own split stream, so one link's
   draw count never shifts another's. *)
let link_flapping rng ~servers ~mtbf ~mttr ~duration =
  if servers <= 1 then
    invalid_arg "Fault.link_flapping: need at least two servers";
  if mtbf <= 0. then invalid_arg "Fault.link_flapping: mtbf must be positive";
  if mttr <= 0. then invalid_arg "Fault.link_flapping: mttr must be positive";
  if duration <= 0. then
    invalid_arg "Fault.link_flapping: duration must be positive";
  let events = ref [] in
  for s1 = 0 to servers - 1 do
    for s2 = s1 + 1 to servers - 1 do
      let stream = Rng.split rng in
      let t = ref (Rng.exponential stream ~rate:(1. /. mtbf)) in
      let continue = ref true in
      while !continue && !t < duration do
        events := { at = !t; event = Link_cut { s1; s2 } } :: !events;
        let downtime = Rng.exponential stream ~rate:(1. /. mttr) in
        let back = !t +. downtime in
        if back < duration then begin
          events := { at = back; event = Link_restore { s1; s2 } } :: !events;
          t := back +. Rng.exponential stream ~rate:(1. /. mtbf)
        end
        else continue := false
      done
    done
  done;
  validate ~servers (List.rev !events)

(* Split the mesh into named groups at [at] by cutting every link that
   crosses a group boundary; servers not named in any group form one
   implicit extra group. With [heal_after], every cut link is restored
   [heal_after] seconds later. *)
let partition ~servers ~groups ~at ?heal_after () =
  if at < 0. || Float.is_nan at then
    invalid_arg "Fault.partition: negative start time";
  (match heal_after with
  | Some h when h <= 0. || Float.is_nan h ->
      invalid_arg "Fault.partition: heal_after must be positive"
  | _ -> ());
  let group_of = Array.make servers (-1) in
  Array.iteri
    (fun g members ->
      Array.iter
        (fun s ->
          if s < 0 || s >= servers then
            invalid_arg
              (Printf.sprintf "Fault.partition: server %d out of range" s);
          if group_of.(s) >= 0 then
            invalid_arg
              (Printf.sprintf "Fault.partition: server %d listed twice" s);
          group_of.(s) <- g)
        members)
    groups;
  (* The implicit remainder group. *)
  let rest = Array.length groups in
  Array.iteri (fun s g -> if g < 0 then group_of.(s) <- rest) group_of;
  let cuts = ref [] in
  for s1 = 0 to servers - 1 do
    for s2 = s1 + 1 to servers - 1 do
      if group_of.(s1) <> group_of.(s2) then cuts := (s1, s2) :: !cuts
    done
  done;
  let events =
    List.concat_map
      (fun (s1, s2) ->
        { at; event = Link_cut { s1; s2 } }
        ::
        (match heal_after with
        | None -> []
        | Some h -> [ { at = at +. h; event = Link_restore { s1; s2 } } ]))
      (List.rev !cuts)
  in
  validate ~servers events

let merge schedules =
  List.stable_sort (fun a b -> compare a.at b.at) (List.concat schedules)

let invariant_violations_total =
  Cap_obs.Metrics.Counter.create "faults_invariant_violations_total"
    ~help:"Post-event invariant violations detected during chaos runs"
