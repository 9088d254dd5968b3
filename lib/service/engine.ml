module World = Cap_model.World
module Assignment = Cap_model.Assignment
module Health = Cap_model.Health
module Traffic = Cap_model.Traffic
module Scenario = Cap_model.Scenario
module Incremental = Cap_core.Incremental

type config = {
  max_inflight : int option;
  reopt_every : int;
  reopt_moves : int;
}

let default_config = { max_inflight = None; reopt_every = 512; reopt_moves = 8 }

(* registry slot states *)
let st_free = 0
let st_live = 1
let st_shed = 2

type t = {
  base : World.t;  (* as generated; topology, sampler and initial clients *)
  config : config;
  health : Health.t;
  mutable serving : World.t;
      (* [base] with the health mask baked in: capacities, penalties.
         Clients are never read through it, so it is only rebuilt on
         control events, not per client event. *)
  (* dynamic client registry; the external id is the slot index *)
  mutable nodes : int array;
  mutable zones : int array;
  mutable contact : int array;  (* live slots only; server or unassigned *)
  mutable status : int array;
  mutable slots : int;  (* capacity of the arrays above *)
  mutable live : int;
  mutable shed : int;
  mutable unassigned_live : int;
  (* assignment state, delta-maintained *)
  targets : int array;  (* zone -> server | unassigned *)
  pop : int array;  (* zone -> live population *)
  loads : float array;  (* server -> bits/s, matches Assignment.server_loads *)
  members : (int, unit) Hashtbl.t array;  (* zone -> live slots *)
  relay : (int, int) Hashtbl.t array;  (* zone -> contact server -> relaying count *)
  dirty : (int, unit) Hashtbl.t;  (* zones touched since the last re-optimization *)
  inc_state : Incremental.state;
  (* counters *)
  mutable events : int;
  mutable sheds_total : int;
  mutable readmits_total : int;
  mutable reopts : int;
  mutable since_reopt : int;
  mutable stream_time : float;
}

let traffic t = t.base.World.scenario.Scenario.traffic
let delay_bound t = t.base.World.scenario.Scenario.delay_bound
let capacity t s = t.serving.World.capacities.(s)

let zr t p = Traffic.zone_rate (traffic t) ~population:p

let fw t p =
  if p <= 0 then 0. else Traffic.forwarding_rate (traffic t) ~zone_population:p

let mark_dirty t z = if not (Hashtbl.mem t.dirty z) then Hashtbl.add t.dirty z ()

let inc_relay t z s =
  let table = t.relay.(z) in
  Hashtbl.replace table s (1 + Option.value (Hashtbl.find_opt table s) ~default:0)

let dec_relay t z s =
  let table = t.relay.(z) in
  match Hashtbl.find_opt table s with
  | Some 1 -> Hashtbl.remove table s
  | Some n -> Hashtbl.replace table s (n - 1)
  | None -> ()

(* Re-home every relaying member of zone [z] whose contact is [s] back
   to the zone's target (a direct contact consumes no forwarding
   bandwidth, so it is always feasible). Per-member outcome is
   independent of iteration order. *)
let demote_relays t z s =
  let target = t.targets.(z) in
  let count = Option.value (Hashtbl.find_opt t.relay.(z) s) ~default:0 in
  if count > 0 then begin
    Hashtbl.iter
      (fun id () -> if t.contact.(id) = s then t.contact.(id) <- target)
      t.members.(z);
    t.loads.(s) <- t.loads.(s) -. (float_of_int count *. fw t t.pop.(z));
    Hashtbl.remove t.relay.(z) s
  end

(* Move zone [z]'s population from [old_pop] to [new_pop], updating
   the target's zone rate and every relay contact's forwarding rate
   (both depend on the population under the quadratic traffic model).
   Growth can push a relay contact over capacity; those relays are
   demoted to the direct target. *)
let apply_pop_delta t z ~old_pop ~new_pop =
  t.pop.(z) <- new_pop;
  let target = t.targets.(z) in
  if target <> Assignment.unassigned then
    t.loads.(target) <- t.loads.(target) +. (zr t new_pop -. zr t old_pop);
  let relay = t.relay.(z) in
  if Hashtbl.length relay > 0 then begin
    let dfw = fw t new_pop -. fw t old_pop in
    Hashtbl.iter
      (fun s count -> t.loads.(s) <- t.loads.(s) +. (float_of_int count *. dfw))
      relay;
    if new_pop > old_pop then begin
      let overflowed =
        Hashtbl.fold
          (fun s _ acc -> if t.loads.(s) > capacity t s then s :: acc else acc)
          relay []
      in
      List.iter (demote_relays t z) (List.sort compare overflowed)
    end
  end

let ensure_slot t id =
  if id >= t.slots then begin
    let slots = max (id + 1) (2 * t.slots) in
    let grow_int a fill =
      let b = Array.make slots fill in
      Array.blit a 0 b 0 t.slots;
      b
    in
    t.nodes <- grow_int t.nodes 0;
    t.zones <- grow_int t.zones 0;
    t.contact <- grow_int t.contact Assignment.unassigned;
    t.status <- grow_int t.status st_free;
    t.slots <- slots
  end

(* GreC's single-client rule: direct to the target within the bound,
   otherwise the feasible contact with the lowest refined cost, then
   the lowest relayed delay, then the lowest index; the target itself
   (no extra bandwidth) is always feasible. O(m). *)
let choose_contact t ~node ~target ~pop_new =
  let bound = delay_bound t in
  let d_target = World.node_server_rtt t.serving ~node ~server:target in
  if d_target <= bound then target
  else begin
    let fwr = fw t pop_new in
    let best = ref target in
    let best_cost = ref (Float.max 0. (d_target -. bound)) in
    let best_relayed = ref d_target in
    let servers = World.server_count t.serving in
    for s = 0 to servers - 1 do
      if s <> target && Health.is_alive t.health s && t.loads.(s) +. fwr <= capacity t s
      then begin
        let relayed =
          World.node_server_rtt t.serving ~node ~server:s
          +. World.server_server_rtt t.serving s target
        in
        if relayed < infinity then begin
          let cost = Float.max 0. (relayed -. bound) in
          if cost < !best_cost || (cost = !best_cost && relayed < !best_relayed) then begin
            best := s;
            best_cost := cost;
            best_relayed := relayed
          end
        end
      end
    done;
    !best
  end

(* Try to make slot [id] (node and zone already recorded, currently
   counted nowhere) a live, placed client. *)
type placement =
  | Placed of int
  | Zone_down
  | No_capacity

let try_place t id =
  let z = t.zones.(id) in
  let target = t.targets.(z) in
  mark_dirty t z;
  if target = Assignment.unassigned then Zone_down
  else begin
    let p = t.pop.(z) in
    let dz = zr t (p + 1) -. zr t p in
    if t.loads.(target) +. dz > capacity t target then No_capacity
    else begin
      apply_pop_delta t z ~old_pop:p ~new_pop:(p + 1);
      Hashtbl.replace t.members.(z) id ();
      t.status.(id) <- st_live;
      t.live <- t.live + 1;
      let contact = choose_contact t ~node:t.nodes.(id) ~target ~pop_new:(p + 1) in
      t.contact.(id) <- contact;
      if contact <> target then begin
        t.loads.(contact) <- t.loads.(contact) +. fw t (p + 1);
        inc_relay t z contact
      end;
      Placed contact
    end
  end

(* Admit into an unhosted zone: the client is live but sits in the
   explicit unassigned pool (consistent with the batch invariant that
   an unassigned zone has unassigned clients). *)
let admit_zone_down t id =
  let z = t.zones.(id) in
  apply_pop_delta t z ~old_pop:t.pop.(z) ~new_pop:(t.pop.(z) + 1);
  Hashtbl.replace t.members.(z) id ();
  t.status.(id) <- st_live;
  t.live <- t.live + 1;
  t.unassigned_live <- t.unassigned_live + 1;
  t.contact.(id) <- Assignment.unassigned

let shed_slot t id =
  t.status.(id) <- st_shed;
  t.shed <- t.shed + 1;
  t.sheds_total <- t.sheds_total + 1

let over_admission t =
  match t.config.max_inflight with None -> false | Some cap -> t.live >= cap

(* Remove a live slot's contributions (forwarding load, membership,
   population) without freeing the slot. *)
let remove_live t id =
  let z = t.zones.(id) in
  let p = t.pop.(z) in
  let target = t.targets.(z) in
  let contact = t.contact.(id) in
  if contact = Assignment.unassigned then
    t.unassigned_live <- t.unassigned_live - 1
  else if target <> Assignment.unassigned && contact <> target then begin
    t.loads.(contact) <- t.loads.(contact) -. fw t p;
    dec_relay t z contact
  end;
  Hashtbl.remove t.members.(z) id;
  t.contact.(id) <- Assignment.unassigned;
  apply_pop_delta t z ~old_pop:p ~new_pop:(p - 1);
  t.live <- t.live - 1;
  mark_dirty t z

(* ------------------------------------------------------------------ *)
(* Books rebuild (used by create, restore-from-reopt)                  *)

let rebuild_books t =
  Array.fill t.pop 0 (Array.length t.pop) 0;
  Array.fill t.loads 0 (Array.length t.loads) 0.;
  Array.iter Hashtbl.reset t.members;
  Array.iter Hashtbl.reset t.relay;
  t.live <- 0;
  t.shed <- 0;
  t.unassigned_live <- 0;
  for id = 0 to t.slots - 1 do
    if t.status.(id) = st_live then begin
      let z = t.zones.(id) in
      t.pop.(z) <- t.pop.(z) + 1;
      Hashtbl.replace t.members.(z) id ();
      t.live <- t.live + 1
    end
    else if t.status.(id) = st_shed then t.shed <- t.shed + 1
  done;
  Array.iteri
    (fun z target ->
      if target <> Assignment.unassigned then
        t.loads.(target) <- t.loads.(target) +. zr t t.pop.(z))
    t.targets;
  for id = 0 to t.slots - 1 do
    if t.status.(id) = st_live then begin
      let z = t.zones.(id) in
      let target = t.targets.(z) in
      let contact = t.contact.(id) in
      if contact = Assignment.unassigned then
        t.unassigned_live <- t.unassigned_live + 1
      else if target <> Assignment.unassigned && contact <> target then begin
        t.loads.(contact) <- t.loads.(contact) +. fw t t.pop.(z);
        inc_relay t z contact
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Materialisation and re-optimization                                 *)

let materialize t =
  let slots = Array.make t.live 0 in
  let cursor = ref 0 in
  for id = 0 to t.slots - 1 do
    if t.status.(id) = st_live then begin
      slots.(!cursor) <- id;
      incr cursor
    end
  done;
  let client_nodes = Array.map (fun id -> t.nodes.(id)) slots in
  let client_zones = Array.map (fun id -> t.zones.(id)) slots in
  let world = World.replace_clients t.base ~client_nodes ~client_zones in
  let world = if Health.is_pristine t.health then world else Health.apply t.health world in
  world, slots

let assignment t =
  let _, slots = materialize t in
  Assignment.make ~target_of_zone:t.targets
    ~contact_of_client:(Array.map (fun id -> t.contact.(id)) slots)

let reopts_span = "service/reopt"

let reopt t =
  Cap_obs.Span.with_span reopts_span @@ fun () ->
  t.reopts <- t.reopts + 1;
  t.since_reopt <- 0;
  let world, slots = materialize t in
  let contacts = Array.map (fun id -> t.contact.(id)) slots in
  let previous = Assignment.make ~target_of_zone:t.targets ~contact_of_client:contacts in
  let alive = Health.alive_mask t.health in
  let next, _migration =
    Incremental.refresh_with t.inc_state ~max_zone_moves:t.config.reopt_moves ~alive
      world ~previous
  in
  Array.blit next.Assignment.target_of_zone 0 t.targets 0 (Array.length t.targets);
  Array.iteri
    (fun i id -> t.contact.(id) <- next.Assignment.contact_of_client.(i))
    slots;
  rebuild_books t;
  Hashtbl.reset t.dirty;
  (* re-admission sweep over the shed pool, ascending ids: strict — a
     client leaves the pool only for a real placement *)
  let readmits = ref [] in
  for id = 0 to t.slots - 1 do
    if t.status.(id) = st_shed && not (over_admission t) then begin
      t.status.(id) <- st_free;
      t.shed <- t.shed - 1;
      match try_place t id with
      | Placed server ->
          t.readmits_total <- t.readmits_total + 1;
          readmits := Proto.Readmitted { id; server } :: !readmits
      | Zone_down | No_capacity ->
          t.status.(id) <- st_shed;
          t.shed <- t.shed + 1
    end
  done;
  List.rev !readmits

let maybe_reopt t =
  if
    t.config.reopt_every > 0
    && t.since_reopt >= t.config.reopt_every
  then
    if Hashtbl.length t.dirty > 0 || t.shed > 0 then reopt t
    else begin
      t.since_reopt <- 0;
      []
    end
  else []

(* ------------------------------------------------------------------ *)
(* Event handling                                                      *)

let rebuild_serving t =
  t.serving <-
    (if Health.is_pristine t.health then t.base else Health.apply t.health t.base)

let handle_join t ~id ~node ~zone =
  if t.status.(id) <> st_free then
    Proto.Err (Printf.sprintf "join %d: id already known" id)
  else if node < 0 || node >= World.node_count t.base then
    Proto.Err (Printf.sprintf "join %d: node %d out of range" id node)
  else if zone < 0 || zone >= World.zone_count t.base then
    Proto.Err (Printf.sprintf "join %d: zone %d out of range" id zone)
  else begin
    t.nodes.(id) <- node;
    t.zones.(id) <- zone;
    if over_admission t then begin
      shed_slot t id;
      Proto.Shed { id; reason = Proto.Admission }
    end
    else
      match try_place t id with
      | Placed server -> Proto.Assigned { id; server }
      | Zone_down ->
          admit_zone_down t id;
          t.sheds_total <- t.sheds_total + 1;
          Proto.Shed { id; reason = Proto.Zone_down }
      | No_capacity ->
          shed_slot t id;
          Proto.Shed { id; reason = Proto.Capacity }
  end

let handle_leave t ~id =
  if id < 0 || id >= t.slots || t.status.(id) = st_free then
    Proto.Err (Printf.sprintf "leave %d: unknown id" id)
  else begin
    if t.status.(id) = st_shed then t.shed <- t.shed - 1 else remove_live t id;
    t.status.(id) <- st_free;
    Proto.Left { id }
  end

let handle_move t ~id ~zone =
  if id < 0 || id >= t.slots || t.status.(id) = st_free then
    Proto.Err (Printf.sprintf "move %d: unknown id" id)
  else if zone < 0 || zone >= World.zone_count t.base then
    Proto.Err (Printf.sprintf "move %d: zone %d out of range" id zone)
  else begin
    (* leave-half (keeping the slot), then a join-half into the new
       zone; a mover displaced by capacity is shed, not dropped *)
    (if t.status.(id) = st_shed then begin
       t.status.(id) <- st_free;
       t.shed <- t.shed - 1
     end
     else begin
       remove_live t id;
       t.status.(id) <- st_free
     end);
    t.zones.(id) <- zone;
    if over_admission t then begin
      shed_slot t id;
      Proto.Shed { id; reason = Proto.Admission }
    end
    else
      match try_place t id with
      | Placed server -> Proto.Assigned { id; server }
      | Zone_down ->
          admit_zone_down t id;
          t.sheds_total <- t.sheds_total + 1;
          Proto.Shed { id; reason = Proto.Zone_down }
      | No_capacity ->
          shed_slot t id;
          Proto.Shed { id; reason = Proto.Capacity }
  end

let handle_ctrl t ctrl =
  let servers = World.server_count t.base in
  let apply_ok what =
    rebuild_serving t;
    (* every zone keyed on the changed server is stale; the refresh
       pass re-checks them all, so just force it now *)
    let readmits = reopt t in
    Proto.Ctrl_ok what :: readmits
  in
  match ctrl with
  | Proto.Crash s ->
      if s < 0 || s >= servers then Proto.[ Err (Printf.sprintf "crash: server %d out of range" s) ]
      else begin
        Health.crash t.health s;
        apply_ok (Printf.sprintf "crash %d" s)
      end
  | Proto.Recover s ->
      if s < 0 || s >= servers then
        Proto.[ Err (Printf.sprintf "recover: server %d out of range" s) ]
      else begin
        Health.recover t.health s;
        apply_ok (Printf.sprintf "recover %d" s)
      end
  | Proto.Degrade (s, ms) ->
      if s < 0 || s >= servers then
        Proto.[ Err (Printf.sprintf "degrade: server %d out of range" s) ]
      else if ms < 0. then Proto.[ Err "degrade: negative penalty" ]
      else begin
        Health.degrade t.health s ~delay_penalty:ms;
        apply_ok (Printf.sprintf "degrade %d" s)
      end

let handle t event =
  t.events <- t.events + 1;
  t.since_reopt <- t.since_reopt + 1;
  match event with
  | Proto.Ctrl ctrl -> handle_ctrl t ctrl
  | Proto.Join { id; node; zone } ->
      ensure_slot t id;
      handle_join t ~id ~node ~zone :: maybe_reopt t
  | Proto.Leave { id } -> handle_leave t ~id :: maybe_reopt t
  | Proto.Move { id; zone } -> handle_move t ~id ~zone :: maybe_reopt t

let note_time t at = if at > t.stream_time then t.stream_time <- at

let finalize t = reopt t

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let live_clients t = t.live
let shed_pool t = t.shed
let unassigned_live t = t.unassigned_live
let events_seen t = t.events
let sheds_total t = t.sheds_total
let readmits_total t = t.readmits_total
let reopts_total t = t.reopts
let dirty_zones t = Hashtbl.length t.dirty
let stream_time t = t.stream_time

let self_check t =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let world, slots = materialize t in
  let a =
    Assignment.make ~target_of_zone:t.targets
      ~contact_of_client:(Array.map (fun id -> t.contact.(id)) slots)
  in
  (* populations *)
  let pop = World.zone_population world in
  Array.iteri
    (fun z p -> if t.pop.(z) <> p then add "zone %d: tracked pop %d, world pop %d" z t.pop.(z) p)
    pop;
  (* loads, against the from-scratch recomputation *)
  let loads = Assignment.server_loads a world in
  Array.iteri
    (fun s load ->
      let tracked = t.loads.(s) in
      let scale = Float.max 1. (Float.max (Float.abs load) (Float.abs tracked)) in
      if Float.abs (load -. tracked) > 1e-6 *. scale then
        add "server %d: tracked load %.3f, recomputed %.3f" s tracked load)
    loads;
  (* structural, liveness, partition and capacity validity *)
  List.iter (fun v -> add "assignment: %s" v) (Assignment.violations ~health:t.health a world);
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let validate_config config =
  if config.reopt_every < 0 then invalid_arg "Engine: reopt_every must be >= 0";
  if config.reopt_moves < 0 then invalid_arg "Engine: reopt_moves must be >= 0";
  match config.max_inflight with
  | Some cap when cap < 0 -> invalid_arg "Engine: max_inflight must be >= 0"
  | Some _ | None -> ()

let create ~world ~assignment config =
  validate_config config;
  let zones = World.zone_count world in
  let servers = World.server_count world in
  let k0 = World.client_count world in
  if Array.length assignment.Assignment.target_of_zone <> zones then
    invalid_arg "Engine.create: assignment does not match the world's zones";
  if Array.length assignment.Assignment.contact_of_client <> k0 then
    invalid_arg "Engine.create: assignment does not match the world's clients";
  let slots = max 16 k0 in
  let t =
    {
      base = world;
      config;
      health = Health.create ~servers;
      serving = world;
      nodes = Array.make slots 0;
      zones = Array.make slots 0;
      contact = Array.make slots Assignment.unassigned;
      status = Array.make slots st_free;
      slots;
      live = 0;
      shed = 0;
      unassigned_live = 0;
      targets = Array.copy assignment.Assignment.target_of_zone;
      pop = Array.make zones 0;
      loads = Array.make servers 0.;
      members = Array.init zones (fun _ -> Hashtbl.create 16);
      relay = Array.init zones (fun _ -> Hashtbl.create 8);
      dirty = Hashtbl.create 64;
      inc_state = Incremental.make_state world;
      events = 0;
      sheds_total = 0;
      readmits_total = 0;
      reopts = 0;
      since_reopt = 0;
      stream_time = 0.;
    }
  in
  Array.blit world.World.client_nodes 0 t.nodes 0 k0;
  Array.blit world.World.client_zones 0 t.zones 0 k0;
  Array.blit assignment.Assignment.contact_of_client 0 t.contact 0 k0;
  Array.fill t.status 0 k0 st_live;
  rebuild_books t;
  t

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)

type checkpoint = {
  ck_scenario : string;
  ck_slots : int;
  ck_nodes : int array;
  ck_zones : int array;
  ck_contact : int array;
  ck_status : int array;
  ck_targets : int array;
  ck_pop : int array;
  ck_loads : float array;  (* verbatim, for bitwise-identical resume *)
  ck_relay : (int * int * int) array;  (* zone, contact server, count *)
  ck_alive : bool array;
  ck_penalty : float array;
  ck_live : int;
  ck_shed : int;
  ck_unassigned_live : int;
  ck_events : int;
  ck_sheds_total : int;
  ck_readmits_total : int;
  ck_reopts : int;
  ck_since_reopt : int;
  ck_stream_time : float;
  ck_dirty : int array;
}

let checkpoint t =
  let relay =
    Array.of_list
      (List.concat
         (List.init (Array.length t.relay) (fun z ->
              Hashtbl.fold (fun s count acc -> (z, s, count) :: acc) t.relay.(z) []
              |> List.sort compare)))
  in
  let dirty = Hashtbl.fold (fun z () acc -> z :: acc) t.dirty [] in
  {
    ck_scenario = Scenario.notation t.base.World.scenario;
    ck_slots = t.slots;
    ck_nodes = Array.copy t.nodes;
    ck_zones = Array.copy t.zones;
    ck_contact = Array.copy t.contact;
    ck_status = Array.copy t.status;
    ck_targets = Array.copy t.targets;
    ck_pop = Array.copy t.pop;
    ck_loads = Array.copy t.loads;
    ck_relay = relay;
    ck_alive = Health.alive_mask t.health;
    ck_penalty = Array.copy t.health.Health.delay_penalty;
    ck_live = t.live;
    ck_shed = t.shed;
    ck_unassigned_live = t.unassigned_live;
    ck_events = t.events;
    ck_sheds_total = t.sheds_total;
    ck_readmits_total = t.readmits_total;
    ck_reopts = t.reopts;
    ck_since_reopt = t.since_reopt;
    ck_stream_time = t.stream_time;
    ck_dirty = Array.of_list (List.sort compare dirty);
  }

let checkpoint_events ck = ck.ck_events
let checkpoint_clients ck = ck.ck_live

let fingerprint t =
  (* The checkpoint is canonical plain data (relay and dirty sets are
     sorted), so the digest is a faithful state fingerprint: two
     engines fingerprint equal iff a resumed run is bitwise on track. *)
  Digest.to_hex (Digest.string (Marshal.to_string (checkpoint t) []))

let restore ~world config ck =
  validate_config config;
  let zones = World.zone_count world in
  let servers = World.server_count world in
  if Array.length ck.ck_targets <> zones || Array.length ck.ck_loads <> servers then
    invalid_arg "Engine.restore: checkpoint does not match the world's shape";
  let health = Health.create ~servers in
  Array.iteri (fun s alive -> if not alive then Health.crash health s) ck.ck_alive;
  Array.iteri
    (fun s penalty ->
      if penalty > 0. then Health.degrade health s ~delay_penalty:penalty)
    ck.ck_penalty;
  let t =
    {
      base = world;
      config;
      health;
      serving = world;
      nodes = Array.copy ck.ck_nodes;
      zones = Array.copy ck.ck_zones;
      contact = Array.copy ck.ck_contact;
      status = Array.copy ck.ck_status;
      slots = ck.ck_slots;
      live = ck.ck_live;
      shed = ck.ck_shed;
      unassigned_live = ck.ck_unassigned_live;
      targets = Array.copy ck.ck_targets;
      pop = Array.copy ck.ck_pop;
      loads = Array.copy ck.ck_loads;
      members = Array.init zones (fun _ -> Hashtbl.create 16);
      relay = Array.init zones (fun _ -> Hashtbl.create 8);
      dirty = Hashtbl.create 64;
      inc_state = Incremental.make_state world;
      events = ck.ck_events;
      sheds_total = ck.ck_sheds_total;
      readmits_total = ck.ck_readmits_total;
      reopts = ck.ck_reopts;
      since_reopt = ck.ck_since_reopt;
      stream_time = ck.ck_stream_time;
    }
  in
  rebuild_serving t;
  (* membership and relay tables from the captured arrays; loads stay
     the captured values verbatim so the restored engine is
     bitwise-identical to the one that wrote the checkpoint *)
  for id = 0 to t.slots - 1 do
    if t.status.(id) = st_live then Hashtbl.replace t.members.(t.zones.(id)) id ()
  done;
  Array.iter (fun (z, s, count) -> Hashtbl.replace t.relay.(z) s count) ck.ck_relay;
  Array.iter (fun z -> Hashtbl.replace t.dirty z ()) ck.ck_dirty;
  t
