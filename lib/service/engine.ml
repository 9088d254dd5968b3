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

(* Everything the engine changes between events, as plain data: the
   client registry, the assignment with its delta-maintained books, the
   health mask and the counters. The loads are running sums that a
   recomputation would not reproduce bit for bit, so nothing here is
   re-derived on restore: a checkpoint is a deep copy of this record,
   and a field added here is checkpointed with no other edit. *)
type state = {
  health : Health.t;
  (* dynamic client registry; the external id is the slot index *)
  mutable nodes : int array;
  mutable zones : int array;
  mutable contact : int array;  (* live slots only; server or unassigned *)
  mutable status : int array;
  mutable live : int;
  mutable shed : int;
  (* assignment state, delta-maintained *)
  targets : int array;  (* zone -> server | unassigned *)
  pop : int array;  (* zone -> live population *)
  loads : float array;  (* server -> bits/s, matches Assignment.server_loads *)
  members : (int, unit) Hashtbl.t array;  (* zone -> live slots *)
  relay : (int, int) Hashtbl.t array;  (* zone -> contact server -> relaying count *)
  mutable dirty : bool;  (* a zone was touched since the last re-optimization *)
  (* counters *)
  mutable events : int;
  mutable sheds_total : int;
  mutable readmits_total : int;
  mutable reopts : int;
  mutable since_reopt : int;
  mutable stream_time : float;
}

(* The state plus what is rebuilt from the world it runs on. *)
type t = {
  base : World.t;  (* as generated; topology, sampler and initial clients *)
  config : config;
  inc_state : Incremental.state;
  mutable serving : World.t;
      (* [base] with the health mask baked in: capacities, penalties.
         Clients are never read through it, so it is only rebuilt on
         control events, not per client event. *)
  st : state;
}

let traffic t = t.base.World.scenario.Scenario.traffic
let delay_bound t = t.base.World.scenario.Scenario.delay_bound
let capacity t s = t.serving.World.capacities.(s)

let zr t p = Traffic.zone_rate (traffic t) ~population:p

let fw t p =
  if p <= 0 then 0. else Traffic.forwarding_rate (traffic t) ~zone_population:p

let inc_relay st z s =
  let table = st.relay.(z) in
  Hashtbl.replace table s (1 + Option.value (Hashtbl.find_opt table s) ~default:0)

let dec_relay st z s =
  let table = st.relay.(z) in
  match Hashtbl.find_opt table s with
  | Some 1 -> Hashtbl.remove table s
  | Some n -> Hashtbl.replace table s (n - 1)
  | None -> ()

(* Re-home every relaying member of zone [z] whose contact is [s] back
   to the zone's target (a direct contact consumes no forwarding
   bandwidth, so it is always feasible). Per-member outcome is
   independent of iteration order. *)
let demote_relays t z s =
  let st = t.st in
  let target = st.targets.(z) in
  let count = Option.value (Hashtbl.find_opt st.relay.(z) s) ~default:0 in
  if count > 0 then begin
    Hashtbl.iter
      (fun id () -> if st.contact.(id) = s then st.contact.(id) <- target)
      st.members.(z);
    st.loads.(s) <- st.loads.(s) -. (float_of_int count *. fw t st.pop.(z));
    Hashtbl.remove st.relay.(z) s
  end

(* Move zone [z]'s population from [old_pop] to [new_pop], updating
   the target's zone rate and every relay contact's forwarding rate
   (both depend on the population under the quadratic traffic model).
   Growth can push a relay contact over capacity; those relays are
   demoted to the direct target. *)
let apply_pop_delta t z ~old_pop ~new_pop =
  let st = t.st in
  st.pop.(z) <- new_pop;
  let target = st.targets.(z) in
  if target <> Assignment.unassigned then
    st.loads.(target) <- st.loads.(target) +. (zr t new_pop -. zr t old_pop);
  let relay = st.relay.(z) in
  if Hashtbl.length relay > 0 then begin
    let dfw = fw t new_pop -. fw t old_pop in
    Hashtbl.iter
      (fun s count -> st.loads.(s) <- st.loads.(s) +. (float_of_int count *. dfw))
      relay;
    if new_pop > old_pop then begin
      let overflowed =
        Hashtbl.fold
          (fun s _ acc -> if st.loads.(s) > capacity t s then s :: acc else acc)
          relay []
      in
      List.iter (demote_relays t z) (List.sort compare overflowed)
    end
  end

let slot_count st = Array.length st.status

let ensure_slot st id =
  let n = slot_count st in
  if id >= n then begin
    let grow_int a fill =
      let b = Array.make (max (id + 1) (2 * n)) fill in
      Array.blit a 0 b 0 n;
      b
    in
    st.nodes <- grow_int st.nodes 0;
    st.zones <- grow_int st.zones 0;
    st.contact <- grow_int st.contact Assignment.unassigned;
    st.status <- grow_int st.status st_free
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
    let health = t.st.health and loads = t.st.loads in
    let best = ref target in
    let best_cost = ref (Float.max 0. (d_target -. bound)) in
    let best_relayed = ref d_target in
    let servers = World.server_count t.serving in
    for s = 0 to servers - 1 do
      if s <> target && Health.is_alive health s && loads.(s) +. fwr <= capacity t s
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
  let st = t.st in
  let z = st.zones.(id) in
  let target = st.targets.(z) in
  st.dirty <- true;
  if target = Assignment.unassigned then Zone_down
  else begin
    let p = st.pop.(z) in
    let dz = zr t (p + 1) -. zr t p in
    if st.loads.(target) +. dz > capacity t target then No_capacity
    else begin
      apply_pop_delta t z ~old_pop:p ~new_pop:(p + 1);
      Hashtbl.replace st.members.(z) id ();
      st.status.(id) <- st_live;
      st.live <- st.live + 1;
      let contact = choose_contact t ~node:st.nodes.(id) ~target ~pop_new:(p + 1) in
      st.contact.(id) <- contact;
      if contact <> target then begin
        st.loads.(contact) <- st.loads.(contact) +. fw t (p + 1);
        inc_relay st z contact
      end;
      Placed contact
    end
  end

(* Admit into an unhosted zone: the client is live but sits in the
   explicit unassigned pool (consistent with the batch invariant that
   an unassigned zone has unassigned clients). *)
let admit_zone_down t id =
  let st = t.st in
  let z = st.zones.(id) in
  apply_pop_delta t z ~old_pop:st.pop.(z) ~new_pop:(st.pop.(z) + 1);
  Hashtbl.replace st.members.(z) id ();
  st.status.(id) <- st_live;
  st.live <- st.live + 1;
  st.contact.(id) <- Assignment.unassigned

let shed_slot st id =
  st.status.(id) <- st_shed;
  st.shed <- st.shed + 1;
  st.sheds_total <- st.sheds_total + 1

let over_admission t =
  match t.config.max_inflight with None -> false | Some cap -> t.st.live >= cap

(* Remove a live slot's contributions (forwarding load, membership,
   population) without freeing the slot. *)
let remove_live t id =
  let st = t.st in
  let z = st.zones.(id) in
  let p = st.pop.(z) in
  let target = st.targets.(z) in
  let contact = st.contact.(id) in
  if target <> Assignment.unassigned && contact <> Assignment.unassigned && contact <> target
  then begin
    st.loads.(contact) <- st.loads.(contact) -. fw t p;
    dec_relay st z contact
  end;
  Hashtbl.remove st.members.(z) id;
  st.contact.(id) <- Assignment.unassigned;
  apply_pop_delta t z ~old_pop:p ~new_pop:(p - 1);
  st.live <- st.live - 1;
  st.dirty <- true

(* ------------------------------------------------------------------ *)
(* Books rebuild (used by create and after every re-optimization)      *)

let rebuild_books t =
  let st = t.st in
  Array.fill st.pop 0 (Array.length st.pop) 0;
  Array.fill st.loads 0 (Array.length st.loads) 0.;
  Array.iter Hashtbl.reset st.members;
  Array.iter Hashtbl.reset st.relay;
  st.live <- 0;
  st.shed <- 0;
  for id = 0 to slot_count st - 1 do
    if st.status.(id) = st_live then begin
      let z = st.zones.(id) in
      st.pop.(z) <- st.pop.(z) + 1;
      Hashtbl.replace st.members.(z) id ();
      st.live <- st.live + 1
    end
    else if st.status.(id) = st_shed then st.shed <- st.shed + 1
  done;
  Array.iteri
    (fun z target ->
      if target <> Assignment.unassigned then
        st.loads.(target) <- st.loads.(target) +. zr t st.pop.(z))
    st.targets;
  for id = 0 to slot_count st - 1 do
    if st.status.(id) = st_live then begin
      let z = st.zones.(id) in
      let target = st.targets.(z) in
      let contact = st.contact.(id) in
      if
        target <> Assignment.unassigned
        && contact <> Assignment.unassigned
        && contact <> target
      then begin
        st.loads.(contact) <- st.loads.(contact) +. fw t st.pop.(z);
        inc_relay st z contact
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Materialisation and re-optimization                                 *)

let materialize t =
  let st = t.st in
  let slots = Array.make st.live 0 in
  let cursor = ref 0 in
  for id = 0 to slot_count st - 1 do
    if st.status.(id) = st_live then begin
      slots.(!cursor) <- id;
      incr cursor
    end
  done;
  let client_nodes = Array.map (fun id -> st.nodes.(id)) slots in
  let client_zones = Array.map (fun id -> st.zones.(id)) slots in
  let world = World.replace_clients t.base ~client_nodes ~client_zones in
  let world = if Health.is_pristine st.health then world else Health.apply st.health world in
  world, slots

let assignment_of t slots =
  Assignment.make ~target_of_zone:t.st.targets
    ~contact_of_client:(Array.map (fun id -> t.st.contact.(id)) slots)

let assignment t = assignment_of t (snd (materialize t))

let reopts_span = "service/reopt"

let reopt t =
  Cap_obs.Span.with_span reopts_span @@ fun () ->
  let st = t.st in
  st.reopts <- st.reopts + 1;
  st.since_reopt <- 0;
  let world, slots = materialize t in
  let previous = assignment_of t slots in
  let alive = Health.alive_mask st.health in
  let next, _migration =
    Incremental.refresh_with t.inc_state ~max_zone_moves:t.config.reopt_moves ~alive
      world ~previous
  in
  Array.blit next.Assignment.target_of_zone 0 st.targets 0 (Array.length st.targets);
  Array.iteri
    (fun i id -> st.contact.(id) <- next.Assignment.contact_of_client.(i))
    slots;
  rebuild_books t;
  st.dirty <- false;
  (* re-admission sweep over the shed pool, ascending ids: strict — a
     client leaves the pool only for a real placement *)
  let readmits = ref [] in
  for id = 0 to slot_count st - 1 do
    if st.status.(id) = st_shed && not (over_admission t) then begin
      st.status.(id) <- st_free;
      st.shed <- st.shed - 1;
      match try_place t id with
      | Placed server ->
          st.readmits_total <- st.readmits_total + 1;
          readmits := Proto.Readmitted { id; server } :: !readmits
      | Zone_down | No_capacity ->
          st.status.(id) <- st_shed;
          st.shed <- st.shed + 1
    end
  done;
  List.rev !readmits

let maybe_reopt t =
  let st = t.st in
  if t.config.reopt_every > 0 && st.since_reopt >= t.config.reopt_every then
    if st.dirty || st.shed > 0 then reopt t
    else begin
      st.since_reopt <- 0;
      []
    end
  else []

(* ------------------------------------------------------------------ *)
(* Event handling                                                      *)

let rebuild_serving t =
  t.serving <-
    (if Health.is_pristine t.st.health then t.base else Health.apply t.st.health t.base)

(* The join half of a join or move: slot [id] is free, with its node
   and zone recorded. A mover displaced by capacity is shed, not
   dropped. *)
let admit t id =
  let st = t.st in
  if over_admission t then begin
    shed_slot st id;
    Proto.Shed { id; reason = Proto.Admission }
  end
  else
    match try_place t id with
    | Placed server -> Proto.Assigned { id; server }
    | Zone_down ->
        admit_zone_down t id;
        st.sheds_total <- st.sheds_total + 1;
        Proto.Shed { id; reason = Proto.Zone_down }
    | No_capacity ->
        shed_slot st id;
        Proto.Shed { id; reason = Proto.Capacity }

let handle_join t ~id ~node ~zone =
  let st = t.st in
  if st.status.(id) <> st_free then
    Proto.Err (Printf.sprintf "join %d: id already known" id)
  else if node < 0 || node >= World.node_count t.base then
    Proto.Err (Printf.sprintf "join %d: node %d out of range" id node)
  else if zone < 0 || zone >= World.zone_count t.base then
    Proto.Err (Printf.sprintf "join %d: zone %d out of range" id zone)
  else begin
    st.nodes.(id) <- node;
    st.zones.(id) <- zone;
    admit t id
  end

(* Free a known slot: out of the shed pool, or out of the live books. *)
let release t id =
  let st = t.st in
  if st.status.(id) = st_shed then st.shed <- st.shed - 1 else remove_live t id;
  st.status.(id) <- st_free

let known st id = id >= 0 && id < slot_count st && st.status.(id) <> st_free

let handle_leave t ~id =
  if not (known t.st id) then Proto.Err (Printf.sprintf "leave %d: unknown id" id)
  else begin
    release t id;
    Proto.Left { id }
  end

let handle_move t ~id ~zone =
  if not (known t.st id) then Proto.Err (Printf.sprintf "move %d: unknown id" id)
  else if zone < 0 || zone >= World.zone_count t.base then
    Proto.Err (Printf.sprintf "move %d: zone %d out of range" id zone)
  else begin
    release t id;
    t.st.zones.(id) <- zone;
    admit t id
  end

let handle_ctrl t ctrl =
  let health = t.st.health in
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
        Health.crash health s;
        apply_ok (Printf.sprintf "crash %d" s)
      end
  | Proto.Recover s ->
      if s < 0 || s >= servers then
        Proto.[ Err (Printf.sprintf "recover: server %d out of range" s) ]
      else begin
        Health.recover health s;
        apply_ok (Printf.sprintf "recover %d" s)
      end
  | Proto.Degrade (s, ms) ->
      if s < 0 || s >= servers then
        Proto.[ Err (Printf.sprintf "degrade: server %d out of range" s) ]
      else if ms < 0. then Proto.[ Err "degrade: negative penalty" ]
      else begin
        Health.degrade health s ~delay_penalty:ms;
        apply_ok (Printf.sprintf "degrade %d" s)
      end

let handle t event =
  let st = t.st in
  st.events <- st.events + 1;
  st.since_reopt <- st.since_reopt + 1;
  match event with
  | Proto.Ctrl ctrl -> handle_ctrl t ctrl
  | Proto.Join { id; node; zone } ->
      ensure_slot st id;
      handle_join t ~id ~node ~zone :: maybe_reopt t
  | Proto.Leave { id } -> handle_leave t ~id :: maybe_reopt t
  | Proto.Move { id; zone } -> handle_move t ~id ~zone :: maybe_reopt t

let note_time t at = if at > t.st.stream_time then t.st.stream_time <- at

let finalize t = reopt t

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let live_clients t = t.st.live
let shed_pool t = t.st.shed
let events_seen t = t.st.events
let sheds_total t = t.st.sheds_total
let readmits_total t = t.st.readmits_total
let reopts_total t = t.st.reopts

let self_check t =
  let st = t.st in
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let world, slots = materialize t in
  let a = assignment_of t slots in
  (* populations *)
  let pop = World.zone_population world in
  Array.iteri
    (fun z p -> if st.pop.(z) <> p then add "zone %d: tracked pop %d, world pop %d" z st.pop.(z) p)
    pop;
  (* loads, against the from-scratch recomputation *)
  let loads = Assignment.server_loads a world in
  Array.iteri
    (fun s load ->
      let tracked = st.loads.(s) in
      let scale = Float.max 1. (Float.max (Float.abs load) (Float.abs tracked)) in
      if Float.abs (load -. tracked) > 1e-6 *. scale then
        add "server %d: tracked load %.3f, recomputed %.3f" s tracked load)
    loads;
  (* structural, liveness, partition and capacity validity *)
  List.iter (fun v -> add "assignment: %s" v) (Assignment.violations ~health:st.health a world);
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let validate_config config =
  if config.reopt_every < 0 then invalid_arg "Engine: reopt_every must be >= 0";
  if config.reopt_moves < 0 then invalid_arg "Engine: reopt_moves must be >= 0";
  match config.max_inflight with
  | Some cap when cap < 0 -> invalid_arg "Engine: max_inflight must be >= 0"
  | Some _ | None -> ()

(* An engine over [st], with what the world rebuilds. *)
let of_state ~world config st =
  validate_config config;
  let t = { base = world; config; inc_state = Incremental.make_state world; serving = world; st } in
  rebuild_serving t;
  t

let create ~world ~assignment config =
  let zones = World.zone_count world in
  let servers = World.server_count world in
  let k0 = World.client_count world in
  if Array.length assignment.Assignment.target_of_zone <> zones then
    invalid_arg "Engine.create: assignment does not match the world's zones";
  if Array.length assignment.Assignment.contact_of_client <> k0 then
    invalid_arg "Engine.create: assignment does not match the world's clients";
  let slots = max 16 k0 in
  let st =
    {
      health = Health.create ~servers;
      nodes = Array.make slots 0;
      zones = Array.make slots 0;
      contact = Array.make slots Assignment.unassigned;
      status = Array.make slots st_free;
      live = 0;
      shed = 0;
      targets = Array.copy assignment.Assignment.target_of_zone;
      pop = Array.make zones 0;
      loads = Array.make servers 0.;
      members = Array.init zones (fun _ -> Hashtbl.create 16);
      relay = Array.init zones (fun _ -> Hashtbl.create 8);
      dirty = false;
      events = 0;
      sheds_total = 0;
      readmits_total = 0;
      reopts = 0;
      since_reopt = 0;
      stream_time = 0.;
    }
  in
  Array.blit world.World.client_nodes 0 st.nodes 0 k0;
  Array.blit world.World.client_zones 0 st.zones 0 k0;
  Array.blit assignment.Assignment.contact_of_client 0 st.contact 0 k0;
  Array.fill st.status 0 k0 st_live;
  let t = of_state ~world config st in
  rebuild_books t;
  t

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)

type checkpoint = state

(* A deep copy through Marshal without [Closures]: it raises if a
   closure ever reaches the state, which would also break resume across
   processes. *)
let copy (x : 'a) : 'a = Marshal.from_string (Marshal.to_string x []) 0

let checkpoint t = copy t.st
let checkpoint_events ck = ck.events
let checkpoint_clients ck = ck.live
let fingerprint t = Digest.to_hex (Digest.string (Marshal.to_string t.st []))

let restore ~world config ck =
  let zones = World.zone_count world in
  let servers = World.server_count world in
  if
    Array.length ck.targets <> zones
    || Array.length ck.members <> zones
    || Array.length ck.relay <> zones
    || Array.length ck.loads <> servers
    || Health.server_count ck.health <> servers
  then invalid_arg "Engine.restore: checkpoint does not match the world's shape";
  of_state ~world config (copy ck)
