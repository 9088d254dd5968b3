module Rng = Cap_util.Rng
module World = Cap_model.World
module Assignment = Cap_model.Assignment
module Distribution = Cap_model.Distribution
module Health = Cap_model.Health
module Fault = Cap_faults.Fault
module Two_phase = Cap_core.Two_phase
module Incremental = Cap_core.Incremental

type flash_crowd = {
  at : float;
  fraction : float;
  target_zone : int option;
}

type movement =
  | Teleport
  | Roam of Cap_model.Zone_map.t

type config = {
  duration : float;
  arrival_rate : float;
  mean_session : float;
  mean_move_interval : float;
  sample_interval : float;
  policy : Policy.t;
  flash_crowd : flash_crowd option;
  movement : movement;
  diurnal : Diurnal.t option;
  faults : Fault.schedule;
  failover_moves : int;
  retry_interval : float;
}

let default_config =
  {
    duration = 600.;
    arrival_rate = 1.;
    mean_session = 500.;
    mean_move_interval = 120.;
    sample_interval = 20.;
    policy = Policy.Periodic 100.;
    flash_crowd = None;
    movement = Teleport;
    diurnal = None;
    faults = [];
    failover_moves = 16;
    retry_interval = 10.;
  }

let roaming_config ~zones =
  { default_config with movement = Roam (Cap_model.Zone_map.square_for ~zones) }

type episode = {
  started_at : float;
  recovered_at : float option;
  pre_pqos : float;
  min_pqos : float;
}

type partition_episode = {
  partitioned_at : float;
  healed_at : float option;
  peak_components : int;
  peak_stranded : int;
  low_pqos : float;
}

type fault_report = {
  crashes : int;
  recoveries : int;
  degradations : int;
  link_cuts : int;
  link_restores : int;
  link_degradations : int;
  failovers : int;
  retries : int;
  shed_peak : int;
  zone_migrations : int;
  episodes : episode list;
  partitions : partition_episode list;
  invariant_violations : string list;
}

let no_faults =
  {
    crashes = 0;
    recoveries = 0;
    degradations = 0;
    link_cuts = 0;
    link_restores = 0;
    link_degradations = 0;
    failovers = 0;
    retries = 0;
    shed_peak = 0;
    zone_migrations = 0;
    episodes = [];
    partitions = [];
    invariant_violations = [];
  }

type outcome = {
  trace : Trace.t;
  reassignments : int;
  final_world : World.t;
  final_assignment : Assignment.t;
  faults : fault_report;
  interrupted : bool;
}

type event =
  | Arrival
  | Departure of int  (* sim client id *)
  | Move of int
  | Sample
  | Reassign
  | Flash of flash_crowd
  | Fault_event of Fault.event
  | Retry of int  (* re-homing attempt number, for backoff *)

type live_client = {
  node : int;
  mutable zone : int;
  mutable contact : int;
}

(* Everything the event loop reads or writes between events, as plain
   data. Together with the original config, world and algorithm it
   fully determines the rest of the run, so a checkpoint is simply a
   deep copy of it: a field added here is checkpointed with no further
   edit. *)
type state = {
  rng : Rng.t;
  queue : event Event_queue.t;
  clients : (int, live_client) Hashtbl.t;
  mutable next_id : int;
  mutable targets : int array;
  mutable reassignments : int;
  health : Health.t;
  trace : Trace.t;
  mutable faults : fault_report;
      (* counters and closed episodes; the open ones below join it as
         unresolved when the run ends *)
  mutable open_crash : episode option;
  mutable open_partition : partition_episode option;
  mutable retry_pending : bool;
  mutable last_sample : float;
  mutable last_threshold_reassign : float;
  mutable last_checkpoint : float;
  mutable telemetry : ((string * (string * string) list) * Cap_obs.Metrics.data) list;
      (* every instrument's values, taken when a checkpoint is written *)
}

type checkpoint = state

(* A deep copy through Marshal without [Closures]: it raises if a
   closure ever reaches the state, which would also break resume across
   processes. *)
let copy (x : 'a) : 'a = Marshal.from_string (Marshal.to_string x []) 0

let checkpoint_time (ck : checkpoint) = Event_queue.now ck.queue
let checkpoint_clients (ck : checkpoint) = Hashtbl.length ck.clients
let checkpoint_rng_state (ck : checkpoint) = Rng.state ck.rng

type checkpoint_reason = Scheduled | Requested

type checkpoint_hook = {
  every : float option;
  request : unit -> bool;
  write : reason:checkpoint_reason -> checkpoint -> unit;
}

(* A crash episode counts as recovered once nobody is shed and pQoS is
   back within this margin of its pre-crash level. *)
let recovery_tolerance = 0.05

let validate config =
  if config.duration <= 0. then invalid_arg "Dve_sim: duration must be positive";
  if config.arrival_rate < 0. then invalid_arg "Dve_sim: negative arrival rate";
  if config.mean_session <= 0. then invalid_arg "Dve_sim: mean_session must be positive";
  if config.mean_move_interval <= 0. then invalid_arg "Dve_sim: mean_move_interval must be positive";
  if config.sample_interval <= 0. then invalid_arg "Dve_sim: sample_interval must be positive";
  if config.failover_moves < 0 then invalid_arg "Dve_sim: negative failover budget";
  if config.retry_interval <= 0. then invalid_arg "Dve_sim: retry_interval must be positive";
  (match config.flash_crowd with
  | Some f ->
      if f.at < 0. then invalid_arg "Dve_sim: flash crowd in the past";
      if f.fraction <= 0. || f.fraction > 1. then
        invalid_arg "Dve_sim: flash crowd fraction outside (0, 1]"
  | None -> ());
  ignore (Policy.validate config.policy)

let validate_diurnal config ~regions =
  match config.diurnal with
  | None -> ()
  | Some d ->
      if Diurnal.regions d <> regions then
        invalid_arg "Dve_sim: diurnal model does not match the world's regions"

let validate_movement config ~zones =
  match config.movement with
  | Teleport -> ()
  | Roam map ->
      if Cap_model.Zone_map.zone_count map <> zones then
        invalid_arg "Dve_sim: zone map does not match the world's zone count"

let events_total ~kind =
  Cap_obs.Metrics.Counter.create "sim_events_total" ~labels:[ ("type", kind) ]
    ~help:"Simulation events processed, by type"

let arrival_events = events_total ~kind:"arrival"
let departure_events = events_total ~kind:"departure"
let move_events = events_total ~kind:"move"
let sample_events = events_total ~kind:"sample"
let flash_events = events_total ~kind:"flash"

let reassignments_total =
  Cap_obs.Metrics.Counter.create "sim_reassignments_total"
    ~help:"Full reassignments triggered by the policy"

let reassign_seconds =
  Cap_obs.Metrics.Histogram.create "sim_reassign_seconds"
    ~help:"Wall time of one policy-triggered reassignment"

let live_clients_gauge =
  Cap_obs.Metrics.Gauge.create "sim_live_clients"
    ~help:"Connected clients at the last processed event"

let crashes_total =
  Cap_obs.Metrics.Counter.create "faults_crashes_total"
    ~help:"Server crash events injected"

let recoveries_total =
  Cap_obs.Metrics.Counter.create "faults_recoveries_total"
    ~help:"Server recovery events injected"

let degradations_total =
  Cap_obs.Metrics.Counter.create "faults_degradations_total"
    ~help:"Server degradation events injected"

let failovers_total =
  Cap_obs.Metrics.Counter.create "faults_failovers_total"
    ~help:"Failure-aware reassignments run after fault events"

let retries_total =
  Cap_obs.Metrics.Counter.create "faults_rehoming_retries_total"
    ~help:"Backoff retries attempting to re-home shed clients"

let link_cuts_total =
  Cap_obs.Metrics.Counter.create "faults_link_cuts_total"
    ~help:"Inter-server link cut events injected"

let link_restores_total =
  Cap_obs.Metrics.Counter.create "faults_link_restores_total"
    ~help:"Inter-server link restore events injected"

let link_degradations_total =
  Cap_obs.Metrics.Counter.create "faults_link_degradations_total"
    ~help:"Inter-server link degradation events injected"

let down_servers_gauge =
  Cap_obs.Metrics.Gauge.create "faults_down_servers"
    ~help:"Servers currently dead"

let partition_components_gauge =
  Cap_obs.Metrics.Gauge.create "faults_partition_components"
    ~help:"Connected components of the live backbone mesh"

let reconnect_seconds =
  Cap_obs.Metrics.Histogram.create "faults_reconnect_seconds"
    ~help:"Simulated seconds a backbone partition lasted"

let shed_clients_gauge =
  Cap_obs.Metrics.Gauge.create "faults_shed_clients"
    ~help:"Clients currently unassigned (shed by failures)"

let recovery_seconds =
  Cap_obs.Metrics.Histogram.create "faults_recovery_seconds"
    ~help:"Simulated seconds from a crash to service recovery"

(* What the loop needs besides its state: rebuilt from (config, world,
   algorithm) on every run and resume, never checkpointed. *)
type env = {
  config : config;
  world : World.t;
  algorithm : Two_phase.t;
  schedule : Fault.schedule;  (* validated *)
  has_faults : bool;
  region_nodes : int array array Lazy.t;  (* node ids per region, for diurnal arrivals *)
}

let env config ~world ~algorithm =
  validate config;
  validate_movement config ~zones:(World.zone_count world);
  validate_diurnal config ~regions:world.World.regions;
  let schedule = Fault.validate ~servers:(World.server_count world) config.faults in
  let region_nodes =
    lazy
      (let buckets = Array.make world.World.regions [] in
       Array.iteri
         (fun node region -> buckets.(region) <- node :: buckets.(region))
         world.World.region_of_node;
       Array.map Array.of_list buckets)
  in
  { config; world; algorithm; schedule; has_faults = schedule <> []; region_nodes }

let sample_arrival_node env st at =
  let sampler = env.world.World.sampler in
  match env.config.diurnal with
  | None -> Distribution.sample_node sampler st.rng
  | Some d ->
      let buckets = Lazy.force env.region_nodes in
      let weights =
        Array.mapi
          (fun region nodes ->
            float_of_int (Array.length nodes) *. Diurnal.factor d ~region ~time:at)
          buckets
      in
      (* every region can sit in its trough at once (amplitude 1):
         fall back to the placement sampler instead of feeding
         all-zero weights to the weighted draw *)
      if Array.fold_left ( +. ) 0. weights <= 0. then Distribution.sample_node sampler st.rng
      else begin
        let region = Rng.weighted_index st.rng weights in
        buckets.(region).(Rng.int st.rng (Array.length buckets.(region)))
      end

(* The world as it currently is: pristine when everything is up,
   health-projected (zero capacity, infinite delay on dead servers)
   otherwise. Algorithms and metrics both read this view. *)
let current_world env st =
  if Health.is_pristine st.health then env.world else Health.apply st.health env.world

(* The live population as a world + assignment, in sim-id order so
   that rebuilding is deterministic. *)
let snapshot env st =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) st.clients [] in
  let ids = List.sort compare ids in
  let k = List.length ids in
  let nodes = Array.make k 0 and zones = Array.make k 0 and contacts = Array.make k 0 in
  List.iteri
    (fun i id ->
      let c = Hashtbl.find st.clients id in
      nodes.(i) <- c.node;
      zones.(i) <- c.zone;
      contacts.(i) <- c.contact)
    ids;
  let w = World.replace_clients (current_world env st) ~client_nodes:nodes ~client_zones:zones in
  let a = Assignment.make ~target_of_zone:st.targets ~contact_of_client:contacts in
  ids, w, a

let count_unassigned st =
  Hashtbl.fold
    (fun _ c acc -> if c.contact = Assignment.unassigned then acc + 1 else acc)
    st.clients 0

let update_faults st f = st.faults <- f st.faults

let open_crash env st at =
  if Option.is_none st.open_crash then begin
    let _, w, a = snapshot env st in
    let pre = Assignment.pqos a w in
    st.open_crash <-
      Some { started_at = at; recovered_at = None; pre_pqos = pre; min_pqos = pre }
  end

let update_crash st at pqos =
  match st.open_crash with
  | None -> ()
  | Some e ->
      let e = { e with min_pqos = min e.min_pqos pqos } in
      if count_unassigned st = 0 && pqos >= e.pre_pqos -. recovery_tolerance then begin
        update_faults st (fun f ->
            { f with episodes = f.episodes @ [ { e with recovered_at = Some at } ] });
        Cap_obs.Metrics.Histogram.observe recovery_seconds (at -. e.started_at);
        st.open_crash <- None
      end
      else st.open_crash <- Some e

(* A partition episode opens when the live mesh splits into more
   than one component and closes the moment it is whole again (or
   every server is dead — nothing is partitioned from anything). *)
let update_partition st at ~components ~stranded ~pqos =
  Cap_obs.Metrics.Gauge.set partition_components_gauge (float_of_int components);
  match st.open_partition with
  | None ->
      if components > 1 then
        st.open_partition <-
          Some
            {
              partitioned_at = at;
              healed_at = None;
              peak_components = components;
              peak_stranded = stranded;
              low_pqos = pqos;
            }
  | Some p ->
      let p =
        {
          p with
          peak_components = max p.peak_components components;
          peak_stranded = max p.peak_stranded stranded;
          low_pqos = min p.low_pqos pqos;
        }
      in
      if components <= 1 then begin
        update_faults st (fun f ->
            { f with partitions = f.partitions @ [ { p with healed_at = Some at } ] });
        Cap_obs.Metrics.Histogram.observe reconnect_seconds (at -. p.partitioned_at);
        st.open_partition <- None
      end
      else st.open_partition <- Some p

let violations_kept = 50

(* Post-event checks: the structural invariants (no zone or client on a
   dead server, shed state consistent, no contact across a partition)
   and the recovery bookkeeping. Capacity is not checked: overload under
   churn is a QoS problem, not a failover bug. *)
let post_event env st at =
  if env.has_faults then begin
    let _, w, a = snapshot env st in
    let violations = Assignment.violations ~health:st.health ~capacity:false a w in
    Cap_obs.Metrics.Counter.add Fault.invariant_violations_total
      (float_of_int (List.length violations));
    let shed = Assignment.unassigned_clients a in
    update_faults st (fun f ->
        {
          f with
          invariant_violations =
            (if violations <> [] && List.length f.invariant_violations < violations_kept
             then f.invariant_violations @ violations
             else f.invariant_violations);
          shed_peak = max f.shed_peak shed;
        });
    Cap_obs.Metrics.Gauge.set shed_clients_gauge (float_of_int shed);
    Cap_obs.Metrics.Gauge.set down_servers_gauge
      (float_of_int (World.server_count env.world - Health.alive_count st.health));
    let pqos = Assignment.pqos a w in
    update_crash st at pqos;
    update_partition st at ~components:(Health.partition_count st.health) ~stranded:shed ~pqos
  end

let shed_everyone st =
  st.targets <- Array.map (fun _ -> Assignment.unassigned) st.targets;
  Hashtbl.iter (fun _ c -> c.contact <- Assignment.unassigned) st.clients

(* Take over [assignment], computed on [snapshot]'s world for [ids]. *)
let adopt st ids assignment =
  st.targets <- Array.copy assignment.Assignment.target_of_zone;
  List.iteri
    (fun i id ->
      (Hashtbl.find st.clients id).contact <- assignment.Assignment.contact_of_client.(i))
    ids

(* Failure-aware reassignment: migrate orphaned zones off dead servers
   (re-admitting previously shed ones) with a bounded number of
   optimization moves, then rebuild contacts. Total blackout degrades
   to everyone-unassigned instead of raising. *)
let failover env st =
  update_faults st (fun f -> { f with failovers = f.failovers + 1 });
  Cap_obs.Metrics.Counter.incr failovers_total;
  if Health.alive_count st.health = 0 then shed_everyone st
  else begin
    let ids, w, previous = snapshot env st in
    let assignment, migration =
      Incremental.refresh ~max_zone_moves:env.config.failover_moves
        ~alive:(Health.alive_mask st.health) w ~previous
    in
    update_faults st (fun f ->
        { f with zone_migrations = f.zone_migrations + migration.Incremental.zone_moves });
    adopt st ids assignment
  end

let max_backoff_doublings = 5

let schedule_retry env st at ~attempt =
  if count_unassigned st > 0 && not st.retry_pending then begin
    let backoff =
      env.config.retry_interval
      *. (2. ** float_of_int (min (attempt - 1) max_backoff_doublings))
    in
    st.retry_pending <- true;
    Event_queue.schedule st.queue ~time:(at +. backoff) (Retry attempt)
  end

let reassign env st =
  let t0 = Cap_obs.Clock.now () in
  (* no servers: a full reassignment cannot help; stay shed *)
  if Health.alive_count st.health = 0 then shed_everyone st
  else begin
    let ids, w, _ = snapshot env st in
    let assignment = Two_phase.run env.algorithm st.rng w in
    (* The two-phase algorithms see zeroed capacities but may still
       park empty zones on a dead server; a zero-budget failure-aware
       refresh evacuates them (and re-admits shed zones). *)
    let assignment =
      if Health.all_alive st.health then assignment
      else
        fst
          (Incremental.refresh ~max_zone_moves:0 ~alive:(Health.alive_mask st.health) w
             ~previous:assignment)
    in
    adopt st ids assignment
  end;
  st.reassignments <- st.reassignments + 1;
  Cap_obs.Metrics.Counter.incr reassignments_total;
  Cap_obs.Metrics.Histogram.observe reassign_seconds (Cap_obs.Clock.elapsed_since t0)

let spawn env st ~node ~zone ~contact ~at =
  let id = st.next_id in
  st.next_id <- id + 1;
  Hashtbl.replace st.clients id { node; zone; contact };
  Event_queue.schedule st.queue
    ~time:(at +. Rng.exponential st.rng ~rate:(1. /. env.config.mean_session))
    (Departure id);
  Event_queue.schedule st.queue
    ~time:(at +. Rng.exponential st.rng ~rate:(1. /. env.config.mean_move_interval))
    (Move id)

let sample_metrics env st at =
  st.last_sample <- at;
  Cap_obs.Metrics.Gauge.set live_clients_gauge (float_of_int (Hashtbl.length st.clients));
  let _, w, a = snapshot env st in
  let pqos = Assignment.pqos a w in
  let components = Health.partition_count st.health in
  Trace.record st.trace
    {
      Trace.time = at;
      clients = Hashtbl.length st.clients;
      pqos;
      utilization = Assignment.utilization a w;
      reassignments = st.reassignments;
      unassigned = Assignment.unassigned_clients a;
      down_servers = World.server_count env.world - Health.alive_count st.health;
      components;
    };
  update_crash st at pqos;
  if env.has_faults then
    update_partition st at ~components ~stranded:(Assignment.unassigned_clients a) ~pqos;
  pqos

(* The fresh state: the world's population, assigned by the algorithm,
   with the first arrival, sample, reassignment, flash crowd and every
   fault already queued. *)
let init env rng =
  let world = env.world in
  let st =
    {
      rng;
      queue = Event_queue.create ();
      clients = Hashtbl.create 256;
      next_id = 0;
      targets = [||];
      reassignments = 0;
      health = Health.create ~servers:(World.server_count world);
      trace = Trace.create ();
      faults = no_faults;
      open_crash = None;
      open_partition = None;
      retry_pending = false;
      last_sample = 0.;
      last_threshold_reassign = neg_infinity;
      last_checkpoint = 0.;
      telemetry = [];
    }
  in
  let initial = Two_phase.run env.algorithm rng world in
  st.targets <- Array.copy initial.Assignment.target_of_zone;
  Array.iteri
    (fun i node ->
      spawn env st ~node ~zone:world.World.client_zones.(i)
        ~contact:initial.Assignment.contact_of_client.(i) ~at:0.)
    world.World.client_nodes;
  let schedule time event = Event_queue.schedule st.queue ~time event in
  if env.config.arrival_rate > 0. then
    schedule (Rng.exponential rng ~rate:env.config.arrival_rate) Arrival;
  schedule env.config.sample_interval Sample;
  (match env.config.policy with
  | Policy.Periodic period -> schedule period Reassign
  | Policy.Never | Policy.On_threshold _ -> ());
  Option.iter (fun f -> schedule f.at (Flash f)) env.config.flash_crowd;
  List.iter (fun { Fault.at; event } -> schedule at (Fault_event event)) env.schedule;
  st

(* The state a checkpoint holds, validated against the world it resumes
   on. Pending events (arrivals, samples, faults, retries) are all in
   the copied queue, which is checked because it may come from disk. *)
let of_checkpoint env (ck : checkpoint) =
  let st = copy ck in
  if
    Array.length st.targets <> World.zone_count env.world
    || Health.server_count st.health <> World.server_count env.world
  then invalid_arg "Dve_sim.resume: checkpoint does not match the world";
  Event_queue.check st.queue;
  Cap_obs.Metrics.restore_values st.telemetry;
  st

let to_checkpoint st =
  st.telemetry <- Cap_obs.Metrics.export_values ();
  copy st

let fault_event env st at = function
  | Fault.Crash s ->
      update_faults st (fun f -> { f with crashes = f.crashes + 1 });
      Cap_obs.Metrics.Counter.incr crashes_total;
      open_crash env st at;
      Health.crash st.health s
  | Fault.Recover s ->
      update_faults st (fun f -> { f with recoveries = f.recoveries + 1 });
      Cap_obs.Metrics.Counter.incr recoveries_total;
      Health.recover st.health s
  | Fault.Degrade { server; delay_penalty } ->
      update_faults st (fun f -> { f with degradations = f.degradations + 1 });
      Cap_obs.Metrics.Counter.incr degradations_total;
      Health.degrade st.health server ~delay_penalty
  | Fault.Link_cut { s1; s2 } ->
      update_faults st (fun f -> { f with link_cuts = f.link_cuts + 1 });
      Cap_obs.Metrics.Counter.incr link_cuts_total;
      Health.cut_link st.health s1 s2
  | Fault.Link_restore { s1; s2 } ->
      update_faults st (fun f -> { f with link_restores = f.link_restores + 1 });
      Cap_obs.Metrics.Counter.incr link_restores_total;
      Health.restore_link st.health s1 s2
  | Fault.Link_degrade { s1; s2; delay_penalty } ->
      update_faults st (fun f -> { f with link_degradations = f.link_degradations + 1 });
      Cap_obs.Metrics.Counter.incr link_degradations_total;
      Health.degrade_link st.health s1 s2 ~delay_penalty

(* Handle one event at time [at]. *)
let step env st at = function
  | Arrival ->
      Cap_obs.Metrics.Counter.incr arrival_events;
      let node = sample_arrival_node env st at in
      let zone = Distribution.sample_zone env.world.World.sampler st.rng ~node in
      spawn env st ~node ~zone ~contact:st.targets.(zone) ~at;
      Event_queue.schedule st.queue
        ~time:(at +. Rng.exponential st.rng ~rate:env.config.arrival_rate)
        Arrival
  | Departure id ->
      Cap_obs.Metrics.Counter.incr departure_events;
      Hashtbl.remove st.clients id
  | Move id -> (
      Cap_obs.Metrics.Counter.incr move_events;
      match Hashtbl.find_opt st.clients id with
      | None -> ()
      | Some c ->
          c.zone <-
            (match env.config.movement with
            | Teleport -> Distribution.sample_zone env.world.World.sampler st.rng ~node:c.node
            | Roam map -> Cap_model.Zone_map.random_neighbor st.rng map c.zone);
          (* Wandering into a shed zone queues the client; wandering out
             of one re-homes it. A sticky contact that cannot reach the
             new zone's target across a cut backbone is re-homed to the
             target itself. Contacts otherwise stay sticky until the
             next reassignment. *)
          (if env.has_faults then begin
             let target = st.targets.(c.zone) in
             if c.contact = Assignment.unassigned <> (target = Assignment.unassigned) then
               c.contact <- target
             else if
               c.contact <> Assignment.unassigned
               && target <> Assignment.unassigned
               && (not (Health.links_pristine st.health))
               && not (World.servers_reachable (current_world env st) c.contact target)
             then c.contact <- target
           end);
          Event_queue.schedule st.queue
            ~time:(at +. Rng.exponential st.rng ~rate:(1. /. env.config.mean_move_interval))
            (Move id))
  | Sample ->
      Cap_obs.Metrics.Counter.incr sample_events;
      let pqos = sample_metrics env st at in
      (match env.config.policy with
      | Policy.On_threshold { pqos = threshold; min_interval }
        when pqos < threshold && at -. st.last_threshold_reassign >= min_interval ->
          st.last_threshold_reassign <- at;
          reassign env st;
          post_event env st at
      | Policy.Never | Policy.Periodic _ | Policy.On_threshold _ -> ());
      Event_queue.schedule st.queue ~time:(at +. env.config.sample_interval) Sample
  | Reassign -> (
      reassign env st;
      post_event env st at;
      match env.config.policy with
      | Policy.Periodic period -> Event_queue.schedule st.queue ~time:(at +. period) Reassign
      | Policy.Never | Policy.On_threshold _ -> ())
  | Fault_event fault ->
      fault_event env st at fault;
      failover env st;
      post_event env st at;
      schedule_retry env st at ~attempt:1
  | Retry attempt ->
      st.retry_pending <- false;
      if count_unassigned st > 0 then begin
        update_faults st (fun f -> { f with retries = f.retries + 1 });
        Cap_obs.Metrics.Counter.incr retries_total;
        if Health.alive_count st.health > 0 then failover env st;
        post_event env st at;
        schedule_retry env st at ~attempt:(attempt + 1)
      end
  | Flash f ->
      Cap_obs.Metrics.Counter.incr flash_events;
      let zone =
        match f.target_zone with
        | Some z -> z
        | None -> Rng.int st.rng (World.zone_count env.world)
      in
      let ids = Hashtbl.fold (fun id _ acc -> id :: acc) st.clients [] in
      let ids = Array.of_list (List.sort compare ids) in
      let crowd = int_of_float (f.fraction *. float_of_int (Array.length ids)) in
      let chosen = Rng.sample_distinct st.rng ~k:crowd ~n:(Array.length ids) in
      Array.iter (fun idx -> (Hashtbl.find st.clients ids.(idx)).zone <- zone) chosen

(* Checkpoint between events: the hook's cadence is in sim-seconds, and
   its request flag (a SIGTERM handler's ref) stops the run after
   writing a final snapshot. True when the run stops here. *)
let checkpoint_and_stop hook st at =
  match hook with
  | None -> false
  | Some h ->
      let write reason =
        st.last_checkpoint <- at;
        h.write ~reason (to_checkpoint st)
      in
      if h.request () then begin
        write Requested;
        true
      end
      else begin
        (match h.every with
        | Some every when at -. st.last_checkpoint >= every -> write Scheduled
        | Some _ | None -> ());
        false
      end

(* The outcome once the loop has stopped. The event loop discards
   anything past [duration], so sample once more so the trace's last
   row is the state at the end of the run, and report still-open
   episodes as unresolved. An interrupted run skips both: the resumed
   run produces them. *)
let observe env st ~interrupted =
  if (not interrupted) && st.last_sample < env.config.duration then
    ignore (sample_metrics env st env.config.duration);
  let unresolved episode = if interrupted then [] else Option.to_list episode in
  let _, final_world, final_assignment = snapshot env st in
  {
    trace = st.trace;
    reassignments = st.reassignments;
    final_world;
    final_assignment;
    faults =
      {
        st.faults with
        episodes = st.faults.episodes @ unresolved st.open_crash;
        partitions = st.faults.partitions @ unresolved st.open_partition;
      };
    interrupted;
  }

let rec loop ?hook env st =
  match Event_queue.next st.queue with
  | None -> observe env st ~interrupted:false
  | Some (at, _) when at > env.config.duration -> observe env st ~interrupted:false
  | Some (at, event) ->
      step env st at event;
      if checkpoint_and_stop hook st at then observe env st ~interrupted:true
      else loop ?hook env st

let run ?checkpoint rng config ~world ~algorithm =
  Cap_obs.Span.with_span "dve_sim/run" (fun () ->
      let env = env config ~world ~algorithm in
      loop ?hook:checkpoint env (init env rng))

let resume ?checkpoint config ~world ~algorithm ck =
  Cap_obs.Span.with_span "dve_sim/resume" (fun () ->
      let env = env config ~world ~algorithm in
      loop ?hook:checkpoint env (of_checkpoint env ck))
