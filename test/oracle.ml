(* The GreZ-GreC planner as it stood when every preference list was a
   fully sorted array of boxed (server, desirability) pairs and every
   client row came from the dense client x server tier. Kept verbatim
   (less its metrics counters) as the oracle the allocation-free
   solvers in Cap_core must match array for array; see
   test_oracle.ml. Below it, the Vivaldi embedding as it stood with a
   fresh direction array and closures per update: the oracle the
   allocation-free Cap_topology.Vivaldi.embed must match bit for bit
   (test_vivaldi.ml). Last, reference shortest paths and an exhaustive
   GAP search, the ground truth for Dijkstra, the overlay's routed
   delays and branch-and-bound. *)

module World = Cap_model.World
module Traffic = Cap_model.Traffic
module Scenario = Cap_model.Scenario
module Assignment = Cap_model.Assignment
module Aggregate = Cap_model.Aggregate
module Pool = Cap_par.Pool
module Server_load = Cap_core.Server_load

module Regret = struct
  type rule = Cap_core.Regret.rule =
    | Best_minus_second
    | Second_minus_best

  type item = {
    id : int;
    prefs : (int * float) array;
    regret : float;
  }

  let order ~ids ~servers ~desirability ~tie_break ~rule =
    if servers < 1 then invalid_arg "Regret.order: need at least one server";
    let build id =
      let prefs = Array.init servers (fun s -> s, desirability id s) in
      (* Most desirable first; ties by the caller's key, then index, so
         the whole pipeline is deterministic. *)
      Array.sort
        (fun (s1, mu1) (s2, mu2) ->
          match compare mu2 mu1 with
          | 0 -> (
              match compare (tie_break id s1) (tie_break id s2) with
              | 0 -> compare s1 s2
              | c -> c)
          | c -> c)
        prefs;
      let regret =
        if servers = 1 then 0.
        else begin
          let best = snd prefs.(0) and second = snd prefs.(1) in
          match rule with
          | Best_minus_second -> best -. second
          | Second_minus_best -> second -. best
        end
      in
      { id; prefs; regret }
    in
    let items = Array.map build ids in
    Array.sort
      (fun a b ->
        match compare b.regret a.regret with 0 -> compare a.id b.id | c -> c)
      items;
    items
end

module Cost = struct
  let delay_bound (world : World.t) = world.World.scenario.Scenario.delay_bound

  (* All hot-path costs read the cached float32 matrices, so the
     observed RTT a cost sees is the f32-rounded one everywhere: late
     detection (Grec), desirability ([refined]), tie-breaks
     ([relayed_delay]) and the matrix fills below agree bit for bit. *)

  let cs_read world ~client ~server =
    let d = World.dense world in
    Bigarray.Array1.get d.World.cs_rtt ((client * World.server_count world) + server)

  let initial world ~zone_members ~server =
    let bound = delay_bound world in
    Array.fold_left
      (fun acc client ->
        if cs_read world ~client ~server > bound then acc + 1 else acc)
      0 zone_members

  (* Row-parallel over zones; each row reads the zone's clients through
     the CSR index and the flat observed-RTT matrix, so one entry is one
     contiguous scan instead of k pointer-chasing delay lookups. Every
     row is written by exactly one task — the fill is deterministic at
     any pool size. *)
  let fill_initial_matrix world rows =
    let c = World.cached world in
    let d = World.dense world in
    let servers = World.server_count world in
    let zones = World.zone_count world in
    if
      Array.length rows <> zones
      || (zones > 0 && Array.length rows.(0) <> servers)
    then invalid_arg "Cost.fill_initial_matrix: buffer does not match the world";
    let bound = delay_bound world in
    let cs = d.World.cs_rtt in
    Pool.parallel_for (Pool.default ()) ~n:zones (fun z ->
        let row = rows.(z) in
        Array.fill row 0 servers 0;
        for i = c.World.zone_off.(z) to c.World.zone_off.(z + 1) - 1 do
          let base = c.World.zone_clients.(i) * servers in
          for server = 0 to servers - 1 do
            if Bigarray.Array1.unsafe_get cs (base + server) > bound then
              row.(server) <- row.(server) + 1
          done
        done)

  let initial_matrix world =
    let rows =
      Array.init (World.zone_count world) (fun _ ->
          Array.make (World.server_count world) 0)
    in
    fill_initial_matrix world rows;
    rows

  let ss_read world s1 s2 =
    let c = World.cached world in
    Bigarray.Array1.get c.World.ss_rtt ((s1 * World.server_count world) + s2)

  let relayed_delay world ~targets ~client ~contact =
    let target = targets.(world.World.client_zones.(client)) in
    cs_read world ~client ~server:contact +. ss_read world contact target

  let refined world ~targets ~client ~contact =
    max 0. (relayed_delay world ~targets ~client ~contact -. delay_bound world)

  (* Row-parallel over clients, on the cached flat matrices. *)
  let refined_matrix world ~targets =
    let c = World.cached world in
    let d = World.dense world in
    let servers = World.server_count world in
    let clients = World.client_count world in
    let bound = delay_bound world in
    let cs = d.World.cs_rtt and ss = c.World.ss_rtt in
    let rows = Array.make clients [||] in
    Pool.parallel_for (Pool.default ()) ~n:clients (fun client ->
        let base = client * servers in
        let target = targets.(world.World.client_zones.(client)) in
        rows.(client) <-
          Array.init servers (fun contact ->
              max 0.
                (Bigarray.Array1.unsafe_get cs (base + contact)
                 +. Bigarray.Array1.unsafe_get ss ((contact * servers) + target)
                 -. bound)));
    rows
end

module Grez = struct
  (* Mean observed client-server RTT per (zone, server): the
     desirability tie-breaker. Empty zones tie at 0 and fall back to
     server-index order. Row-parallel over zones on the cached CSR +
     flat RTT matrix; the per-(zone, server) summation order (ascending
     client id) matches the serial fill bit for bit. *)
  let mean_delay_matrix world =
    let c = World.cached world in
    let d = World.dense world in
    let servers = World.server_count world in
    let zones = World.zone_count world in
    let cs = d.World.cs_rtt in
    let rows = Array.make zones [||] in
    Pool.parallel_for (Pool.default ()) ~n:zones (fun z ->
        let lo = c.World.zone_off.(z) and hi = c.World.zone_off.(z + 1) in
        if hi = lo then rows.(z) <- Array.make servers 0.
        else begin
          let row = Array.make servers 0. in
          for i = lo to hi - 1 do
            let base = c.World.zone_clients.(i) * servers in
            for server = 0 to servers - 1 do
              row.(server) <- row.(server) +. Bigarray.Array1.unsafe_get cs (base + server)
            done
          done;
          let members = float_of_int (hi - lo) in
          for server = 0 to servers - 1 do
            row.(server) <- row.(server) /. members
          done;
          rows.(z) <- row
        end);
    rows

  let assign ?(rule = Regret.Best_minus_second) ?(dynamic = false) ?alive world =
    (match alive with
    | Some mask when Array.length mask <> World.server_count world ->
        invalid_arg "Grez.assign: alive mask does not match the world's servers"
    | Some _ | None -> ());
    let usable s = match alive with None -> true | Some mask -> mask.(s) in
    let n = World.zone_count world in
    let fallbacks = ref 0 in
    let costs = Cost.initial_matrix world in
    let delays = mean_delay_matrix world in
    let rates = Server_load.zone_rates world in
    let capacities = world.World.capacities in
    let loads = Array.make (World.server_count world) 0. in
    let targets = Array.make n 0 in
    let place z s =
      targets.(z) <- s;
      loads.(s) <- loads.(s) +. rates.(z)
    in
    let feasible z s = usable s && loads.(s) +. rates.(z) <= capacities.(s) in
    if not dynamic then begin
      let items =
        Regret.order
          ~ids:(Array.init n (fun z -> z))
          ~servers:(World.server_count world)
          ~desirability:(fun z s -> -.float_of_int costs.(z).(s))
          ~tie_break:(fun z s -> delays.(z).(s))
          ~rule
      in
      Array.iter
        (fun (item : Regret.item) ->
          let z = item.Regret.id in
          let chosen =
            Array.fold_left
              (fun acc (s, _) ->
                match acc with Some _ -> acc | None -> if feasible z s then Some s else None)
              None item.Regret.prefs
          in
          match chosen with
          | Some s -> place z s
          | None ->
              incr fallbacks;
              place z (Server_load.fallback_server ?alive ~loads ~capacities ()))
        items
    end
    else begin
      (* Dynamic variant: after every placement, re-rank the remaining
         zones by regret over their currently feasible servers. The
         remaining set lives in a swap-remove array — O(1) removal per
         placement instead of an O(n) [List.filter] — so the variant is
         O(n^2 m) overall. The pick is a unique maximum under
         (regret, lowest zone id), so the scan order over the array
         does not affect the result. *)
      let remaining = Array.init n (fun z -> z) in
      let live = ref n in
      let better mu1 tb1 s1 mu2 tb2 s2 =
        mu1 > mu2 || (mu1 = mu2 && (tb1 < tb2 || (tb1 = tb2 && s1 < s2)))
      in
      while !live > 0 do
        let evaluate z =
          (* Best and second-best feasible servers for zone z. *)
          let best = ref None and second = ref None in
          Array.iteri
            (fun s _ ->
              if feasible z s then begin
                let mu = -.float_of_int costs.(z).(s) and tb = delays.(z).(s) in
                match !best with
                | None -> best := Some (s, mu, tb)
                | Some (bs, bmu, btb) ->
                    if better mu tb s bmu btb bs then begin
                      second := !best;
                      best := Some (s, mu, tb)
                    end
                    else begin
                      match !second with
                      | None -> second := Some (s, mu, tb)
                      | Some (ss, smu, stb) ->
                          if better mu tb s smu stb ss then second := Some (s, mu, tb)
                    end
              end)
            loads;
          match !best with
          | None -> None
          | Some (s, mu, _) ->
              let regret =
                match !second, rule with
                | None, _ -> 0.
                | Some (_, smu, _), Regret.Best_minus_second -> mu -. smu
                | Some (_, smu, _), Regret.Second_minus_best -> smu -. mu
              in
              Some (z, s, regret)
        in
        let pick = ref None in
        let pick_at = ref (-1) in
        for idx = 0 to !live - 1 do
          let z = remaining.(idx) in
          match evaluate z with
          | None -> ()
          | Some (_, _, regret) as candidate -> (
              match !pick with
              | Some (z', _, regret') when regret' > regret || (regret' = regret && z' < z) ->
                  ()
              | _ ->
                  pick := candidate;
                  pick_at := idx)
        done;
        match !pick with
        | Some (z, s, _) ->
            place z s;
            remaining.(!pick_at) <- remaining.(!live - 1);
            remaining.(!live - 1) <- z;
            decr live
        | None ->
            (* Nothing fits anywhere: drain the rest through the
               fallback, in ascending zone order (the order the old
               list-based remaining set preserved — the fallback choice
               depends on the loads of earlier placements). *)
            let rest = Array.sub remaining 0 !live in
            Array.sort compare rest;
            Array.iter
              (fun z ->
                incr fallbacks;
                place z (Server_load.fallback_server ?alive ~loads ~capacities ()))
              rest;
            live := 0
      done
    end;
    targets
end

module Grec = struct
  let assign ?(rule = Regret.Best_minus_second) ?alive world ~targets =
    (match alive with
    | Some mask when Array.length mask <> World.server_count world ->
        invalid_arg "Grec.assign: alive mask does not match the world's servers"
    | Some _ | None -> ());
    let usable s = match alive with None -> true | Some mask -> mask.(s) in
    let k = World.client_count world in
    let bound = world.World.scenario.Scenario.delay_bound in
    let traffic = world.World.scenario.Scenario.traffic in
    let population = World.zone_population world in
    let capacities = world.World.capacities in
    (* Server loads start from the zone loads implied by the initial
       assignment; refined choices then add forwarding bandwidth. *)
    let loads = Array.make (World.server_count world) 0. in
    Array.iteri
      (fun z target ->
        if target <> Assignment.unassigned then
          loads.(target) <- loads.(target) +. Traffic.zone_rate traffic ~population:population.(z))
      targets;
    let contacts = Array.make k 0 in
    let late = ref [] in
    (* Late detection reads the same f32 matrix the refinement costs
       read, so a client is late exactly when its refined cost can be
       positive. *)
    let cs = (World.dense world).World.cs_rtt in
    let servers = World.server_count world in
    for c = k - 1 downto 0 do
      let target = targets.(world.World.client_zones.(c)) in
      contacts.(c) <- target;
      if target <> Assignment.unassigned then
        if Bigarray.Array1.get cs ((c * servers) + target) > bound then late := c :: !late
    done;
    let forwarding c =
      Traffic.forwarding_rate traffic ~zone_population:population.(world.World.client_zones.(c))
    in
    let items =
      Regret.order ~ids:(Array.of_list !late) ~servers:(World.server_count world)
        ~desirability:(fun c s -> -.Cost.refined world ~targets ~client:c ~contact:s)
        ~tie_break:(fun c s -> Cost.relayed_delay world ~targets ~client:c ~contact:s)
        ~rule
    in
    let refined = ref 0 in
    Array.iter
      (fun (item : Regret.item) ->
        let c = item.Regret.id in
        let target = targets.(world.World.client_zones.(c)) in
        let extra s = if s = target then 0. else forwarding c in
        let chosen =
          Array.fold_left
            (fun acc (s, desirability) ->
              match acc with
              | Some _ -> acc
              | None ->
                  (* An infinitely bad contact (it cannot reach the
                     target across the backbone) is never an answer, even
                     when everything better is full: fall back to the
                     direct link instead. *)
                  if
                    desirability > neg_infinity
                    && usable s
                    && loads.(s) +. extra s <= capacities.(s)
                  then Some s
                  else None)
            None item.Regret.prefs
        in
        match chosen with
        | Some s ->
            if s <> target then incr refined;
            contacts.(c) <- s;
            loads.(s) <- loads.(s) +. extra s
        | None ->
            (* Unreachable when loads started feasible: the target adds
               nothing and is always a candidate. Keep the direct link. *)
            contacts.(c) <- target)
      items;
    contacts
end

module Agg_solve = struct
  let delay_bound (agg : Aggregate.t) =
    agg.Aggregate.world.World.scenario.Scenario.delay_bound

  let gs agg ~group ~server =
    let servers = World.server_count agg.Aggregate.world in
    Bigarray.Array1.get agg.Aggregate.gs_rtt ((group * servers) + server)

  (* ------------------------------------------------------------------ *)
  (* Weighted GreZ                                                       *)

  (* The zone x server cost matrix of Grez, computed from the group
     rows: C^I(z, s) = sum over z's groups of weight * [rtt > D], and
     the mean-delay tie-break = sum of weight * rtt / population. Both
     scans are O(groups * m) instead of O(k * m). Row-parallel per
     zone; deterministic at any pool size. *)
  let zone_tables agg =
    let world = agg.Aggregate.world in
    let c = World.cached world in
    let servers = World.server_count world in
    let zones = World.zone_count world in
    let bound = delay_bound agg in
    let gs_rtt = agg.Aggregate.gs_rtt in
    let costs = Array.make zones [||] in
    let delays = Array.make zones [||] in
    Pool.parallel_for (Pool.default ()) ~n:zones (fun z ->
        let cost = Array.make servers 0 in
        let delay = Array.make servers 0. in
        for g = agg.Aggregate.zone_group_off.(z) to agg.Aggregate.zone_group_off.(z + 1) - 1 do
          let weight = agg.Aggregate.group_weight.(g) in
          let fweight = float_of_int weight in
          let base = g * servers in
          for s = 0 to servers - 1 do
            let rtt = Bigarray.Array1.unsafe_get gs_rtt (base + s) in
            if rtt > bound then cost.(s) <- cost.(s) + weight;
            delay.(s) <- delay.(s) +. (fweight *. rtt)
          done
        done;
        let pop = c.World.zone_pop.(z) in
        if pop > 0 then begin
          let fpop = float_of_int pop in
          for s = 0 to servers - 1 do
            delay.(s) <- delay.(s) /. fpop
          done
        end;
        costs.(z) <- cost;
        delays.(z) <- delay);
    (costs, delays)

  let assign_zones ?(rule = Regret.Best_minus_second) agg =
    let world = agg.Aggregate.world in
    let n = World.zone_count world in
    let costs, delays = zone_tables agg in
    let rates = Server_load.zone_rates world in
    let capacities = world.World.capacities in
    let loads = Array.make (World.server_count world) 0. in
    let targets = Array.make n 0 in
    let place z s =
      targets.(z) <- s;
      loads.(s) <- loads.(s) +. rates.(z)
    in
    let feasible z s = loads.(s) +. rates.(z) <= capacities.(s) in
    let items =
      Regret.order
        ~ids:(Array.init n (fun z -> z))
        ~servers:(World.server_count world)
        ~desirability:(fun z s -> -.float_of_int costs.(z).(s))
        ~tie_break:(fun z s -> delays.(z).(s))
        ~rule
    in
    Array.iter
      (fun (item : Regret.item) ->
        let z = item.Regret.id in
        let chosen =
          Array.fold_left
            (fun acc (s, _) ->
              match acc with Some _ -> acc | None -> if feasible z s then Some s else None)
            None item.Regret.prefs
        in
        match chosen with
        | Some s -> place z s
        | None -> place z (Server_load.fallback_server ~loads ~capacities ()))
      items;
    targets

  (* ------------------------------------------------------------------ *)
  (* Group-level GreC                                                    *)

  (* Late groups are ranked by the group refined cost (Eq. 8 on the
     group mean RTT) exactly as Grec ranks late clients; a group's
     members are then placed one by one along its preference list, so
     capacity can split a group across contacts just as per-client GreC
     splits a run of identical clients. Per-member placement is O(1)
     (the pref scan advances monotonically), keeping the whole
     refinement O(late_groups * m + late_members). *)
  let refine_contacts ?(rule = Regret.Best_minus_second) agg ~targets =
    let world = agg.Aggregate.world in
    if Array.length targets <> World.zone_count world then
      invalid_arg "Agg_solve.refine_contacts: targets do not match the world";
    let c = World.cached world in
    let servers = World.server_count world in
    let k = World.client_count world in
    let bound = delay_bound agg in
    let ss = c.World.ss_rtt in
    let capacities = world.World.capacities in
    let loads = Array.make servers 0. in
    Array.iteri
      (fun z target ->
        if target <> Assignment.unassigned then
          loads.(target) <- loads.(target) +. c.World.zone_rate_of.(z))
      targets;
    let contacts = Array.make k 0 in
    for cl = 0 to k - 1 do
      contacts.(cl) <- targets.(world.World.client_zones.(cl))
    done;
    let late = ref [] in
    for g = agg.Aggregate.groups - 1 downto 0 do
      let target = targets.(agg.Aggregate.group_zone.(g)) in
      if target <> Assignment.unassigned && gs agg ~group:g ~server:target > bound then
        late := g :: !late
    done;
    let late = Array.of_list !late in
    let relayed g s =
      let target = targets.(agg.Aggregate.group_zone.(g)) in
      gs agg ~group:g ~server:s +. Bigarray.Array1.get ss ((s * servers) + target)
    in
    let items =
      Regret.order ~ids:late ~servers
        ~desirability:(fun g s -> -.max 0. (relayed g s -. bound))
        ~tie_break:relayed ~rule
    in
    Array.iter
      (fun (item : Regret.item) ->
        let g = item.Regret.id in
        let z = agg.Aggregate.group_zone.(g) in
        let target = targets.(z) in
        (* all members of a group share a zone, hence a forwarding rate *)
        let forwarding = 2. *. c.World.zone_client_rate.(z) in
        let lo = agg.Aggregate.group_off.(g) and hi = agg.Aggregate.group_off.(g + 1) in
        let next = ref lo in
        let pref = ref 0 in
        let prefs = item.Regret.prefs in
        while !next < hi && !pref < Array.length prefs do
          let s, desirability = prefs.(!pref) in
          if desirability = neg_infinity then
            (* unreachable contact (partitioned backbone): never an
               answer — anything after it is no better, stop here and
               leave the rest on the direct link *)
            pref := Array.length prefs
          else if s = target then begin
            (* the direct link costs no forwarding: takes every
               remaining member *)
            while !next < hi do
              contacts.(agg.Aggregate.group_clients.(!next)) <- s;
              incr next
            done
          end
          else begin
            while !next < hi && loads.(s) +. forwarding <= capacities.(s) do
              contacts.(agg.Aggregate.group_clients.(!next)) <- s;
              loads.(s) <- loads.(s) +. forwarding;
              incr next
            done;
            incr pref
          end
        done)
      items;
    contacts
end

module Vivaldi = struct
  module Rng = Cap_util.Rng
  module Delay = Cap_topology.Delay

  type params = Cap_topology.Vivaldi.params = {
    dimensions : int;
    rounds : int;
    neighbors : int;
    ce : float;
    cc : float;
  }

  let default_params = { dimensions = 3; rounds = 60; neighbors = 16; ce = 0.25; cc = 0.25 }

  type t = Cap_topology.Vivaldi.t = {
    coordinates : float array array;
    errors : float array;
  }

  let validate params n =
    if params.dimensions <= 0 then invalid_arg "Vivaldi: dimensions must be positive";
    if params.rounds <= 0 then invalid_arg "Vivaldi: rounds must be positive";
    if params.neighbors <= 0 then invalid_arg "Vivaldi: neighbors must be positive";
    if params.ce <= 0. || params.cc <= 0. then invalid_arg "Vivaldi: gains must be positive";
    if n < 2 then invalid_arg "Vivaldi: need at least 2 nodes"

  let norm v =
    sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v)

  let coordinate_distance a b =
    let acc = ref 0. in
    Array.iteri (fun i ai -> acc := !acc +. ((ai -. b.(i)) *. (ai -. b.(i)))) a;
    sqrt !acc

  let embed rng ?(params = default_params) delay =
    let n = Delay.node_count delay in
    validate params n;
    (* Small random initial coordinates break the symmetry of starting
       everyone at the origin. *)
    let coordinates =
      Array.init n (fun _ ->
          Array.init params.dimensions (fun _ -> Rng.float_in rng (-1.) 1.))
    in
    let errors = Array.make n 1. in
    (* Fixed random neighbor sets, as a deployment would have. *)
    let neighbor_sets =
      Array.init n (fun i ->
          let k = min params.neighbors (n - 1) in
          let chosen = Rng.sample_distinct rng ~k ~n:(n - 1) in
          (* indices skip the node itself *)
          Array.map (fun j -> if j >= i then j + 1 else j) chosen)
    in
    let update i j =
      let rtt = Delay.rtt delay i j in
      if rtt > 0. then begin
        let xi = coordinates.(i) and xj = coordinates.(j) in
        let dist = coordinate_distance xi xj in
        (* confidence weight: how much node i trusts itself vs j *)
        let w =
          if errors.(i) +. errors.(j) = 0. then 0.5 else errors.(i) /. (errors.(i) +. errors.(j))
        in
        let sample_error = abs_float (dist -. rtt) /. rtt in
        errors.(i) <- (sample_error *. params.ce *. w) +. (errors.(i) *. (1. -. (params.ce *. w)));
        let timestep = params.cc *. w in
        (* unit vector from j towards i; random direction if coincident *)
        let direction = Array.make params.dimensions 0. in
        Array.iteri (fun d xid -> direction.(d) <- xid -. xj.(d)) xi;
        let len = norm direction in
        if len > 1e-12 then
          Array.iteri (fun d v -> direction.(d) <- v /. len) direction
        else
          Array.iteri (fun d _ -> direction.(d) <- Rng.float_in rng (-1.) 1.) direction;
        let force = timestep *. (rtt -. dist) in
        Array.iteri (fun d v -> xi.(d) <- v +. (force *. direction.(d))) xi
      end
    in
    for _ = 1 to params.rounds do
      for i = 0 to n - 1 do
        Array.iter (fun j -> update i j) neighbor_sets.(i)
      done
    done;
    { coordinates; errors }
end

(* Reference shortest paths: cubic all-pairs relaxation to cross-check
   Cap_topology.Shortest_paths.all_pairs and the overlay's routed
   delays, plus the summaries and path walk the tests read off it. *)
module Shortest_paths = struct
  module Graph = Cap_topology.Graph

  let floyd_warshall g =
    let n = Graph.node_count g in
    let dist = Array.init n (fun _ -> Array.make n infinity) in
    for i = 0 to n - 1 do
      dist.(i).(i) <- 0.
    done;
    Graph.iter_edges g (fun u v w ->
        if w < dist.(u).(v) then begin
          dist.(u).(v) <- w;
          dist.(v).(u) <- w
        end);
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        let dik = dist.(i).(k) in
        if dik < infinity then
          for j = 0 to n - 1 do
            let through = dik +. dist.(k).(j) in
            if through < dist.(i).(j) then dist.(i).(j) <- through
          done
      done
    done;
    dist

  (* Largest finite entry of a distance row; 0 if all are infinite. *)
  let eccentricity row =
    Array.fold_left (fun acc d -> if d < infinity && d > acc then d else acc) 0. row

  (* Largest finite distance in the matrix. *)
  let diameter matrix = Array.fold_left (fun acc row -> max acc (eccentricity row)) 0. matrix

  (* One shortest path from [src] to [dst] that [Cap_topology]'s
     Dijkstra distances certify: walk back from [dst] through any
     neighbour whose distance plus the edge weight is [dst]'s own.
     [None] if unreachable. *)
  let dijkstra_path g ~src ~dst =
    let dist = Cap_topology.Shortest_paths.dijkstra g ~src in
    if dist.(dst) = infinity then None
    else begin
      let rec walk acc v =
        if v = src then Some (src :: acc)
        else
          match
            Array.find_opt
              (fun (u, w) -> abs_float (dist.(u) +. w -. dist.(v)) < 1e-9 && dist.(u) < dist.(v))
              (Graph.neighbors g v)
          with
          | Some (u, _) -> walk (v :: acc) u
          | None -> None
      in
      Option.map (fun path -> (dist.(dst), path)) (walk [] dst)
    end
end

(* Exhaustive search over all [servers^items] assignments of a GAP; the
   ground truth for branch-and-bound on tiny instances. [None] if no
   feasible assignment exists. Raises [Invalid_argument] when the
   search space exceeds ~10^7. *)
let gap_brute_force (t : Cap_milp.Gap.t) =
  let module Gap = Cap_milp.Gap in
  let items = Gap.item_count t and servers = Gap.server_count t in
  let space = float_of_int servers ** float_of_int items in
  if space > 1e7 then invalid_arg "Oracle.gap_brute_force: search space too large";
  let assignment = Array.make items 0 in
  let best = ref None in
  let rec explore j =
    if j = items then begin
      if Gap.is_feasible t assignment then begin
        let cost = Gap.objective t assignment in
        match !best with
        | Some (_, best_cost) when best_cost <= cost -> ()
        | _ -> best := Some (Array.copy assignment, cost)
      end
    end
    else
      for i = 0 to servers - 1 do
        assignment.(j) <- i;
        explore (j + 1)
      done
  in
  explore 0;
  !best
