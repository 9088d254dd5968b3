module World = Cap_model.World

let zones_placed_total =
  Cap_obs.Metrics.Counter.create "grez_zones_placed_total"
    ~help:"Zones placed by the greedy initial assignment"

let fallback_placements_total =
  Cap_obs.Metrics.Counter.create "grez_fallback_placements_total"
    ~help:"Zones that fit no server and went to the fallback"

(* Regret is taken over every server, dead ones included, as the
   paper's static ranking does; only the walk skips what is not
   usable. *)
let place_zones ?(rule = Regret.Best_minus_second) ?alive ~costs ~delays ~rates ~capacities () =
  let usable s = match alive with None -> true | Some mask -> mask.(s) in
  let n = Array.length costs and servers = Array.length capacities in
  let loads = Array.make servers 0. in
  let targets = Array.make n 0 in
  let fallbacks = ref 0 in
  let w = Regret.Walk.create servers in
  let keys = Regret.Walk.keys w and ties = Regret.Walk.ties w in
  let fill z =
    let cost = costs.(z) and delay = delays.(z) in
    for s = 0 to servers - 1 do
      keys.(s) <- float_of_int cost.(s);
      ties.(s) <- delay.(s)
    done
  in
  let ranked =
    Regret.rank w ~rule ~ids:(Array.init n Fun.id) ~fill ~desirability:Float.neg
  in
  Array.iter
    (fun z ->
      fill z;
      Regret.Walk.start w;
      let rec first () =
        let s = Regret.Walk.next w in
        if s < 0 || (usable s && loads.(s) +. rates.(z) <= capacities.(s)) then s
        else first ()
      in
      let s =
        match first () with
        | -1 ->
            incr fallbacks;
            Server_load.fallback_server ?alive ~loads ~capacities ()
        | s -> s
      in
      targets.(z) <- s;
      loads.(s) <- loads.(s) +. rates.(z))
    ranked;
  (targets, !fallbacks)

let assign ?(rule = Regret.Best_minus_second) ?(dynamic = false) ?alive world =
  (match alive with
  | Some mask when Array.length mask <> World.server_count world ->
      invalid_arg "Grez.assign: alive mask does not match the world's servers"
  | Some _ | None -> ());
  let usable s = match alive with None -> true | Some mask -> mask.(s) in
  let n = World.zone_count world in
  let fallbacks = ref 0 in
  let costs, delays = Cost.zone_tables world in
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
    let placed, placed_by_fallback =
      place_zones ~rule ?alive ~costs ~delays ~rates ~capacities ()
    in
    Array.blit placed 0 targets 0 n;
    fallbacks := placed_by_fallback
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
  Cap_obs.Metrics.Counter.add zones_placed_total (float_of_int n);
  Cap_obs.Metrics.Counter.add fallback_placements_total (float_of_int !fallbacks);
  targets
