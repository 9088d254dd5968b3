module Scenario = Cap_model.Scenario
module Rng = Cap_util.Rng

let world_seed = 1
let now_ns () = Int64.to_int (Cap_obs.Clock.now_ns ())
let since t0 = float_of_int (now_ns () - t0) *. 1e-9

let scale_scenario ~servers ~zones ~clients =
  let base =
    Scenario.make ~servers ~zones ~clients
      ~total_capacity_mbps:(1.6 *. float_of_int clients) ()
  in
  {
    base with
    Scenario.traffic = Cap_model.Traffic.with_visibility_cap 50 base.Scenario.traffic;
  }

let max_rss_kib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rss = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
             Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun v ->
                 rss := v)
         done
       with End_of_file | Scanf.Scan_failure _ | Failure _ -> ());
      close_in ic;
      !rss

let topology_s (scenario : Scenario.t) rng =
  let rng = Rng.copy rng in
  let t0 = now_ns () in
  let graph =
    match scenario.Scenario.topology with
    | Scenario.Brite params ->
        (Cap_topology.Hierarchical.generate rng params).Cap_topology.Hierarchical.graph
    | Scenario.Att_backbone { access_nodes } ->
        (Cap_topology.Backbone.generate rng ~access_nodes).Cap_topology.Backbone.graph
    | Scenario.Transit_stub params ->
        (Cap_topology.Transit_stub.generate rng params).Cap_topology.Transit_stub.graph
  in
  ignore (Cap_topology.Delay.create graph ~max_rtt:scenario.Scenario.max_rtt);
  since t0

module Samples = struct
  type t = {
    mutable a : float array;
    mutable n : int;
  }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let sum t = Array.fold_left ( +. ) 0. (to_array t)
  let sorted t = Quantile.sorted_copy (to_array t)
end
