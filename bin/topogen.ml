(* topogen — generate a topology and print its structural statistics:
   node/edge counts, degree distribution, delay quantiles, RTT max.
   Useful for validating the synthetic topologies against the paper's
   description (500 nodes, 20 ASes, Internet-like degrees).

   Every generated topology is exercised as a full DVE world and run
   through Cap_model.Validate before any output is written: a scenario
   whose notation is malformed, or a world whose delay model comes out
   asymmetric, disconnected or NaN-ridden, is reported as structured
   (field, value, reason) diagnostics on stderr and the tool exits
   with the validation status (2). *)

module Rng = Cap_util.Rng
module Stats = Cap_util.Stats
module Table = Cap_util.Table
module Scenario = Cap_model.Scenario
module World = Cap_model.World
module Validate = Cap_model.Validate

open Cmdliner

let exit_validation = 2

let describe graph delay world =
  let degrees = Array.map float_of_int (Cap_topology.Graph.degree_array graph) in
  let n = Cap_topology.Delay.node_count delay in
  let delays = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      delays := Cap_topology.Delay.rtt delay u v :: !delays
    done
  done;
  let delays = Array.of_list !delays in
  let table = Table.create ~headers:[ "statistic"; "value" ] () in
  let add k v = Table.add_row table [ k; v ] in
  add "nodes" (string_of_int (Cap_topology.Graph.node_count graph));
  add "edges" (string_of_int (Cap_topology.Graph.edge_count graph));
  add "connected" (string_of_bool (Cap_topology.Graph.is_connected graph));
  add "mean degree" (Printf.sprintf "%.2f" (Stats.mean degrees));
  add "max degree" (Printf.sprintf "%.0f" (Stats.max_value degrees));
  add "RTT p50 (ms)" (Printf.sprintf "%.1f" (Stats.quantile delays 0.5));
  add "RTT p90 (ms)" (Printf.sprintf "%.1f" (Stats.quantile delays 0.9));
  add "RTT max (ms)" (Printf.sprintf "%.1f" (Stats.max_value delays));
  add "P(RTT <= 250ms)"
    (Printf.sprintf "%.3f" (Stats.Cdf.eval (Stats.Cdf.of_samples delays) 250.));
  Table.add_separator table;
  add "world servers" (string_of_int (World.server_count world));
  add "world zones" (string_of_int (World.zone_count world));
  add "world clients" (string_of_int (World.client_count world));
  add "capacity / demand"
    (Printf.sprintf "%.2f" (World.total_capacity world /. World.total_demand world));
  table

let report_issues issues =
  List.iter (fun i -> prerr_endline (Validate.describe i)) issues;
  Printf.eprintf "topogen: %d validation issue(s); nothing written\n"
    (List.length issues)

let write_output out table =
  let rendered = Table.render table in
  match out with
  | None -> print_string rendered
  | Some path ->
      let oc = open_out path in
      output_string oc rendered;
      close_out oc;
      Printf.printf "wrote %s\n" path

let run kind seed scenario n_as routers access max_rtt out =
  match Validate.scenario_notation scenario with
  | Error issue ->
      report_issues [ issue ];
      exit_validation
  | Ok base -> (
      let topology =
        match kind with
        | "brite" ->
            Ok
              (Scenario.Brite
                 {
                   Cap_topology.Hierarchical.default_params with
                   n_as;
                   routers_per_as = routers;
                 })
        | "att" -> Ok (Scenario.Att_backbone { access_nodes = access })
        | "ts" -> Ok (Scenario.Transit_stub Cap_topology.Transit_stub.default_params)
        | other ->
            Error
              {
                Validate.field = "kind";
                value = other;
                reason = "expected brite, att or ts";
              }
      in
      match topology with
      | Error issue ->
          report_issues [ issue ];
          exit_validation
      | Ok topology -> (
          let scenario = { base with Scenario.topology; max_rtt } in
          let rng = Rng.create ~seed in
          let graph =
            match topology with
            | Scenario.Brite params ->
                (Cap_topology.Hierarchical.generate rng params).Cap_topology.Hierarchical.graph
            | Scenario.Att_backbone { access_nodes } ->
                (Cap_topology.Backbone.generate rng ~access_nodes).Cap_topology.Backbone.graph
            | Scenario.Transit_stub params ->
                (Cap_topology.Transit_stub.generate rng params).Cap_topology.Transit_stub.graph
          in
          let delay = Cap_topology.Delay.create graph ~max_rtt in
          (* Exercise the topology as a full DVE world and validate it
             structurally before writing anything. *)
          let world = World.generate (Rng.create ~seed) scenario in
          match Validate.world world with
          | _ :: _ as issues ->
              report_issues issues;
              exit_validation
          | [] ->
              write_output out (describe graph delay world);
              0))

let () =
  let kind =
    Arg.(value & opt string "brite" & info [ "kind"; "k" ] ~docv:"KIND" ~doc:"brite, att or ts (transit-stub)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Random seed.") in
  let scenario =
    let doc = "DVE scenario in paper notation; the generated topology is validated by \
               building this world on top of it." in
    Arg.(value & opt string "20s-80z-1000c-500cp" & info [ "scenario" ] ~docv:"CONF" ~doc)
  in
  let n_as = Arg.(value & opt int 20 & info [ "as" ] ~docv:"N" ~doc:"ASes (brite).") in
  let routers =
    Arg.(value & opt int 25 & info [ "routers" ] ~docv:"N" ~doc:"Routers per AS (brite).")
  in
  let access =
    Arg.(value & opt int 475 & info [ "access" ] ~docv:"N" ~doc:"Access nodes (att).")
  in
  let max_rtt =
    Arg.(value & opt float 500. & info [ "max-rtt" ] ~docv:"MS" ~doc:"Normalized maximum RTT.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the statistics table to FILE \
                                                  instead of stdout (only after validation).")
  in
  let term =
    Term.(const run $ kind $ seed $ scenario $ n_as $ routers $ access $ max_rtt $ out)
  in
  let info = Cmd.info "topogen" ~doc:"Generate a topology, validate it as a DVE world, and print its statistics." in
  exit (Cmd.eval' (Cmd.v info term))
