(* capbench: the end-to-end benchmark of the service and the planner.

   dune exec capbench/main.exe -- [--workload W]... [--seed N]
     [--seconds S] [--trace 0|1] [--spans FILE.jsonl]

   One workload runs in this process and prints one line per metric
   ("workload metric value unit"), then a JSON summary as the last line
   of standard output. Several workloads (or none: all four) run one
   child process each, so every child sizes its own domain pool and
   reads its own peak RSS. The exit code is 0 only when every check of
   every workload passed. *)

open Capbench

let workloads = [ "serve-durable"; "serve-engine"; "plan-exact"; "plan-agg" ]

(* Rounds and repeats scale with --seconds; the constants size a run to
   about --seconds of work on a 2-core x86 VM. A traced round does
   about twice the work, so traced runs do half as many. *)
let run_workload name ~seed ~seconds ~trace ~spans_out =
  let work_dir = Filename.concat "_build" "capbench" in
  let scaled k =
    max 1 (int_of_float (Float.round (k *. seconds /. if trace then 2. else 1.)))
  in
  match name with
  | "serve-durable" ->
      Serve.run Serve.durable ~seed ~events:10_000 ~rounds:(scaled 4.) ~trace ?spans_out
        ~work_dir ()
  | "serve-engine" ->
      Serve.run Serve.engine ~seed ~events:10_000 ~rounds:(scaled 3.) ~trace ?spans_out
        ~work_dir ()
  | "plan-exact" -> Plan.run Plan.exact ~seed ~worlds:8 ~repeats:(scaled 0.5) ~trace ()
  | "plan-agg" -> Plan.run Plan.aggregated ~seed ~worlds:2 ~repeats:(scaled 1.) ~trace ()
  | _ -> invalid_arg name

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let report name ~trace (o : Catalog.outcome) =
  let rss = float_of_int (Common.max_rss_kib ()) /. 1024. in
  let e2e = o.Catalog.end_to_end @ [ ("peak_rss_mib", rss) ] in
  let problems = ref (List.rev o.Catalog.problems) in
  let lookup catalog values ~default =
    List.map
      (fun (metric, unit) ->
        match List.assoc_opt metric values, default with
        | Some v, _ when Float.is_finite v -> (metric, v, unit)
        | Some _, _ ->
            problems := Printf.sprintf "%s is not a finite number" metric :: !problems;
            (metric, nan, unit)
        | None, Some d -> (metric, d, unit)
        | None, None ->
            problems := Printf.sprintf "%s was not measured" metric :: !problems;
            (metric, nan, unit))
      catalog
  in
  let e2e = lookup Catalog.end_to_end e2e ~default:None in
  let layers = if trace then lookup Catalog.per_layer o.Catalog.per_layer ~default:(Some 0.) else [] in
  List.iter (fun note -> Printf.printf "%s # %s\n" name note) o.Catalog.notes;
  List.iter (fun (m, v, u) -> Printf.printf "%s %s %.6g %s\n" name m v u) (e2e @ layers);
  let seen = Hashtbl.create 8 in
  let problems =
    List.filter
      (fun p ->
        let fresh = not (Hashtbl.mem seen p) in
        Hashtbl.replace seen p ();
        fresh)
      (List.rev !problems)
  in
  List.iter (fun p -> Printf.printf "%s CHECK FAILED: %s\n" name p) problems;
  let correct = problems = [] && o.Catalog.failed = 0 in
  let metrics = if trace then layers else e2e in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.Catalog.attempted
    (if correct then 0 else max 1 o.Catalog.failed)
    (String.concat ", "
       (List.map
          (fun (m, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m (json_number v) u)
          metrics));
  correct

let usage () =
  prerr_endline
    "usage: capbench [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--spans \
     FILE.jsonl]";
  prerr_endline ("workloads: " ^ String.concat " " workloads);
  exit 2

let () =
  let chosen = ref [] and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let spans_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
        chosen := !chosen @ [ w ];
        parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest when (match float_of_string_opt s with Some v -> v > 0. | None -> false) ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--spans" :: file :: rest ->
        spans_out := Some file;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let chosen = if !chosen = [] then workloads else !chosen in
  match chosen with
  | [ name ] ->
      let ok =
        match run_workload name ~seed:!seed ~seconds:!seconds ~trace:!trace ~spans_out:!spans_out with
        | outcome -> report name ~trace:!trace outcome
        | exception e ->
            Printf.printf "%s CHECK FAILED: %s\n%!" name (Printexc.to_string e);
            false
      in
      exit (if ok then 0 else 1)
  | names ->
      let child name =
        let args =
          [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int !seed;
            "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; (if !trace then "1" else "0") ]
          @ (match !spans_out with
            | Some f -> [ "--spans"; Printf.sprintf "%s.%s" f name ]
            | None -> [])
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false
      in
      let results = List.map child names in
      exit (if List.for_all Fun.id results then 0 else 1)
