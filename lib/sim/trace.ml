module Table = Cap_util.Table

type point = {
  time : float;
  clients : int;
  pqos : float;
  utilization : float;
  reassignments : int;
  unassigned : int;
  down_servers : int;
  components : int;
}

type t = { mutable rev_points : point list }

let create () = { rev_points = [] }
let record t p = t.rev_points <- p :: t.rev_points
let points t = List.rev t.rev_points

let mean_pqos t =
  match t.rev_points with
  | [] -> 0.
  | ps -> List.fold_left (fun acc p -> acc +. p.pqos) 0. ps /. float_of_int (List.length ps)

let min_pqos t = List.fold_left (fun acc p -> min acc p.pqos) 1. t.rev_points

let final t = match t.rev_points with [] -> None | p :: _ -> Some p

let to_table t =
  let table =
    Table.create
      ~headers:
        [ "time"; "clients"; "pQoS"; "util"; "reassigns"; "unassigned"; "down"; "parts" ]
      ()
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.1f" p.time;
          string_of_int p.clients;
          Table.cell_float ~decimals:3 p.pqos;
          Table.cell_float ~decimals:3 p.utilization;
          string_of_int p.reassignments;
          string_of_int p.unassigned;
          string_of_int p.down_servers;
          string_of_int p.components;
        ])
    (points t);
  table

let to_csv t = Table.to_csv (to_table t)

let csv_header = "time,clients,pQoS,util,reassigns,unassigned,down,parts"

type parse_error = {
  line : int;
  field : string;
  value : string;
  reason : string;
}

let describe_error e =
  Printf.sprintf "line %d: field %s = %S: %s" e.line e.field e.value e.reason

exception Parse of parse_error

let columns =
  [ "time"; "clients"; "pQoS"; "util"; "reassigns"; "unassigned"; "down"; "parts" ]

(* Tolerate CRLF line endings and a trailing newline: strip a final
   '\r' per line and ignore blank lines (tracking original numbers so
   diagnostics still point at the right place). *)
let numbered_lines csv =
  String.split_on_char '\n' csv
  |> List.mapi (fun i l ->
         let l =
           let n = String.length l in
           if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
         in
         (i + 1, l))
  |> List.filter (fun (_, l) -> String.trim l <> "")

let parse_row ~line row =
  let fields = String.split_on_char ',' row in
  if List.length fields <> List.length columns then
    raise
      (Parse
         {
           line;
           field = "row";
           value = row;
           reason =
             Printf.sprintf "expected %d comma-separated fields, got %d"
               (List.length columns) (List.length fields);
         });
  let cell i = List.nth fields i in
  let bad i reason =
    raise (Parse { line; field = List.nth columns i; value = cell i; reason })
  in
  let float_at i =
    match float_of_string_opt (cell i) with
    | Some f when not (Float.is_nan f) -> f
    | Some _ -> bad i "must not be NaN"
    | None -> bad i "not a number"
  in
  let int_at i =
    match int_of_string_opt (cell i) with
    | Some n -> n
    | None -> bad i "not an integer"
  in
  {
    time = float_at 0;
    clients = int_at 1;
    pqos = float_at 2;
    utilization = float_at 3;
    reassignments = int_at 4;
    unassigned = int_at 5;
    down_servers = int_at 6;
    components = int_at 7;
  }

let parse_csv csv =
  match numbered_lines csv with
  | [] -> Error { line = 1; field = "header"; value = ""; reason = "empty input" }
  | (header_line, header) :: rows -> (
      try
        if String.trim header <> csv_header then
          raise
            (Parse
               {
                 line = header_line;
                 field = "header";
                 value = header;
                 reason = "expected " ^ csv_header;
               });
        let t = create () in
        List.iter (fun (line, row) -> record t (parse_row ~line row)) rows;
        Ok t
      with Parse e -> Error e)
