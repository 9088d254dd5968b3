let escape ~quote s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_label_value = escape ~quote:true
let escape_help = escape ~quote:false

let label_string labels =
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
      ^ "}"

let number v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else Printf.sprintf "%.12g" v

let render () =
  let buf = Buffer.create 4096 in
  (* samples come sorted by name, so a metric's series are contiguous:
     one header each, where the name changes *)
  let previous = ref None in
  let header name help kind =
    if !previous <> Some name then begin
      previous := Some name;
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (s : Metrics.sample) ->
      let name = s.Metrics.name and labels = s.Metrics.labels in
      match s.Metrics.data with
      | Metrics.Counter_sample v ->
          header name s.Metrics.help "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (label_string labels) (number v))
      | Metrics.Gauge_sample v ->
          header name s.Metrics.help "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (label_string labels) (number v))
      | Metrics.Histogram_sample h ->
          header name s.Metrics.help "histogram";
          let cumulative = ref 0 in
          Array.iteri
            (fun i c ->
              cumulative := !cumulative + c;
              let le = if i >= Array.length h.bounds then "+Inf" else number h.bounds.(i) in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (label_string (labels @ [ ("le", le) ]))
                   !cumulative))
            h.counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (label_string labels) (number h.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (label_string labels) h.count))
    (Metrics.collect ());
  Buffer.contents buf

let write file =
  let out = open_out file in
  Fun.protect ~finally:(fun () -> close_out out) (fun () -> output_string out (render ()))
