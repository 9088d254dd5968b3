module Metrics = Cap_obs.Metrics

let magic = "CAPWAL/1\n"
let magic_bytes = String.length magic
let seg_magic = "CAPWAL/2\n"
let seg_magic_bytes = String.length seg_magic
let seg_header_bytes = seg_magic_bytes + 8 (* magic | u64_be first_index *)
let header_bytes = 8
let max_payload_bytes = Proto.max_line_bytes
let torn_counter () = Metrics.Counter.create "service/wal_torn_records"

let write_errors_counter () =
  Metrics.Counter.create
    ~help:"failed WAL write(2) calls (ENOSPC/EIO); each trips degraded mode"
    "service/wal_write_errors"

let rotations_counter () =
  Metrics.Counter.create ~help:"WAL segment rotations" "service/wal_rotations"

let gc_counter () =
  Metrics.Counter.create ~help:"WAL segments deleted by snapshot-anchored GC"
    "service/wal_gc_segments"

let bytes_gauge () =
  Metrics.Gauge.create ~help:"bytes across all live WAL segments"
    "service/wal_bytes"

let segments_gauge () =
  Metrics.Gauge.create ~help:"live WAL segment files" "service/wal_segments"

exception Write_error of { path : string; error : Unix.error }
exception Fsync_error of { path : string; error : Unix.error }

let () =
  Printexc.register_printer (function
    | Write_error { path; error } ->
        Some
          (Printf.sprintf "Wal.Write_error(%s: %s)" path
             (Unix.error_message error))
    | Fsync_error { path; error } ->
        Some
          (Printf.sprintf "Wal.Fsync_error(%s: %s)" path
             (Unix.error_message error))
    | _ -> None)

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven. *)
let crc_table =
  lazy
    (let table = Array.make 256 0l in
     for n = 0 to 255 do
       let c = ref (Int32.of_int n) in
       for _ = 0 to 7 do
         if Int32.logand !c 1l <> 0l then
           c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
         else c := Int32.shift_right_logical !c 1
       done;
       table.(n) <- !c
     done;
     table)

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let encode payload =
  let n = String.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.set_int32_be b 4 (crc32 payload);
  Bytes.blit_string payload 0 b header_bytes n;
  b

(* ---------- naming ---------- *)

let seg_name base n = Printf.sprintf "%s.%06d" base n
let manifest_path base = base ^ ".manifest"
let manifest_magic = "capwal-manifest/1"

(* Discover segment files [base.NNNNNN] next to [base]. *)
let segments_on_disk (io : Io.t) base =
  let dir = Filename.dirname base in
  let name = Filename.basename base ^ "." in
  let plen = String.length name in
  let parse entry =
    if
      String.length entry = plen + 6
      && String.sub entry 0 plen = name
      && String.for_all
           (fun c -> c >= '0' && c <= '9')
           (String.sub entry plen 6)
    then int_of_string_opt (String.sub entry plen 6)
    else None
  in
  match io.list_dir dir with
  | exception (Sys_error _ | Unix.Unix_error _) -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map parse
      |> List.sort compare
      |> List.map (fun n -> (n, seg_name base n))

let log_exists ?(io = Io.real) ~path () =
  io.exists path || segments_on_disk io path <> []

(* ---------- scanning ---------- *)

type tail =
  | Clean
  | Torn of string

type read_error =
  | Io of string
  | Bad_magic
  | Corrupted of { index : int; reason : string }

let describe_tail = function
  | Clean -> "clean"
  | Torn reason -> Printf.sprintf "torn tail (%s)" reason

let describe_read_error = function
  | Io m -> Printf.sprintf "wal: %s" m
  | Bad_magic -> "wal: bad magic (not a CAPWAL file)"
  | Corrupted { index; reason } ->
      Printf.sprintf "wal: record %d corrupted: %s" index reason

(* Scan [data] from byte [start], first record numbered [first_index].
   Returns the records in order, the tail state, and the byte offset
   one past the last valid record (the truncation point for repair).

   Torn vs corrupted: damage at the very end of the file is what a
   crash mid-append leaves behind, so it is survivable — a truncated
   header, a truncated payload, or a CRC failure on the *final* record
   all scan as [Torn]. A CRC failure with more data after it, or a
   length field no writer could have produced, means the middle of the
   log is damaged and replay cannot be trusted: [Corrupted]. *)
let scan data start ~first_index =
  let len = String.length data in
  let records = ref [] in
  let rec go pos index =
    if pos = len then Ok (List.rev !records, Clean, pos)
    else if len - pos < header_bytes then
      Ok (List.rev !records, Torn "truncated record header", pos)
    else
      let n = Int32.to_int (String.get_int32_be data pos) in
      if n < 0 || n > max_payload_bytes then
        Error
          (Corrupted
             {
               index;
               reason = Printf.sprintf "implausible record length %d" n;
             })
      else if len - pos - header_bytes < n then
        Ok (List.rev !records, Torn "truncated record payload", pos)
      else
        let stored = String.get_int32_be data (pos + 4) in
        let payload = String.sub data (pos + header_bytes) n in
        if crc32 payload <> stored then
          if pos + header_bytes + n = len then
            Ok (List.rev !records, Torn "crc mismatch on final record", pos)
          else Error (Corrupted { index; reason = "crc mismatch" })
        else begin
          records := payload :: !records;
          go (pos + header_bytes + n) (index + 1)
        end
  in
  go start first_index

let is_magic_prefix data =
  String.length data <= magic_bytes
  && data = String.sub magic 0 (String.length data)

(* Read a whole legacy file and locate the valid prefix. *)
let read_raw ?(io = Io.real) ~path () =
  match io.read_file path with
  | exception Sys_error m -> Error (Io m)
  | data ->
      if String.length data < magic_bytes then
        if is_magic_prefix data then Ok ([], Torn "truncated magic", 0)
        else Error Bad_magic
      else if String.sub data 0 magic_bytes <> magic then Error Bad_magic
      else scan data magic_bytes ~first_index:0

let note_torn = function
  | Torn _ -> Metrics.Counter.incr (torn_counter ())
  | Clean -> ()

(* ---------- segment reading ---------- *)

type seg_info = {
  s_num : int;
  s_path : string;
  s_first : int; (* absolute index of the segment's first record *)
  s_records : string list;
  s_valid_end : int; (* byte offset past the last valid record *)
  s_tail : tail;
  s_header_torn : bool; (* crash mid-rotation: header incomplete *)
}

type seg_read =
  | Seg_ok of seg_info
  | Seg_header_torn
  | Seg_bad of read_error

let read_segment (io : Io.t) num path =
  match io.read_file path with
  | exception Sys_error m -> Seg_bad (Io m)
  | data ->
      let len = String.length data in
      if len < seg_magic_bytes then
        if data = String.sub seg_magic 0 len then Seg_header_torn
        else Seg_bad Bad_magic
      else if String.sub data 0 seg_magic_bytes <> seg_magic then
        Seg_bad Bad_magic
      else if len < seg_header_bytes then Seg_header_torn
      else
        let first = Int64.to_int (String.get_int64_be data seg_magic_bytes) in
        if first < 0 then
          Seg_bad
            (Corrupted { index = 0; reason = "implausible segment base index" })
        else begin
          match scan data seg_header_bytes ~first_index:first with
          | Error e -> Seg_bad e
          | Ok (records, tail, valid_end) ->
              Seg_ok
                {
                  s_num = num;
                  s_path = path;
                  s_first = first;
                  s_records = records;
                  s_valid_end = valid_end;
                  s_tail = tail;
                  s_header_torn = false;
                }
        end

(* Load every live segment, enforcing the invariants a correct writer
   maintains: consecutive segment numbers, record indexes that chain
   (each segment starts where the previous ended), and damage confined
   to the final segment. A torn header is only decipherable when the
   previous segment pins the expected base index (or it is segment 1,
   whose base is 0). The manifest is advisory — this function never
   reads it, so a corrupt or missing manifest cannot block recovery. *)
let load_segmented (io : Io.t) base =
  match segments_on_disk io base with
  | [] -> Error (Io (base ^ ": no log"))
  | (first_num, _) :: _ as segs ->
      let rec go acc expected_first = function
        | [] -> Ok (List.rev acc)
        | (num, path) :: rest ->
            let last = rest = [] in
            (match acc with
            | (prev : seg_info) :: _ when num <> prev.s_num + 1 ->
                Error
                  (Corrupted
                     {
                       index = Option.value expected_first ~default:0;
                       reason = Printf.sprintf "missing segment %06d" (prev.s_num + 1);
                     })
            | _ -> (
                match read_segment io num path with
                | Seg_bad e -> Error e
                | Seg_header_torn ->
                    let known =
                      match expected_first with
                      | Some f -> Some f
                      | None -> if num = 1 then Some 0 else None
                    in
                    if not last then
                      Error
                        (Corrupted
                           {
                             index = 0;
                             reason =
                               Printf.sprintf
                                 "segment %06d has a torn header mid-log" num;
                           })
                    else (
                      match known with
                      | None ->
                          Error
                            (Corrupted
                               {
                                 index = 0;
                                 reason =
                                   Printf.sprintf
                                     "segment %06d: torn header with no \
                                      predecessor to anchor it"
                                     num;
                               })
                      | Some f ->
                          go
                            ({
                               s_num = num;
                               s_path = path;
                               s_first = f;
                               s_records = [];
                               s_valid_end = 0;
                               s_tail = Torn "truncated segment header";
                               s_header_torn = true;
                             }
                             :: acc)
                            (Some f) rest)
                | Seg_ok info ->
                    (match expected_first with
                    | Some f when info.s_first <> f ->
                        Error
                          (Corrupted
                             {
                               index = f;
                               reason =
                                 Printf.sprintf
                                   "segment %06d claims base %d, expected %d"
                                   num info.s_first f;
                             })
                    | _ ->
                        if (not last) && info.s_tail <> Clean then
                          Error
                            (Corrupted
                               {
                                 index = info.s_first + List.length info.s_records;
                                 reason =
                                   Printf.sprintf
                                     "%s mid-log in segment %06d"
                                     (describe_tail info.s_tail) num;
                               })
                        else
                          go (info :: acc)
                            (Some (info.s_first + List.length info.s_records))
                            rest)))
      in
      ignore first_num;
      go [] None segs

type log_info = {
  li_records : string list;
  li_base : int;
  li_tail : tail;
  li_segments : (int * int) list; (* (segment number, first index); [] = legacy *)
}

let read_log ?(io = Io.real) ~path () =
  if segments_on_disk io path <> [] then
    match load_segmented io path with
    | Error _ as e -> e
    | Ok infos ->
        let tail = (List.nth infos (List.length infos - 1)).s_tail in
        note_torn tail;
        Ok
          {
            li_records = List.concat_map (fun s -> s.s_records) infos;
            li_base = (List.hd infos).s_first;
            li_tail = tail;
            li_segments = List.map (fun s -> (s.s_num, s.s_first)) infos;
          }
  else
    match read_raw ~io ~path () with
    | Error _ as e -> e
    | Ok (records, tail, _) ->
        note_torn tail;
        Ok { li_records = records; li_base = 0; li_tail = tail; li_segments = [] }

let read ?io ~path () =
  match read_log ?io ~path () with
  | Error _ as e -> e
  | Ok info -> Ok (info.li_records, info.li_tail)

(* ---------- writer ---------- *)

type writer = {
  io : Io.t;
  base : string;
  fsync_every : int;
  segment_bytes : int option; (* None: never rotate *)
  mutable seg : int; (* 0 = legacy single file at [base] *)
  mutable file : Io.file;
  mutable seg_first : int; (* absolute index of current segment's record 0 *)
  mutable seg_size : int; (* bytes in the current segment, header included *)
  mutable live : (int * int * int) list;
      (* closed live segments, ascending: (number, first index, bytes) *)
  mutable total_bytes : int;
  mutable base_index : int; (* absolute index of the oldest surviving record *)
  mutable written : int; (* absolute count = next record index *)
  mutable pending_sync : int;
  mutable poisoned : exn option; (* a failed fsync is never retried *)
  mutable closed : bool;
}

let write_all f b =
  let len = Bytes.length b in
  let rec go off = if off < len then go (off + f.Io.f_write b off (len - off)) in
  go 0

let write_exn path f b =
  try write_all f b
  with Unix.Unix_error (e, _, _) ->
    Metrics.Counter.incr (write_errors_counter ());
    raise (Write_error { path; error = e })

let writer_path w = w.base
let records_written w = w.written
let base_index w = w.base_index
let total_bytes w = w.total_bytes

let active_path w = if w.seg = 0 then w.base else seg_name w.base w.seg

let segments w =
  if w.seg = 0 then []
  else List.map (fun (n, f, _) -> (n, f)) w.live @ [ (w.seg, w.seg_first) ]

let set_gauges w =
  Metrics.Gauge.set (bytes_gauge ()) (float_of_int w.total_bytes);
  Metrics.Gauge.set (segments_gauge ())
    (float_of_int (List.length w.live + 1))

let seg_header first =
  let b = Bytes.create seg_header_bytes in
  Bytes.blit_string seg_magic 0 b 0 seg_magic_bytes;
  Bytes.set_int64_be b seg_magic_bytes (Int64.of_int first);
  b

(* Best effort and advisory: readers rebuild the same information from
   segment headers, so a lost or torn manifest is never fatal. *)
let write_manifest w =
  if w.seg > 0 then begin
    let buf = Buffer.create 128 in
    Buffer.add_string buf manifest_magic;
    Buffer.add_char buf '\n';
    List.iter
      (fun (n, first) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" n first))
      (segments w);
    let target = manifest_path w.base in
    let tmp = target ^ ".tmp" in
    try
      let f = w.io.open_out_ ~create:true ~trunc:true tmp in
      write_all f (Buffer.to_bytes buf);
      f.f_close ();
      w.io.rename tmp target
    with Unix.Unix_error _ | Sys_error _ -> ()
  end

let check_open w what =
  (match w.poisoned with Some e -> raise e | None -> ());
  if w.closed then invalid_arg (Printf.sprintf "Wal.%s: closed writer" what)

let sync w =
  check_open w "sync";
  if w.pending_sync > 0 then begin
    match w.file.f_fsync () with
    | () -> w.pending_sync <- 0
    | exception Unix.Unix_error (e, _, _) ->
        (* fsyncgate: after a failed fsync the kernel may have dropped
           the dirty pages while clearing the error — retrying can
           "succeed" without the data being on disk. Poison the writer
           so every later append/sync refuses. *)
        let exn = Fsync_error { path = active_path w; error = e } in
        w.poisoned <- Some exn;
        raise exn
  end

let rotate w =
  sync w;
  let next = w.seg + 1 in
  let path = seg_name w.base next in
  let f = w.io.open_out_ ~create:true ~trunc:true path in
  write_exn path f (seg_header w.written);
  (try w.file.f_close () with Unix.Unix_error _ -> ());
  w.live <- w.live @ [ (w.seg, w.seg_first, w.seg_size) ];
  w.seg <- next;
  w.file <- f;
  w.seg_first <- w.written;
  w.seg_size <- seg_header_bytes;
  w.total_bytes <- w.total_bytes + seg_header_bytes;
  Metrics.Counter.incr (rotations_counter ());
  set_gauges w;
  write_manifest w

let append w payload =
  check_open w "append";
  if String.length payload > max_payload_bytes then
    invalid_arg "Wal.append: payload exceeds max_line_bytes";
  (match w.segment_bytes with
  | Some limit when w.seg > 0 && w.seg_size >= limit && w.written > w.seg_first
    ->
      rotate w
  | _ -> ());
  (* A plain write() suffices for process-crash durability: the bytes
     live in the page cache once the syscall returns, so a SIGKILL of
     this process cannot lose them. fsync batching below is only about
     machine crashes. *)
  let b = encode payload in
  write_exn (active_path w) w.file b;
  w.written <- w.written + 1;
  w.seg_size <- w.seg_size + Bytes.length b;
  w.total_bytes <- w.total_bytes + Bytes.length b;
  w.pending_sync <- w.pending_sync + 1;
  Metrics.Gauge.set (bytes_gauge ()) (float_of_int w.total_bytes);
  if w.fsync_every > 0 && w.pending_sync >= w.fsync_every then sync w

let close_writer w =
  if not w.closed then begin
    w.closed <- true;
    Fun.protect
      ~finally:(fun () ->
        try w.file.f_close () with Unix.Unix_error _ -> ())
      (fun () ->
        (* A poisoned writer already surfaced its fsync failure; a
           healthy one must not report a clean close it cannot back. *)
        if w.poisoned = None && w.pending_sync > 0 then begin
          match w.file.f_fsync () with
          | () -> w.pending_sync <- 0
          | exception Unix.Unix_error (e, _, _) ->
              let exn = Fsync_error { path = active_path w; error = e } in
              w.poisoned <- Some exn;
              raise exn
        end)
  end

let create_writer ?(io = Io.real) ?(fsync_every = 32) ?segment_bytes ~path () =
  match segment_bytes with
  | None ->
      let f = io.open_out_ ~create:true ~trunc:true path in
      write_exn path f (Bytes.of_string magic);
      let w =
        {
          io;
          base = path;
          fsync_every;
          segment_bytes = None;
          seg = 0;
          file = f;
          seg_first = 0;
          seg_size = magic_bytes;
          live = [];
          total_bytes = magic_bytes;
          base_index = 0;
          written = 0;
          pending_sync = 0;
          poisoned = None;
          closed = false;
        }
      in
      set_gauges w;
      w
  | Some limit ->
      if limit <= 0 then invalid_arg "Wal.create_writer: segment_bytes <= 0";
      (* Clear any stale namespace so recovery never sees a mix of old
         and new logs. *)
      List.iter
        (fun (_, p) -> try io.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
        (segments_on_disk io path);
      (try io.unlink (manifest_path path)
       with Unix.Unix_error _ | Sys_error _ -> ());
      (try if io.exists path then io.unlink path
       with Unix.Unix_error _ | Sys_error _ -> ());
      let p1 = seg_name path 1 in
      let f = io.open_out_ ~create:true ~trunc:true p1 in
      write_exn p1 f (seg_header 0);
      let w =
        {
          io;
          base = path;
          fsync_every;
          segment_bytes = Some limit;
          seg = 1;
          file = f;
          seg_first = 0;
          seg_size = seg_header_bytes;
          live = [];
          total_bytes = seg_header_bytes;
          base_index = 0;
          written = 0;
          pending_sync = 0;
          poisoned = None;
          closed = false;
        }
      in
      set_gauges w;
      write_manifest w;
      w

let open_append ?(io = Io.real) ?(fsync_every = 32) ?segment_bytes ~path () =
  if segments_on_disk io path <> [] then (
    match load_segmented io path with
    | Error _ as e -> e
    | Ok infos -> (
        let last = List.nth infos (List.length infos - 1) in
        note_torn last.s_tail;
        match
          let f = io.open_out_ ~create:false ~trunc:false last.s_path in
          if last.s_header_torn then begin
            (* crash mid-rotation: rebuild the header the writer was
               about to finish — the previous segment anchors its base *)
            f.f_truncate 0;
            f.f_seek 0;
            write_all f (seg_header last.s_first)
          end
          else begin
            f.f_truncate last.s_valid_end;
            ignore (f.f_seek_end ())
          end;
          f
        with
        | exception Unix.Unix_error (e, _, _) ->
            Error (Io (Unix.error_message e))
        | f ->
            let records = List.concat_map (fun s -> s.s_records) infos in
            let closed_segs =
              List.filteri (fun i _ -> i < List.length infos - 1) infos
            in
            let live =
              List.map (fun s -> (s.s_num, s.s_first, s.s_valid_end)) closed_segs
            in
            let seg_size =
              if last.s_header_torn then seg_header_bytes else last.s_valid_end
            in
            let w =
              {
                io;
                base = path;
                fsync_every;
                segment_bytes;
                seg = last.s_num;
                file = f;
                seg_first = last.s_first;
                seg_size;
                live;
                total_bytes =
                  List.fold_left (fun a (_, _, b) -> a + b) seg_size live;
                base_index = (List.hd infos).s_first;
                written = last.s_first + List.length last.s_records;
                pending_sync = 0;
                poisoned = None;
                closed = false;
              }
            in
            set_gauges w;
            write_manifest w;
            Ok (w, records)))
  else if Option.is_some segment_bytes && io.exists path then
    Error
      (Io
         (Printf.sprintf
            "%s is a single-file CAPWAL/1 log; segment rotation needs a fresh \
             --wal path"
            path))
  else
    match read_raw ~io ~path () with
    | Error _ as e -> e
    | Ok (records, tail, valid_end) ->
        note_torn tail;
        let valid_end = max valid_end magic_bytes in
        (match
           let f = io.open_out_ ~create:false ~trunc:false path in
           (* Repair: drop the torn tail (and a truncated magic) so new
              appends start on a record boundary. *)
           f.f_truncate valid_end;
           if valid_end = magic_bytes then begin
             f.f_seek 0;
             write_all f (Bytes.of_string magic)
           end;
           ignore (f.f_seek_end ());
           f
         with
        | exception Unix.Unix_error (e, _, _) ->
            Error (Io (Unix.error_message e))
        | f ->
            let w =
              {
                io;
                base = path;
                fsync_every;
                segment_bytes = None;
                seg = 0;
                file = f;
                seg_first = 0;
                seg_size = valid_end;
                live = [];
                total_bytes = valid_end;
                base_index = 0;
                written = List.length records;
                pending_sync = 0;
                poisoned = None;
                closed = false;
              }
            in
            set_gauges w;
            Ok (w, records))

(* ---------- snapshot-anchored GC ---------- *)

(* Delete closed segments every record of which is below [covered] —
   i.e. whose successor's first index is <= covered. Only a prefix is
   ever deleted and the active segment never is, so the log always
   chains from [base_index] to the tip. After GC, replay-from-zero is
   impossible by design: recovery needs the snapshot that anchored it. *)
let gc w ~covered =
  check_open w "gc";
  if w.seg = 0 then 0
  else begin
    let rec prune deleted freed = function
      | ((num, _first, size) :: rest) as live ->
          let next_first =
            match rest with (_, f, _) :: _ -> f | [] -> w.seg_first
          in
          if next_first <= covered then (
            match w.io.unlink (seg_name w.base num) with
            | () -> prune (deleted + 1) (freed + size) rest
            | exception (Unix.Unix_error _ | Sys_error _) ->
                (deleted, freed, live))
          else (deleted, freed, live)
      | [] -> (deleted, freed, [])
    in
    let deleted, freed, remaining = prune 0 0 w.live in
    if deleted > 0 then begin
      w.live <- remaining;
      w.total_bytes <- w.total_bytes - freed;
      w.base_index <-
        (match remaining with (_, f, _) :: _ -> f | [] -> w.seg_first);
      Metrics.Counter.add (gc_counter ()) (float_of_int deleted);
      set_gauges w;
      write_manifest w
    end;
    deleted
  end

(* ---------- tailer ---------- *)

type tailer = {
  tio : Io.t;
  t_base : string;
  mutable t_seg : int; (* 0 = legacy *)
  mutable t_file : Io.file;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable seen_magic : bool; (* legacy: file magic consumed *)
  mutable t_pos : int; (* absolute index of the next record to scan *)
  t_from : int; (* records below this are skipped, not delivered *)
  mutable t_closed : bool;
}

(* Just the 17-byte header: None when it is not fully on disk yet. *)
let segment_first (io : Io.t) path =
  match io.open_in_ path with
  | exception (Unix.Unix_error _ | Sys_error _) -> None
  | f ->
      Fun.protect
        ~finally:(fun () -> try f.f_close () with Unix.Unix_error _ -> ())
        (fun () ->
          let b = Bytes.create seg_header_bytes in
          let rec fill off =
            if off >= seg_header_bytes then off
            else
              match f.f_read b off (seg_header_bytes - off) with
              | 0 -> off
              | k -> fill (off + k)
              | exception Unix.Unix_error _ -> off
          in
          if fill 0 < seg_header_bytes then None
          else if Bytes.sub_string b 0 seg_magic_bytes <> seg_magic then None
          else Some (Int64.to_int (Bytes.get_int64_be b seg_magic_bytes)))

let open_tailer ?(io = Io.real) ?(from = 0) ~path () =
  match segments_on_disk io path with
  | [] -> (
      match io.open_in_ path with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Io (Unix.error_message e))
      | exception Sys_error m -> Error (Io m)
      | f ->
          Ok
            {
              tio = io;
              t_base = path;
              t_seg = 0;
              t_file = f;
              buf = Buffer.create 4096;
              chunk = Bytes.create 65536;
              seen_magic = false;
              t_pos = 0;
              t_from = from;
              t_closed = false;
            })
  | segs -> (
      (* Start at the newest segment whose base is <= [from], so a
         snapshot-bootstrapped follower never reads GC'd ground. *)
      let headed =
        List.filter_map
          (fun (n, p) ->
            Option.map (fun first -> (n, p, first)) (segment_first io p))
          segs
      in
      match headed with
      | [] -> Error (Io (path ^ ": segment header not fully written yet"))
      | (_, _, first0) :: _ when from < first0 ->
          Error
            (Io
               (Printf.sprintf
                  "%s: log begins at record %d (older segments were GC'd); \
                   bootstrap from a snapshot"
                  path first0))
      | headed -> (
          let start =
            List.fold_left
              (fun acc (n, p, first) ->
                if first <= from then Some (n, p, first) else acc)
              None headed
          in
          match start with
          | None -> Error (Io (path ^ ": no segment covers the start position"))
          | Some (n, p, first) -> (
              match io.open_in_ p with
              | exception Unix.Unix_error (e, _, _) ->
                  Error (Io (Unix.error_message e))
              | f ->
                  f.f_seek seg_header_bytes;
                  Ok
                    {
                      tio = io;
                      t_base = path;
                      t_seg = n;
                      t_file = f;
                      buf = Buffer.create 4096;
                      chunk = Bytes.create 65536;
                      seen_magic = true;
                      t_pos = first;
                      t_from = from;
                      t_closed = false;
                    })))

let tailer_records t = t.t_pos

let poll t =
  let drain () =
    let rec go () =
      match t.t_file.f_read t.chunk 0 (Bytes.length t.chunk) with
      | 0 -> ()
      | k ->
          Buffer.add_subbytes t.buf t.chunk 0 k;
          go ()
      | exception Unix.Unix_error (e, _, _) ->
          raise (Sys_error (Unix.error_message e))
    in
    go ()
  in
  (* Consume the legacy magic once it is fully on disk. *)
  let legacy_header () =
    if t.t_seg <> 0 || t.seen_magic then Ok true
    else
      let data = Buffer.contents t.buf in
      if String.length data >= magic_bytes then
        if String.sub data 0 magic_bytes = magic then begin
          t.seen_magic <- true;
          let rest = String.sub data magic_bytes (String.length data - magic_bytes) in
          Buffer.clear t.buf;
          Buffer.add_string t.buf rest;
          Ok true
        end
        else Error Bad_magic
      else if is_magic_prefix data then Ok false
      else Error Bad_magic
  in
  let deliver acc records idx0 =
    let fresh =
      if idx0 >= t.t_from then records
      else List.filteri (fun i _ -> idx0 + i >= t.t_from) records
    in
    acc @ fresh
  in
  (* [sealed]: the successor segment exists, so the writer has finished
     this one. It may have appended here between our drain and the
     moment we saw the successor, so the segment is drained once more
     before its end is trusted. *)
  let rec step ~sealed acc =
    match drain () with
    | exception Sys_error m -> Error (Io m)
    | () -> (
        match legacy_header () with
        | Error e -> Error e
        | Ok false -> Ok acc
        | Ok true -> (
            let data = Buffer.contents t.buf in
            match scan data 0 ~first_index:t.t_pos with
            | Error _ as e -> e
            | Ok (records, _tail, consumed) -> (
                (* A torn tail here normally means the next record is
                   still in flight — keep the bytes for the next poll. *)
                let idx0 = t.t_pos in
                t.t_pos <- t.t_pos + List.length records;
                let rest =
                  String.sub data consumed (String.length data - consumed)
                in
                Buffer.clear t.buf;
                Buffer.add_string t.buf rest;
                let acc = deliver acc records idx0 in
                let next = seg_name t.t_base (t.t_seg + 1) in
                if t.t_seg = 0 then Ok acc
                else if not sealed then
                  if t.tio.exists next then step ~sealed:true acc
                  else if t.tio.exists (seg_name t.t_base (t.t_seg + 2)) then
                    Error
                      (Io
                         (Printf.sprintf
                            "tailer outrun by gc: segment %06d is gone"
                            (t.t_seg + 1)))
                  else Ok acc
                else if rest <> "" then
                  (* The writer finishes a segment before creating the
                     next, so leftover bytes with a successor present
                     mean the log is damaged, not in flight. *)
                  Error
                    (Corrupted
                       {
                         index = t.t_pos;
                         reason =
                           Printf.sprintf
                             "dangling bytes at the end of segment %06d"
                             t.t_seg;
                       })
                else
                  match segment_first t.tio next with
                  | None -> Ok acc (* header still being written *)
                  | Some first when first <> t.t_pos ->
                      Error
                        (Corrupted
                           {
                             index = t.t_pos;
                             reason =
                               Printf.sprintf
                                 "segment %06d claims base %d, expected %d"
                                 (t.t_seg + 1) first t.t_pos;
                           })
                  | Some _ -> (
                      match t.tio.open_in_ next with
                      | exception Unix.Unix_error (e, _, _) ->
                          Error (Io (Unix.error_message e))
                      | f ->
                          (try t.t_file.f_close ()
                           with Unix.Unix_error _ -> ());
                          f.f_seek seg_header_bytes;
                          t.t_file <- f;
                          t.t_seg <- t.t_seg + 1;
                          step ~sealed:false acc))))
  in
  step ~sealed:false []

let close_tailer t =
  if not t.t_closed then begin
    t.t_closed <- true;
    try t.t_file.f_close () with Unix.Unix_error _ -> ()
  end
