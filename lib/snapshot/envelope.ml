type error =
  | Io_error of { path : string; reason : string }
  | Not_a_snapshot of { path : string }
  | Unsupported_version of { path : string; found : int; expected : int }
  | Truncated of { path : string }
  | Corrupted of { path : string }
  | Wrong_kind of { path : string; found : string; expected : string }
  | Invalid_payload of { path : string; reason : string }

let describe = function
  | Io_error { path; reason } ->
      (* Sys_error messages usually already lead with the path *)
      if String.length reason >= String.length path
         && String.sub reason 0 (String.length path) = path
      then reason
      else Printf.sprintf "%s: %s" path reason
  | Not_a_snapshot { path } -> Printf.sprintf "%s: not a capsim snapshot" path
  | Unsupported_version { path; found; expected } ->
      Printf.sprintf "%s: snapshot format v%d, this binary reads v%d" path found expected
  | Truncated { path } -> Printf.sprintf "%s: truncated snapshot" path
  | Corrupted { path } -> Printf.sprintf "%s: corrupted snapshot (checksum mismatch)" path
  | Wrong_kind { path; found; expected } ->
      Printf.sprintf "%s: snapshot holds %S, expected %S" path found expected
  | Invalid_payload { path; reason } ->
      Printf.sprintf "%s: undecodable snapshot payload (%s)" path reason

let format_version = 5
let magic = "CAPSNAP\n"

(* layout: magic (8) | version i32 | kind length i32 | kind bytes
           | md5 digest (16) | payload length i64 | payload bytes *)

let encode ~kind payload =
  let buf =
    Buffer.create (String.length magic + 32 + String.length kind + String.length payload)
  in
  Buffer.add_string buf magic;
  Buffer.add_int32_be buf (Int32.of_int format_version);
  Buffer.add_int32_be buf (Int32.of_int (String.length kind));
  Buffer.add_string buf kind;
  Buffer.add_string buf (Digest.string payload);
  Buffer.add_int64_be buf (Int64.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Crash consistency: encode to a temp file, fsync it, then rename
   over the target — a reader never sees a half-written snapshot, and
   the rename is only reachable once the payload is durable. All bytes
   go through the injectable [io], so the disk-fault torture exercises
   this path too; any write or fsync failure (ENOSPC, EIO, a failing
   fsync) aborts before the rename, leaving the previous snapshot
   intact, and surfaces as [Io_error]. *)
let write ?(io = Cap_service.Io.real) ~path ~kind payload =
  let tmp = path ^ ".tmp" in
  let cleanup () =
    try if io.exists tmp then io.unlink tmp
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  try
    let f = io.open_out_ ~create:true ~trunc:true tmp in
    (try
       let b = Bytes.of_string (encode ~kind payload) in
       let len = Bytes.length b in
       let rec go off =
         if off < len then go (off + f.Cap_service.Io.f_write b off (len - off))
       in
       go 0;
       f.f_fsync ();
       f.f_close ()
     with e ->
       (try f.f_close () with Sys_error _ | Unix.Unix_error _ -> ());
       raise e);
    io.rename tmp path;
    Ok ()
  with
  | Sys_error reason ->
      cleanup ();
      Error (Io_error { path; reason })
  | Unix.Unix_error (e, op, _) ->
      cleanup ();
      Error
        (Io_error
           { path; reason = Printf.sprintf "%s: %s" op (Unix.error_message e) })

(* Cursor-style decoding: every read is bounds-checked so a short file
   becomes [Truncated], never an exception. *)
let decode ~path ~kind raw =
  let len = String.length raw in
  let pos = ref 0 in
  let take n =
    if !pos + n > len then Error (Truncated { path })
    else begin
      let s = String.sub raw !pos n in
      pos := !pos + n;
      Ok s
    end
  in
  let ( let* ) = Result.bind in
  let* found_magic = take (String.length magic) in
  if found_magic <> magic then Error (Not_a_snapshot { path })
  else
    let* version = take 4 in
    let version = Int32.to_int (String.get_int32_be version 0) in
    if version <> format_version then
      Error (Unsupported_version { path; found = version; expected = format_version })
    else
      let* kind_len = take 4 in
      let kind_len = Int32.to_int (String.get_int32_be kind_len 0) in
      if kind_len < 0 || kind_len > len then Error (Truncated { path })
      else
        let* found_kind = take kind_len in
        if found_kind <> kind then
          Error (Wrong_kind { path; found = found_kind; expected = kind })
        else
          let* digest = take 16 in
          let* payload_len = take 8 in
          let payload_len = Int64.to_int (String.get_int64_be payload_len 0) in
          if payload_len < 0 || !pos + payload_len > len then Error (Truncated { path })
          else
            let* payload = take payload_len in
            if !pos <> len then Error (Corrupted { path })
            else if Digest.string payload <> digest then Error (Corrupted { path })
            else Ok payload

let read ~path ~kind =
  match In_channel.with_open_bin path In_channel.input_all with
  | raw -> decode ~path ~kind raw
  | exception Sys_error reason -> Error (Io_error { path; reason })
