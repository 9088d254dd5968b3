(* Injectable I/O: every byte the durability stack writes (WAL
   segments, snapshot envelopes, manifests) goes through one of these
   records, so tests and the disk-fault torture can substitute an
   in-memory filesystem, record the write stream for every-prefix
   crash replay, or inject scheduled EIO/ENOSPC/short-write/fsync
   faults and power cuts — deterministically, from a seed. *)

type file = {
  f_write : bytes -> int -> int -> int;
  f_read : bytes -> int -> int -> int;
  f_fsync : unit -> unit;
  f_truncate : int -> unit;
  f_seek : int -> unit;
  f_seek_end : unit -> int;
  f_close : unit -> unit;
}

type t = {
  open_out_ : create:bool -> trunc:bool -> string -> file;
  open_in_ : string -> file;
  read_file : string -> string;
  rename : string -> string -> unit;
  unlink : string -> unit;
  exists : string -> bool;
  list_dir : string -> string array;
}

(* ---------- the real filesystem ---------- *)

let real_file fd path =
  {
    f_write = (fun b off len -> Unix.write fd b off len);
    f_read = (fun b off len -> Unix.read fd b off len);
    f_fsync = (fun () -> Unix.fsync fd);
    f_truncate = (fun len -> Unix.ftruncate fd len);
    f_seek = (fun pos -> ignore (Unix.lseek fd pos Unix.SEEK_SET));
    f_seek_end = (fun () -> Unix.lseek fd 0 Unix.SEEK_END);
    f_close =
      (fun () ->
        try Unix.close fd
        with Unix.Unix_error (e, _, _) ->
          raise (Unix.Unix_error (e, "close", path)));
  }

let real =
  {
    open_out_ =
      (fun ~create ~trunc path ->
        let flags =
          [ Unix.O_WRONLY; Unix.O_CLOEXEC ]
          @ (if create then [ Unix.O_CREAT ] else [])
          @ if trunc then [ Unix.O_TRUNC ] else []
        in
        real_file (Unix.openfile path flags 0o644) path);
    open_in_ =
      (fun path ->
        real_file (Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0o644) path);
    read_file =
      (fun path ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic)));
    rename = (fun src dst -> Sys.rename src dst);
    unlink = (fun path -> Unix.unlink path);
    exists = (fun path -> Sys.file_exists path);
    list_dir = (fun path -> Sys.readdir path);
  }

(* ---------- in-memory filesystem with a write journal ---------- *)

module Mem = struct
  type entry =
    | Open of { path : string; create : bool; trunc : bool }
    | Write of { path : string; pos : int; data : string }
    | Truncate of { path : string; len : int }
    | Rename of { src : string; dst : string }
    | Unlink of string

  type mfile = { mutable data : Bytes.t; mutable len : int }

  type fs = {
    files : (string, mfile) Hashtbl.t;
    mutable journal : entry list; (* newest first *)
  }

  let create () = { files = Hashtbl.create 16; journal = [] }

  (* An independent copy with an empty journal — recovery probes run on
     a clone so their own repairs (tail truncation, manifest heal)
     never disturb the crashed disk image under test. *)
  let clone fs =
    let files = Hashtbl.create (max 16 (Hashtbl.length fs.files)) in
    Hashtbl.iter
      (fun path f ->
        Hashtbl.replace files path { data = Bytes.copy f.data; len = f.len })
      fs.files;
    { files; journal = [] }

  let journal fs = List.rev fs.journal
  let note fs e = fs.journal <- e :: fs.journal

  let contents f = Bytes.sub_string f.data 0 f.len

  let dump fs =
    Hashtbl.fold (fun path f acc -> (path, contents f) :: acc) fs.files []
    |> List.sort compare

  let file fs path =
    Option.map contents (Hashtbl.find_opt fs.files path)

  let ensure_cap f need =
    if Bytes.length f.data < need then begin
      let grown = Bytes.make (max need (2 * max 64 (Bytes.length f.data))) '\000' in
      Bytes.blit f.data 0 grown 0 f.len;
      f.data <- grown
    end

  let no_ent op path = raise (Unix.Unix_error (Unix.ENOENT, op, path))

  (* The journal-free core of each mutation, shared by the live io and
     by [apply] (prefix replay). *)
  let do_open fs ~create ~trunc path =
    match Hashtbl.find_opt fs.files path with
    | Some f ->
        if trunc then f.len <- 0;
        f
    | None ->
        if not create then no_ent "open" path
        else begin
          let f = { data = Bytes.create 64; len = 0 } in
          Hashtbl.replace fs.files path f;
          f
        end

  let do_write fs path pos (s : string) =
    let f =
      match Hashtbl.find_opt fs.files path with
      | Some f -> f
      | None -> no_ent "write" path
    in
    let n = String.length s in
    ensure_cap f (pos + n);
    (* writing past EOF zero-fills the gap, like a sparse file *)
    if pos > f.len then Bytes.fill f.data f.len (pos - f.len) '\000';
    Bytes.blit_string s 0 f.data pos n;
    f.len <- max f.len (pos + n)

  let do_truncate fs path len =
    match Hashtbl.find_opt fs.files path with
    | Some f ->
        if len <= f.len then f.len <- len
        else begin
          ensure_cap f len;
          Bytes.fill f.data f.len (len - f.len) '\000';
          f.len <- len
        end
    | None -> no_ent "ftruncate" path

  let do_rename fs src dst =
    match Hashtbl.find_opt fs.files src with
    | Some f ->
        Hashtbl.remove fs.files src;
        Hashtbl.replace fs.files dst f
    | None -> no_ent "rename" src

  let do_unlink fs path =
    if Hashtbl.mem fs.files path then Hashtbl.remove fs.files path
    else no_ent "unlink" path

  let apply fs = function
    | Open { path; trunc; create = _ } ->
        (* replayed opens always create: the journal only records the
           opens that created or truncated the file *)
        ignore (do_open fs ~create:true ~trunc path)
    | Write { path; pos; data } ->
        ignore (do_open fs ~create:true ~trunc:false path);
        do_write fs path pos data
    | Truncate { path; len } -> do_truncate fs path len
    | Rename { src; dst } -> do_rename fs src dst
    | Unlink path -> do_unlink fs path

  let cut_write entry keep =
    match entry with
    | Write { path; pos; data } when keep > 0 && keep < String.length data ->
        Some (Write { path; pos; data = String.sub data 0 keep })
    | _ -> None

  let mem_file fs path (f : mfile) =
    let pos = ref 0 in
    {
      f_write =
        (fun b off len ->
          let s = Bytes.sub_string b off len in
          note fs (Write { path; pos = !pos; data = s });
          do_write fs path !pos s;
          pos := !pos + len;
          len);
      f_read =
        (fun b off len ->
          let n = min len (f.len - !pos) in
          if n <= 0 then 0
          else begin
            Bytes.blit f.data !pos b off n;
            pos := !pos + n;
            n
          end);
      f_fsync = (fun () -> ());
      f_truncate =
        (fun len ->
          note fs (Truncate { path; len });
          do_truncate fs path len;
          if !pos > len then pos := len);
      f_seek = (fun p -> pos := p);
      f_seek_end =
        (fun () ->
          pos := f.len;
          f.len);
      f_close = (fun () -> ());
    }

  let io fs =
    {
      open_out_ =
        (fun ~create ~trunc path ->
          let existed = Hashtbl.mem fs.files path in
          let f = do_open fs ~create ~trunc path in
          if (not existed) || trunc then note fs (Open { path; create; trunc });
          mem_file fs path f);
      open_in_ =
        (fun path ->
          match Hashtbl.find_opt fs.files path with
          | Some f -> mem_file fs path f
          | None -> no_ent "open" path);
      read_file =
        (fun path ->
          match Hashtbl.find_opt fs.files path with
          | Some f -> contents f
          | None -> raise (Sys_error (path ^ ": No such file or directory")));
      (* journal only what actually happened: a rename or unlink that
         raises must not reappear during prefix replay *)
      rename =
        (fun src dst ->
          do_rename fs src dst;
          note fs (Rename { src; dst }));
      unlink =
        (fun path ->
          do_unlink fs path;
          note fs (Unlink path));
      exists = (fun path -> Hashtbl.mem fs.files path);
      list_dir =
        (fun dir ->
          let prefix = if dir = "." || dir = "" then "" else dir ^ "/" in
          let plen = String.length prefix in
          Hashtbl.fold
            (fun path _ acc ->
              if String.length path > plen && String.sub path 0 plen = prefix
              then
                let rest = String.sub path plen (String.length path - plen) in
                if String.contains rest '/' then acc else rest :: acc
              else acc)
            fs.files []
          |> List.sort compare |> Array.of_list);
    }
end

(* ---------- scheduled fault injection ---------- *)

type fault =
  | Eio
  | Enospc
  | Short_write
  | Fsync_fail
  | Power_cut

let fault_name = function
  | Eio -> "eio"
  | Enospc -> "enospc"
  | Short_write -> "short-write"
  | Fsync_fail -> "fsync-fail"
  | Power_cut -> "power-cut"

type plan = {
  at_op : (int * fault) list; (* op index (writes and fsyncs count) *)
  power_cut_bytes : int option; (* cut after N cumulative payload bytes *)
}

let plan ?power_cut_bytes at_op = { at_op; power_cut_bytes }

type injector = {
  mutable ops : int;
  mutable bytes : int;
  mutable cut : bool; (* power lost: writes vanish but claim success *)
  mutable fsync_doomed : bool; (* Fsync_fail scheduled on a write op *)
  mutable injected : int;
}

let ops_seen inj = inj.ops
let faults_injected inj = inj.injected
let power_lost inj = inj.cut

let faulty plan base =
  let inj =
    { ops = 0; bytes = 0; cut = false; fsync_doomed = false; injected = 0 }
  in
  let scheduled () =
    let here = inj.ops in
    inj.ops <- inj.ops + 1;
    List.assoc_opt here plan.at_op
  in
  (* After power loss nothing reaches the platter: every operation
     claims success and touches nothing, exactly like dirty pages that
     never got flushed. *)
  let phantom =
    {
      f_write = (fun _ _ len -> len);
      f_read = (fun _ _ _ -> 0);
      f_fsync = (fun () -> ());
      f_truncate = (fun _ -> ());
      f_seek = (fun _ -> ());
      f_seek_end = (fun () -> 0);
      f_close = (fun () -> ());
    }
  in
  let wrap_file path (f : file) =
    {
      f with
      f_truncate = (fun len -> if not inj.cut then f.f_truncate len);
      f_write =
        (fun b off len ->
          let fault = scheduled () in
          if inj.cut then len (* the drive is gone; nobody will know *)
          else begin
            (match fault with
            | Some Power_cut ->
                inj.injected <- inj.injected + 1;
                inj.cut <- true
            | Some Fsync_fail ->
                inj.injected <- inj.injected + 1;
                inj.fsync_doomed <- true
            | Some Eio ->
                inj.injected <- inj.injected + 1;
                raise (Unix.Unix_error (Unix.EIO, "write", path))
            | Some Enospc ->
                inj.injected <- inj.injected + 1;
                raise (Unix.Unix_error (Unix.ENOSPC, "write", path))
            | Some Short_write ->
                inj.injected <- inj.injected + 1;
                let k = len / 2 in
                if k > 0 then ignore (f.f_write b off k);
                inj.bytes <- inj.bytes + k;
                raise (Unix.Unix_error (Unix.EIO, "write", path))
            | None -> ());
            if inj.cut then len
            else
              match plan.power_cut_bytes with
              | Some limit when inj.bytes + len > limit ->
                  let k = max 0 (limit - inj.bytes) in
                  if k > 0 then ignore (f.f_write b off k);
                  inj.bytes <- inj.bytes + k;
                  inj.injected <- inj.injected + 1;
                  inj.cut <- true;
                  len
              | _ ->
                  let n = f.f_write b off len in
                  inj.bytes <- inj.bytes + n;
                  n
          end);
      f_fsync =
        (fun () ->
          let fault = scheduled () in
          if inj.cut then ()
          else if inj.fsync_doomed then begin
            raise (Unix.Unix_error (Unix.EIO, "fsync", path))
          end
          else
            match fault with
            | Some (Fsync_fail | Eio | Enospc | Short_write) ->
                inj.injected <- inj.injected + 1;
                raise (Unix.Unix_error (Unix.EIO, "fsync", path))
            | Some Power_cut ->
                inj.injected <- inj.injected + 1;
                inj.cut <- true
            | None -> f.f_fsync ());
    }
  in
  ( {
      base with
      open_out_ =
        (fun ~create ~trunc path ->
          if inj.cut then phantom
          else wrap_file path (base.open_out_ ~create ~trunc path));
      rename =
        (fun src dst -> if not inj.cut then base.rename src dst);
      unlink = (fun path -> if not inj.cut then base.unlink path);
    },
    inj )
