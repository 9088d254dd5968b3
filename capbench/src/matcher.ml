module Proto = Cap_service.Proto

type t = {
  expected : int array;
  mutable next : int;
  partial : Buffer.t;
  transcript : Buffer.t;
  mutable errors : int;
  mutable mismatches : int;
  mutable sheds : int;
  mutable readmits : int;
  mutable byes : int;
}

let ctrl_id = -1

let expected_id = function
  | Proto.Join { id; _ } | Proto.Leave { id } | Proto.Move { id; _ } -> id
  | Proto.Ctrl _ -> ctrl_id

let create expected =
  {
    expected;
    next = 0;
    partial = Buffer.create 128;
    transcript = Buffer.create 65536;
    errors = 0;
    mismatches = 0;
    sheds = 0;
    readmits = 0;
    byes = 0;
  }

let primary t id ~on_answer =
  if t.next < Array.length t.expected && t.expected.(t.next) = id then begin
    on_answer t.next;
    t.next <- t.next + 1
  end
  else t.mismatches <- t.mismatches + 1

let line t raw ~on_answer =
  match Proto.parse_response raw with
  | Error _ | Ok (Proto.Err _) -> t.errors <- t.errors + 1
  | Ok (Proto.Readmitted _) -> t.readmits <- t.readmits + 1
  | Ok Proto.Bye -> t.byes <- t.byes + 1
  | Ok (Proto.Shed { id; _ }) ->
      t.sheds <- t.sheds + 1;
      primary t id ~on_answer
  | Ok (Proto.Assigned { id; _ } | Proto.Left { id }) -> primary t id ~on_answer
  | Ok (Proto.Ctrl_ok _) -> primary t ctrl_id ~on_answer
  | Ok (Proto.Resume_ok _ | Proto.Busy) -> t.mismatches <- t.mismatches + 1

let feed t chunk ~on_answer =
  Buffer.add_string t.transcript chunk;
  let len = String.length chunk in
  let rec go start =
    match String.index_from_opt chunk start '\n' with
    | None -> Buffer.add_substring t.partial chunk start (len - start)
    | Some stop ->
        let raw =
          if Buffer.length t.partial = 0 then String.sub chunk start (stop - start)
          else begin
            Buffer.add_substring t.partial chunk start (stop - start);
            let s = Buffer.contents t.partial in
            Buffer.clear t.partial;
            s
          end
        in
        line t raw ~on_answer;
        go (stop + 1)
  in
  if len > 0 then go 0

let answered t = t.next
let complete t = t.next = Array.length t.expected
let errors t = t.errors
let mismatches t = t.mismatches
let sheds t = t.sheds
let readmits t = t.readmits
let byes t = t.byes
let transcript t = Buffer.contents t.transcript

let failed t =
  let events = Array.length t.expected in
  min events
    (t.errors + t.mismatches + (events - t.next) + if Buffer.length t.partial > 0 then 1 else 0)
