module Net = Cap_service.Net

type t = {
  input : string;
  max_read : int;
  mutable read_pos : int;
  mutable visible : int;
  out : Buffer.t;
  mutable accepted : bool;
  mutable write_calls : int;
  mutable now : float;
}

let conn_id = 1

let create ?(max_read = max_int) input =
  if max_read < 1 then invalid_arg "Fabric.create: max_read must be >= 1";
  {
    input;
    max_read;
    read_pos = 0;
    visible = 0;
    out = Buffer.create 65536;
    accepted = false;
    write_calls = 0;
    now = 0.;
  }

let deliver t upto = t.visible <- max t.visible (min upto (String.length t.input))
let unread t = t.visible - t.read_pos
let write_calls t = t.write_calls
let set_now t now = t.now <- now

let take_output t =
  let s = Buffer.contents t.out in
  Buffer.clear t.out;
  s

let backend t =
  let sock =
    {
      Net.sock_id = conn_id;
      sock_read =
        (fun buf off len ->
          let n = min (min len t.max_read) (t.visible - t.read_pos) in
          if n <= 0 then `Again
          else begin
            Bytes.blit_string t.input t.read_pos buf off n;
            t.read_pos <- t.read_pos + n;
            `Data n
          end);
      sock_write =
        (fun s off len ->
          t.write_calls <- t.write_calls + 1;
          Buffer.add_substring t.out s off len;
          `Wrote len);
      sock_close = ignore;
    }
  in
  {
    Net.bk_now = (fun () -> t.now);
    bk_accept =
      (fun () ->
        if t.accepted then `Again
        else begin
          t.accepted <- true;
          `Conn sock
        end);
    bk_wait =
      (fun ~timeout:_ ~accept ~read ~write ->
        {
          Net.ready_accept = accept && not t.accepted;
          ready_read = (if t.visible > t.read_pos then read else []);
          ready_write = write;
          wait_stalled = false;
        });
  }
