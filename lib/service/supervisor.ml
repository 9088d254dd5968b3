type role =
  | Primary
  | Standby

let role_name = function Primary -> "primary" | Standby -> "standby"

type actions = {
  spawn : role -> (int, string) result;
  promote : pid:int -> (unit, string) result;
  wait : unit -> int * Unix.process_status;
  kill : pid:int -> unit;
  sleep : float -> unit;
  now : unit -> float;
  log : string -> unit;
}

type config = {
  backoff_base : float;
  backoff_max : float;
  crash_window : float;
  max_crashes : int;
  with_standby : bool;
}

type outcome =
  | Clean_exit
  | Unrecoverable of int  (** the daemon refused its configuration *)
  | Crash_loop of int  (** circuit breaker: crashes inside the window *)
  | Action_error of string

let describe_outcome = function
  | Clean_exit -> "clean exit"
  | Unrecoverable code ->
      Printf.sprintf "daemon exited %d (unrecoverable); not restarting" code
  | Crash_loop n ->
      Printf.sprintf "circuit breaker open: %d crashes inside the window" n
  | Action_error m -> Printf.sprintf "supervisor action failed: %s" m

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* The supervision loop is pure policy over the injected [actions]:
   real forking in capsim, a scripted virtual machine in tests. *)
let run config actions =
  let crashes = ref [] in
  let standby_crashes = ref [] in
  let prune times at =
    times := List.filter (fun t -> at -. t <= config.crash_window) !times
  in
  let record times at =
    prune times at;
    times := at :: !times;
    List.length !times
  in
  let backoff n =
    Float.min config.backoff_max
      (config.backoff_base *. Float.pow 2. (float_of_int (max 0 (n - 1))))
  in
  let kill_opt = function Some pid -> actions.kill ~pid | None -> () in
  let spawn role k =
    match actions.spawn role with
    | Ok pid ->
        actions.log (Printf.sprintf "spawned %s pid %d" (role_name role) pid);
        k pid
    | Error m -> Action_error m
  in
  let spawn_standby_opt k =
    if not config.with_standby then k None
    else
      match actions.spawn Standby with
      | Ok pid ->
          actions.log (Printf.sprintf "spawned standby pid %d" pid);
          k (Some pid)
      | Error m ->
          actions.log
            (Printf.sprintf "standby spawn failed (%s); running without" m);
          k None
  in
  let rec supervise ~primary ~standby =
    let pid, status = actions.wait () in
    if pid = primary then begin
      match status with
      | Unix.WEXITED 0 ->
          actions.log "primary exited cleanly";
          kill_opt standby;
          Clean_exit
      | Unix.WEXITED 2 ->
          actions.log "primary exited 2 (unrecoverable configuration)";
          kill_opt standby;
          Unrecoverable 2
      | status ->
          let at = actions.now () in
          let recent = record crashes at in
          actions.log
            (Printf.sprintf "primary %s (crash %d in window)"
               (describe_status status) recent);
          if recent > config.max_crashes then begin
            kill_opt standby;
            Crash_loop recent
          end
          else begin
            match standby with
            | Some sp -> (
                (* Failover beats restart: the standby is already warm. *)
                match actions.promote ~pid:sp with
                | Ok () ->
                    actions.log (Printf.sprintf "promoted standby pid %d" sp);
                    spawn_standby_opt (fun standby ->
                        supervise ~primary:sp ~standby)
                | Error m ->
                    actions.log
                      (Printf.sprintf "promotion failed (%s); restarting" m);
                    actions.kill ~pid:sp;
                    restart ~attempt:recent)
            | None -> restart ~attempt:recent
          end
    end
    else if standby = Some pid then begin
      let at = actions.now () in
      let recent = record standby_crashes at in
      actions.log
        (Printf.sprintf "standby %s (crash %d in window)"
           (describe_status status) recent);
      if recent > config.max_crashes then begin
        actions.log "standby crash-looping; continuing without one";
        supervise ~primary ~standby:None
      end
      else
        match actions.spawn Standby with
        | Ok sp ->
            actions.log (Printf.sprintf "respawned standby pid %d" sp);
            supervise ~primary ~standby:(Some sp)
        | Error m ->
            actions.log
              (Printf.sprintf "standby respawn failed (%s); continuing without"
                 m);
            supervise ~primary ~standby:None
    end
    else
      (* an unrelated child (e.g. a finished checkpointer): ignore *)
      supervise ~primary ~standby
  and restart ~attempt =
    let delay = backoff attempt in
    if delay > 0. then begin
      actions.log (Printf.sprintf "restarting primary in %.3fs" delay);
      actions.sleep delay
    end;
    spawn Primary (fun primary ->
        spawn_standby_opt (fun standby -> supervise ~primary ~standby))
  in
  spawn Primary (fun primary ->
      spawn_standby_opt (fun standby -> supervise ~primary ~standby))
