(* Child processes of the benchmark: spawned with Unix.create_process
   (OCaml 5 forbids fork once a domain has existed), tracked so that
   every exit path stops and reaps them, and measured through /proc;
   and removal of the scratch directories they work in. *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let live_lock = Mutex.create ()

let track pid =
  Mutex.lock live_lock;
  Hashtbl.replace live pid ();
  Mutex.unlock live_lock

let untrack pid =
  Mutex.lock live_lock;
  Hashtbl.remove live pid;
  Mutex.unlock live_lock

let spawn ~log argv =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin fd fd)
  in
  track pid;
  pid

(* Wait up to [timeout] seconds for [pid] to exit, then SIGKILL it and
   wait for good. Returns the exit status. *)
let reap ?(timeout = 10.) pid =
  let deadline = Bstat.now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Bstat.now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        go ()
      end
    | _, st -> st
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  in
  let st = go () in
  untrack pid;
  st

let kill_all () =
  let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) live [] in
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap ~timeout:5. pid))
    pids

let () = at_exit kill_all

(* VmHWM of a live process in KiB, read from /proc; [None] once it has
   exited. *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception (End_of_file | Sys_error _) -> None (* exited while we read *)
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Option.some
            else scan ()
        in
        scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
