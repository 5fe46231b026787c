(* Child daemon processes and /proc readings.

   Every spawned pid is remembered until it has been reaped, so an
   aborted run still kills and waits for its daemons on the way out. *)

let live = ref []

let status_field pid key =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let prefix = key ^ ":" in
      let pl = String.length prefix in
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> failwith (Printf.sprintf "%s: no %s line" path key)
        | line when String.length line > pl && String.sub line 0 pl = prefix ->
            let v = String.trim (String.sub line pl (String.length line - pl)) in
            (* "VmHWM:   123456 kB" *)
            int_of_string (List.hd (String.split_on_char ' ' v))
        | _ -> loop ()
      in
      loop ())

let vm_hwm_mb pid = float_of_int (status_field pid "VmHWM") /. 1024.0

let threads pid = status_field pid "Threads"

type daemon = {
  pid : int;
  out : in_channel;  (** the daemon's stdout *)
  argv : string array;
  ready : string;  (** the [ok ready n=.. m=..] line *)
}

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  live := List.filter (( <> ) pid) !live;
  st

(* Spawns the daemon and blocks until it prints its [ok listening]
   line, returning the daemon and the seconds that took. *)
let spawn argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Spans.now () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let rec await ready =
    match input_line out with
    | exception End_of_file ->
        ignore (reap pid);
        failwith "daemon exited before listening"
    | line when String.length line >= 8 && String.sub line 0 8 = "ok ready" -> await line
    | line when String.length line >= 12 && String.sub line 0 12 = "ok listening" -> ready
    | _ -> await ready
  in
  let ready = await "" in
  let setup_s = Spans.now () -. t0 in
  ({ pid; out; argv; ready }, setup_s)

let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> -s

(* SIGTERM, then the daemon's remaining stdout and its exit code. *)
let terminate d =
  Unix.kill d.pid Sys.sigterm;
  let rec rest acc =
    match input_line d.out with
    | line -> rest (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = rest [] in
  close_in d.out;
  (lines, exit_code (reap d.pid))

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !live
