(* The serving processes: the real [shist] binary, started as children on
   Unix sockets under a per-run directory, and always reaped — killed on
   any error path, including a signal to this process. *)

module Addr = Sh_net.Addr
module Client = Sh_net.Client

(* dune builds bin/shist.exe before this executable (link_deps in dune),
   two directories up from it in the build tree. *)
let shist =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.dirname (Filename.dirname dir)) "bin/shist.exe"

let children : int list ref = ref []

let forget pid = children := List.filter (( <> ) pid) !children

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let () =
  at_exit kill_all;
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             kill_all ();
             exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

(* Socket and log directory, relative to the working directory so socket
   paths stay short whatever the checkout's absolute path. *)
let run_dir = Printf.sprintf ".e2e/run-%d" (Unix.getpid ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let remove_run_dir () =
  if Sys.file_exists run_dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat run_dir f)) (Sys.readdir run_dir);
    Unix.rmdir run_dir
  end

let spawn ~name args =
  mkdir_p run_dir;
  let log = Filename.concat run_dir (name ^ ".log") in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let inp = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close inp)
      (fun () -> Unix.create_process shist (Array.of_list (shist :: args)) inp out out)
  in
  children := pid :: !children;
  pid

let log_tail name =
  let log = Filename.concat run_dir (name ^ ".log") in
  match In_channel.with_open_text log In_channel.input_all with
  | s ->
    let n = String.length s in
    if n > 2000 then String.sub s (n - 2000) 2000 else s
  | exception Sys_error _ -> ""

(* Wait for [pid] to exit; past [timeout] it is killed.  Returns the exit
   code ([-1] for a signal or a kill). *)
let wait_exit ?(timeout = 10.0) pid =
  let deadline = Stats.now () +. timeout in
  let rec go () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
      if Stats.now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        -1
      end
      else begin
        Unix.sleepf 0.002;
        go ()
      end
    | _, WEXITED c -> c
    | _, (WSIGNALED _ | WSTOPPED _) -> -1
  in
  let code = go () in
  forget pid;
  code

let sock name = Addr.Unix_sock (Filename.concat run_dir (name ^ ".sock"))

(* Connect, retrying every 2 ms while the child is still binding. *)
let connect addr = Client.connect ~timeout:10.0 ~retries:5000 ~retry_delay:0.002 addr

(* Clock ticks per second of /proc/PID/stat times (USER_HZ: 100 on
   Linux). *)
let ticks_per_second = 100.0

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.map (fun k -> Float.of_int k /. 1024.0) (int_of_string_opt kb)
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' s)

(* User plus system CPU time of a live process, in seconds. *)
let cpu_seconds pid =
  let file = Printf.sprintf "/proc/%d/stat" pid in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> None
  | s -> (
    (* the command name may hold spaces; fields restart after its ')' *)
    let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
    match String.split_on_char ' ' rest with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ -> (
      match (int_of_string_opt utime, int_of_string_opt stime) with
      | Some u, Some st -> Some (Float.of_int (u + st) /. ticks_per_second)
      | _ -> None)
    | _ -> None)

(* First line of a command's standard output, for provenance. *)
let command_line prog args =
  match
    Unix.open_process_args_full prog (Array.of_list (prog :: args)) (Unix.environment ())
  with
  | exception Unix.Unix_error _ -> None
  | (out, inp, err) as p ->
    close_out inp;
    let line = In_channel.input_line out in
    ignore (In_channel.input_all err);
    ignore (In_channel.input_all out);
    (match Unix.close_process_full p with
    | WEXITED 0 -> line
    | _ -> None)
