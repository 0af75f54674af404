(* Child processes: the daemon under test and the offline replay check.
   Every spawned pid is remembered until reaped, so the exit hook in
   bmpbench.ml can kill and reap whatever is left: no run leaves a daemon
   behind. *)

let live = ref []

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let forget pid = live := List.filter (( <> ) pid) !live

let wait pid =
  let _, status = waitpid [] pid in
  forget pid;
  status

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait pid)

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %d" s

(* stdin from /dev/null; stdout and stderr appended to [log]. *)
let spawn ~log argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let out =
    Unix.openfile log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close out)
      (fun () -> Unix.create_process argv.(0) argv null out out)
  in
  live := pid :: !live;
  pid

let run ~log argv = wait (spawn ~log argv)

exception Died of string

(* Poll [connect] every millisecond until the daemon listens. The daemon
   binds only after reading the instance and building its session, so
   the first successful connect marks the end of its set-up. *)
let connect ~pid ~socket ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> (
      Unix.close fd;
      match waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          kill pid;
          raise (Died "daemon did not listen before the deadline")
        end;
        Unix.sleepf 0.001;
        go ()
      | _, status ->
        forget pid;
        raise (Died ("daemon exited before listening: " ^ describe status)))
  in
  go ()

(* Peak resident set size in MiB ([VmHWM] of /proc/<pid>/status). *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match Host.words (String.trim v) with
        | [ kb; "kB" ] -> Option.map (fun k -> k /. 1024.) (float_of_string_opt kb)
        | _ -> None)
      | _ -> None)
    (Files.read_lines path)
  |> Option.value ~default:0.
