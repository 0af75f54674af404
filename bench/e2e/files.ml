(* File helpers for the benchmark's scratch directory. *)

let ( // ) = Filename.concat

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report a length of 0, so they are read line by line. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in_noerr ic;
        List.rev acc
    in
    go []

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (path // n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_fresh path =
  rm_rf path;
  Unix.mkdir path 0o755

(* Flat copy of a journal directory (regular files only; the lock file
   comes along empty, which is what a fresh process expects). *)
let copy_dir ~src ~dst =
  mkdir_fresh dst;
  Array.iter
    (fun n ->
      let p = src // n in
      if (Unix.stat p).Unix.st_kind = Unix.S_REG then
        write_file (dst // n) (read_file p))
    (Sys.readdir src)
