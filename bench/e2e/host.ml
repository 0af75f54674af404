(* The host envelope stamped on every result: a number only means
   something next to the machine, toolchain and commit that produced it. *)

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

(* git runs only in a git checkout of its own: an exported source tree
   says "unknown" rather than letting git search the parent directories. *)
let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else begin
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid =
      try
        Some
          (Unix.create_process "git" [| "git"; "rev-parse"; "HEAD" |] null out_w
             null)
      with Unix.Unix_error _ -> None
    in
    Unix.close out_w;
    Unix.close null;
    let ic = Unix.in_channel_of_descr out_r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    let ok =
      match pid with
      | Some pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
      | None -> false
    in
    if ok && String.length line = 40 then line else "unknown"
  end

(* Filesystem type of the longest /proc/mounts mount point containing
   [dir] — where the journal's fsyncs actually land. *)
let fs_type dir =
  let dir = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let within mnt =
    mnt = "/"
    || dir = mnt
    || String.starts_with ~prefix:(mnt ^ "/") dir
  in
  List.fold_left
    (fun (best, len) line ->
      match words line with
      | _ :: mnt :: ty :: _ when within mnt && String.length mnt > len ->
        (ty, String.length mnt)
      | _ -> (best, len))
    ("unknown", -1)
    (Files.read_lines "/proc/mounts")
  |> fst

let loadavg () =
  match Files.read_lines "/proc/loadavg" with
  | line :: _ -> (
    match words line with
    | a :: b :: c :: _ -> List.filter_map float_of_string_opt [ a; b; c ]
    | _ -> [])
  | [] -> []

let envelope ~journal_dir =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": \"%s\", \"commit\": \"%s\", \"journal_fs\": \
     \"%s\", \"loadavg\": [%s]}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ()) (fs_type journal_dir)
    (String.concat ", " (List.map (Printf.sprintf "%.2f") (loadavg ())))
