(* bmpbench: one-command end-to-end benchmark of the tracker daemon and
   the streaming dataplane. See README.md in this directory.

     bmpbench run     [--seed S] [--runs K] [--seconds T] [--workload W]...
                      [--out FILE] [--quick]
     bmpbench trace   [--seed S] [--seconds T] [--workload W]... [--out FILE]
     bmpbench compare A B
     bmpbench measure --workload W --seed S --seconds T --trace 0|1

   Exit codes: 0 success; 1 an output check failed, or compare found a
   regression; 2 bad usage; 3 the load generator ran too late for the
   run to measure the daemon. *)

open Files

let usage () =
  prerr_endline
    "usage: bmpbench run [--seed S] [--runs K] [--seconds T] [--workload W]... \
     [--out FILE] [--quick]\n\
    \       bmpbench trace [--seed S] [--seconds T] [--workload W]... [--out FILE]\n\
    \       bmpbench compare A B\n\
    \       bmpbench measure --workload W --seed S --seconds T --trace 0|1";
  exit 2

type opts = {
  mutable seed : int;
  mutable runs : int;
  mutable seconds : float;
  mutable workloads : string list;
  mutable out : string option;
  mutable quick : bool;
  mutable trace : bool;
  mutable files : string list;
}

let parse args =
  let o =
    {
      seed = 1;
      runs = 1;
      seconds = 15.;
      workloads = [];
      out = None;
      quick = false;
      trace = false;
      files = [];
    }
  in
  let int v = match int_of_string_opt v with Some k -> k | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> o.seed <- int v; go rest
    | "--runs" :: v :: rest -> o.runs <- int v; go rest
    | "--seconds" :: v :: rest ->
      o.seconds <- (match float_of_string_opt v with Some s -> s | None -> usage ());
      go rest
    | "--workload" :: v :: rest -> o.workloads <- o.workloads @ [ v ]; go rest
    | "--out" :: v :: rest -> o.out <- Some v; go rest
    | "--quick" :: rest -> o.quick <- true; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' -> o.files <- o.files @ [ v ]; go rest
    | _ -> usage ()
  in
  go args;
  if o.runs < 1 || not (o.seconds > 0.) then usage ();
  List.iter
    (fun w -> if not (List.mem_assoc w Workload.all) then usage ())
    o.workloads;
  o

(* The daemon under test, built next to this executable by the same dune
   workspace. *)
let bmp = Filename.dirname Sys.executable_name // ".." // ".." // "bin" // "bmp.exe"

(* Scratch space inside the current directory, removed on exit after
   every child process is gone. *)
let root = ".bmpbench"
let scratch = root // string_of_int (Unix.getpid ())

let cleanup () =
  List.iter Proc.kill !Proc.live;
  rm_rf scratch;
  try Unix.rmdir root with Unix.Unix_error _ -> ()

let run_one o ~trace (name, f) seed =
  let dir = scratch // Printf.sprintf "%s-%d" name seed in
  mkdir_fresh dir;
  let ctx = { Workload.bmp; dir; seed; seconds = o.seconds; quick = o.quick } in
  Printf.eprintf "bmpbench: %s seed %d%s\n%!" name seed (if trace then " (traced)" else "");
  let outcome = f ctx in
  let layers, failures =
    if not trace then ([], [])
    else
      match outcome.Workload.served with
      | Some s when outcome.Workload.failures = [] ->
        let r = Replay.run s ~scratch:dir in
        (r.Replay.layers, r.Replay.failures)
      | Some _ -> ([], [])
      | None ->
        (Replay.stream_setup (fst (Workload.inputs ~n:(Workload.stream_n ctx) ~seed)), [])
  in
  List.iter
    (fun m -> Printf.eprintf "bmpbench: %s: check failed: %s\n%!" name m)
    (outcome.Workload.failures @ failures);
  Option.iter
    (fun m -> Printf.eprintf "bmpbench: %s: invalid run: %s\n%!" name m)
    outcome.Workload.invalid;
  rm_rf dir;
  (Report.of_outcome ~workload:name ~seed ~trace outcome layers failures, outcome.Workload.invalid)

let selected o =
  match o.workloads with
  | [] -> Workload.all
  | ws -> List.map (fun w -> (w, List.assoc w Workload.all)) ws

let host () = Host.envelope ~journal_dir:scratch

(* run / trace: K passes over the selected workloads, seeds S, S+1, ... *)
let batch o ~trace =
  let host = host () in
  Printf.printf "host: %s\n%!" host;
  let results =
    List.concat_map
      (fun r -> List.map (fun w -> run_one o ~trace w (o.seed + r)) (selected o))
      (List.init o.runs Fun.id)
  in
  let runs = List.map fst results in
  Report.print_table runs;
  Option.iter
    (fun path ->
      write_file path (Report.result_file ~host ~seconds:o.seconds runs);
      Printf.printf "wrote %s\n" path)
    o.out;
  if List.exists (fun (_, invalid) -> invalid <> None) results then exit 3;
  if List.exists (fun r -> not r.Report.correct) runs then exit 1

(* The BENCHMARK.json command protocol: one workload, one run, the JSON
   result as the last line of stdout. *)
let measure o =
  match o.workloads with
  | [ w ] ->
    Printf.eprintf "bmpbench: host %s\n%!" (host ());
    let r, invalid = run_one o ~trace:o.trace (w, List.assoc w Workload.all) o.seed in
    if invalid <> None then exit 3;
    print_endline (Report.result_line r);
    if not r.Report.correct then exit 1
  | _ -> usage ()

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigint stop;
  Sys.set_signal Sys.sigterm stop;
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: args -> (
    let o = parse args in
    match o.files with
    | [ a; b ] -> (
      match Report.compare ~spec:"BENCHMARK.json" a b with
      | Ok 0 -> ()
      | Ok _ -> exit 1
      | Error e ->
        prerr_endline ("bmpbench: " ^ e);
        exit 2)
    | _ -> usage ())
  | cmd :: args when List.mem cmd [ "run"; "trace"; "measure" ] ->
    let o = parse args in
    if o.files <> [] then usage ();
    if not (Sys.file_exists bmp) then begin
      prerr_endline ("bmpbench: no daemon executable at " ^ bmp);
      exit 2
    end;
    (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    mkdir_fresh scratch;
    at_exit cleanup;
    (match cmd with
    | "run" -> batch o ~trace:false
    | "trace" -> batch o ~trace:true
    | _ -> measure o)
  | _ -> usage ()
