(* Metric names and units, the output formats, and `compare`. *)

module Json = Flowgraph.Json

let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("rps", "req/s");
    ("events_per_s", "events/s");
    ("peak_rss_mb", "MiB");
  ]

(* Layers a workload does not exercise read 0: they did no work. *)
let per_layer =
  [
    ("loadgen.send_lag_p95_ms", "ms");
    ("daemon.read_wait_p50_ms", "ms");
    ("daemon.read_wait_p95_ms", "ms");
    ("session.server_p50_ms", "ms");
    ("session.server_p95_ms", "ms");
    ("session.requests_per_batch", "requests/batch");
    ("session.events_per_batch", "events/batch");
    ("protocol.parse_us", "us/request");
    ("protocol.encode_us", "us/response");
    ("repair.ms_per_event", "ms/event");
    ("repair.reference_build_ms_per_event", "ms/event");
    ("repair.freeze_ms_per_event", "ms/event");
    ("repair.identity_frac", "ratio");
    ("repair.touched_mean", "nodes/call");
    ("policy.rebuilds", "count");
    ("repair.rebuild_ms", "ms/rebuild");
    ("metrics.ms_per_event", "ms/event");
    ("flow.ms_per_event", "ms/event");
    ("audit.ms_per_check", "ms/check");
    ("audit.checks", "count");
    ("engine.ms_per_event", "ms/event");
    ("engine.minor_words_per_event", "words/event");
    ("engine.unattributed_frac", "ratio");
    ("trace.overhead_frac", "ratio");
    ("journal.ms_per_batch", "ms/batch");
    ("journal.bytes_per_batch", "B/batch");
    ("journal.checkpoint_ms", "ms/checkpoint");
    ("recover.scan_ms", "ms");
    ("recover.replay_ms", "ms");
    ("recover.tail_events", "count");
    ("setup.optimal_acyclic_s", "s");
    ("setup.overlay_build_s", "s");
    ("setup.flow_create_s", "s");
    ("dataplane.events", "count");
    ("dataplane.minor_words_per_event", "words/event");
  ]

(* Every digit, and never a non-JSON token. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let str s = "\"" ^ Json.escape s ^ "\""

(* {2 One run} *)

type run = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string * int) list;  (** name, value, unit, samples *)
}

let of_outcome ~workload ~seed ~trace (o : Workload.outcome) extra_layers failures =
  let metrics =
    if trace then
      let layers = o.Workload.layers @ extra_layers in
      List.map
        (fun (name, unit_) ->
          (name, Option.value (List.assoc_opt name layers) ~default:0., unit_, 1))
        per_layer
    else
      List.map
        (fun (name, unit_) ->
          let m = List.find (fun (m : Workload.metric) -> m.name = name) o.Workload.metrics in
          (name, m.value, unit_, m.samples))
        end_to_end
  in
  {
    workload;
    seed;
    correct = o.Workload.failures = [] && failures = [];
    attempted = o.Workload.attempted;
    failed = o.Workload.failed;
    metrics;
  }

(* The result line of `bmpbench measure`. *)
let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, u, _) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str name) (num v) (str u))
          r.metrics))

let run_json r =
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"correct\": %b, \"attempted\": %d, \"failed\": \
     %d, \"metrics\": {%s}}"
    (str r.workload) r.seed r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, u, k) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"samples\": %d}" (str name)
              (num v) (str u) k)
          r.metrics))

let result_file ~host ~seconds runs =
  Printf.sprintf
    "{\"format\": \"bmpbench-result\", \"version\": 1, \"host\": %s, \"seconds\": %s, \
     \"runs\": [\n%s\n]}\n"
    host (num seconds)
    (String.concat ",\n" (List.map run_json runs))

(* Median over runs, per workload and metric, with the per-run sample
   count. *)
let print_table runs =
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) runs) in
  List.iter
    (fun w ->
      let rs = List.filter (fun r -> r.workload = w) runs in
      let attempted = List.fold_left (fun k r -> k + r.attempted) 0 rs in
      let failed = List.fold_left (fun k r -> k + r.failed) 0 rs in
      Printf.printf "%s  (%d run%s)\n" w (List.length rs) (if List.length rs = 1 then "" else "s");
      List.iter
        (fun (name, _, unit_, _) ->
          let vs, ks =
            List.split
              (List.filter_map
                 (fun r ->
                   List.find_map
                     (fun (n, v, _, k) -> if n = name then Some (v, float_of_int k) else None)
                     r.metrics)
                 rs)
          in
          Printf.printf "  %-36s %14.6g %-14s (%.0f samples/run)\n" name (Stats.median vs)
            unit_ (Stats.median ks))
        (List.hd rs).metrics;
      Printf.printf "  %-36s %14.6g %-14s (%d failed of %d attempted)\n" "failed_frac"
        (Stats.ratio (float_of_int failed) (float_of_int attempted))
        "ratio" failed attempted)
    workloads

(* {2 Reading result files and the benchmark spec} *)

let ( let* ) = Result.bind

let field k v =
  match Json.member k v with Some x -> Ok x | None -> Error ("missing field " ^ k)

let list v = match v with Json.Arr xs -> Ok xs | _ -> Error "expected an array"

let members v = match v with Json.Obj kvs -> Ok kvs | _ -> Error "expected an object"

let rec all f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = all f xs in
    Ok (y :: ys)

let read_json path =
  match Json.parse (Files.read_file path) with
  | Ok v -> Ok v
  | Error e -> Error (path ^ ": " ^ e)
  | exception Sys_error e -> Error e

let read_runs path =
  let* v = read_json path in
  let* runs = Result.bind (field "runs" v) list in
  all
    (fun r ->
      let* workload = Result.bind (field "workload" r) Json.to_string_exn in
      let* seed = Result.bind (field "seed" r) Json.to_int in
      let* attempted = Result.bind (field "attempted" r) Json.to_int in
      let* failed = Result.bind (field "failed" r) Json.to_int in
      let* correct =
        match Json.member "correct" r with Some (Json.Bool b) -> Ok b | _ -> Ok false
      in
      let* ms = Result.bind (field "metrics" r) members in
      let* metrics =
        all
          (fun (name, m) ->
            let* value = Result.bind (field "value" m) Json.to_float in
            let* unit_ = Result.bind (field "unit" m) Json.to_string_exn in
            let* samples = Result.bind (field "samples" m) Json.to_int in
            Ok (name, value, unit_, samples))
          ms
      in
      Ok { workload; seed; correct; attempted; failed; metrics })
    runs

type bound = { name : string; better_lower : bool; bound : float }

let read_spec path =
  let* v = read_json path in
  let* e2e = Result.bind (field "end_to_end" v) list in
  all
    (fun m ->
      let* name = Result.bind (field "name" m) Json.to_string_exn in
      let* better = Result.bind (field "better" m) Json.to_string_exn in
      let* bound = Result.bind (field "bound" m) Json.to_float in
      Ok { name; better_lower = better = "lower"; bound })
    e2e

(* {2 compare} *)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* The rule of the choosing-metrics guide: a spread (quartile distance
   over median) wider than the bound leaves the metric unresolved unless
   every run of B beats every run of A; a median worse by more than the
   bound is a regression; a gain needs B to win nine tenths of the
   seed-paired runs and to move the median by more than A's own spread. *)
let spread vs =
  Stats.ratio (Stats.quantile vs 0.75 -. Stats.quantile vs 0.25) (Stats.median vs)

let judge b ~pairs xs ys =
  let ma = Stats.median xs and mb = Stats.median ys in
  let better x y = if b.better_lower then y < x else y > x in
  let worse_by = if b.better_lower then (mb /. ma) -. 1. else 1. -. (mb /. ma) in
  let all_better =
    List.for_all (fun x -> List.for_all (fun y -> better x y) ys) xs
  in
  let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
  if Float.max (spread xs) (spread ys) > b.bound then
    if all_better then Better else Unresolved
  else if worse_by > b.bound then Worse
  else if
    -.worse_by > spread xs
    && pairs <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
  then Better
  else Unchanged

let compare ~spec a b =
  let* bounds = read_spec spec in
  let* ra = read_runs a in
  let* rb = read_runs b in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) ra) in
  let failures = ref 0 in
  Printf.printf "%-14s %-16s %26s %26s %22s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B/A (base A median)" "verdict";
  List.iter
    (fun w ->
      let side rs = List.filter (fun r -> r.workload = w) rs in
      let sa = side ra and sb = side rb in
      (* (seed, value) per run *)
      let values rs name =
        List.filter_map
          (fun r ->
            List.find_map
              (fun (n, v, _, _) -> if n = name then Some (r.seed, v) else None)
              r.metrics)
          rs
      in
      List.iter
        (fun bd ->
          let va = values sa bd.name and vb = values sb bd.name in
          let xs = List.map snd va and ys = List.map snd vb in
          if xs = [] || ys = [] then
            Printf.printf "%-14s %-16s missing on one side\n" w bd.name
          else begin
            let pairs =
              List.filter_map
                (fun (s, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt s vb))
                va
            in
            let v = judge bd ~pairs xs ys in
            if v = Worse then incr failures;
            let q vs = (Stats.median vs, Stats.quantile vs 0.25, Stats.quantile vs 0.75) in
            let m1, l1, h1 = q xs and m2, l2, h2 = q ys in
            let unit_ = Option.value (List.assoc_opt bd.name end_to_end) ~default:"" in
            Printf.printf "%-14s %-16s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %7.4f (%.4g %s)  %s\n"
              w bd.name m1 l1 h1 m2 l2 h2 (m2 /. m1) m1 unit_ (verdict_name v)
          end)
        bounds;
      let frac rs =
        let att = List.fold_left (fun k r -> k + r.attempted) 0 rs in
        let f = List.fold_left (fun k r -> k + r.failed) 0 rs in
        (f, att, Stats.ratio (float_of_int f) (float_of_int att))
      in
      let fa, aa, xa = frac sa and fb, ab, xb = frac sb in
      Printf.printf "%-14s %-16s A %d/%d = %g, B %d/%d = %g%s\n" w "failed_frac" fa aa xa fb ab xb
        (if xb > xa then "  worse" else "");
      if xb > xa then incr failures;
      if List.exists (fun r -> not r.correct) sb then begin
        Printf.printf "%-14s B has runs whose output checks failed\n" w;
        incr failures
      end)
    workloads;
  Ok !failures
