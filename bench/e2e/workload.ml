(* The four workloads and their untraced runs.

   Three drive the real `bmp tracker serve` over a Unix socket from this
   single-threaded process; the fourth calls the streaming dataplane
   in-process. Each takes the seed, generates its instance and request
   stream from it, measures for about [seconds], and checks the
   program's outputs. The daemon only ever sees the instance file and the
   request lines. *)

open Files
module Trace = Churn.Trace
module Rng = Prng.Splitmix

type ctx = {
  bmp : string;  (** the bmp executable *)
  dir : string;  (** scratch directory of this run, relative to the cwd *)
  seed : int;
  seconds : float;
  quick : bool;  (** tiny sizes, every check, no validity threshold *)
}

(* Units live with the names in Report. *)
type metric = { name : string; value : float; samples : int }

type outcome = {
  metrics : metric list;  (** every end-to-end metric *)
  layers : (string * float) list;  (** per-layer values the run measures itself *)
  attempted : int;
  failed : int;
  failures : string list;  (** output checks that did not hold *)
  invalid : string option;  (** why the load generator's timing is not usable *)
  served : Served.t option;  (** tracker runs: input of the traced replay *)
}

let now = Unix.gettimeofday
let ms s = s *. 1000.
let grace = 30.

(* {2 Inputs} *)

(* The instance `bmp generate -n N --seed S` draws (p_open 0.7, unif100)
   with the source's upload halved, and an independent stream for the
   requests. The generator pins the source at the cyclic fixed point,
   exactly where Greedy.optimal_acyclic switches between a single probe
   and a full dichotomic search: every join or leave then flips the cost
   of Repair's reference rebuild by about 20x at random, and run-to-run
   spread swamps any bound. A source-bound swarm (T* = b0) keeps every
   search on the one-probe side. *)
let source_scale = 0.5

let inputs ~n ~seed =
  let root = Rng.create (Int64.of_int seed) in
  let inst_rng = (Rng.split_n root 1).(0) in
  let g =
    Platform.Generator.generate
      { Platform.Generator.total = n; p_open = 0.7; dist = Prng.Dist.unif100 }
      inst_rng
  in
  let bandwidth = Array.copy g.Platform.Instance.bandwidth in
  bandwidth.(0) <- bandwidth.(0) *. source_scale;
  let inst =
    Platform.Instance.create ~bandwidth ~n:g.Platform.Instance.n
      ~m:g.Platform.Instance.m ()
  in
  (inst, Rng.split root)

(* Flash-crowd/mass-departure cycles: [joins] joins then [leaves] leaves,
   one batch's worth, repeated forever. *)
let burst_lines ~joins ~leaves rng =
  let i = ref 0 in
  fun () ->
    let k = !i mod (joins + leaves) in
    incr i;
    Trace.event_to_json
      (if k < joins then
         Trace.Join
           { bandwidth = 1. +. float_of_int (Rng.next_below rng 100); guarded = false }
       else Trace.Leave { pick = Rng.next_below rng 1_000_000 })

(* Churn.Trace.gen's default adversarial mix, drawn in chunks, with
   flash crowds one peer wide: bursts are burst-n1e4's subject, and
   eight-join events at 5 % of the traffic would make the latency tail
   of a 15 s run a draw of a dozen burst sizes. *)
let mixed_lines rng =
  let mix = { Trace.default_mix with max_flash = 1 } in
  let buf = ref [||] and i = ref 0 in
  fun () ->
    if !i = Array.length !buf then begin
      buf := (Trace.gen ~mix ~events:1024 rng).Trace.events;
      i := 0
    end;
    incr i;
    Trace.event_to_json !buf.(!i - 1)

(* {2 The daemon under test} *)

type daemon = {
  batch : int;
  patch_only : bool;  (** --policy patch instead of the adaptive default *)
  audit : Churn.Audit.level;
  journal : (Tracker.Journal.sync * int) option;
}

(* The session `bmp tracker serve` builds from [d] and its own defaults
   (adaptive policy r=0.5 d=4, incremental engine, rebuild headroom 0.8,
   initial overlay at 0.9 of the optimum) — what the replays run. *)
let session_config d =
  {
    Tracker.Session.default_config with
    policy =
      (if d.patch_only then Churn.Policy.Always_patch
       else Churn.Policy.Adaptive { min_ratio = 0.5; degree_slack = 4 });
    audit = d.audit;
    engine = Churn.Audit.Incremental;
    rebuild_headroom = Some 0.8;
    batch = d.batch;
  }

let headroom = 0.9

let policy_flags d = if d.patch_only then [ "--policy"; "patch" ] else []

let flags d ~journal_dir =
  [ "--batch"; string_of_int d.batch; "--audit"; Churn.Audit.level_name d.audit ]
  @ policy_flags d
  @
  match d.journal with
  | None -> []
  | Some (sync, every) ->
    [ "--journal"; journal_dir; "--sync"; Tracker.Journal.sync_name sync;
      "--checkpoint-every"; string_of_int every ]

let spawns = ref 0

(* Spawn a daemon and connect; the elapsed time is one set-up sample. *)
let start ctx ~inst_path extra =
  incr spawns;
  let socket = ctx.dir // Printf.sprintf "d%d.sock" !spawns in
  let argv =
    Array.of_list
      ([ ctx.bmp; "tracker"; "serve"; inst_path; "--socket"; socket ] @ extra)
  in
  let t0 = now () in
  let pid = Proc.spawn ~log:(ctx.dir // "daemon.log") argv in
  let fd = Proc.connect ~pid ~socket ~timeout:120. in
  (pid, fd, now () -. t0)

type checks = { mutable failures : string list }

let fail c fmt = Printf.ksprintf (fun m -> c.failures <- m :: c.failures) fmt

(* Ask for shutdown and require a clean exit. *)
let stop c ~pid (cl : Client.t) =
  (match Client.call cl {|{"type": "shutdown"}|} ~deadline:(now () +. grace) with
  | Some r when r.Client.ok -> ()
  | _ -> fail c "shutdown was not acknowledged");
  (match Proc.wait pid with
  | Unix.WEXITED 0 -> ()
  | st -> fail c "daemon ended with %s" (Proc.describe st));
  Unix.close cl.Client.fd

(* Cold spawn -> connect -> shutdown (or SIGKILL, which leaves a journal
   untouched for the next restore) probes: at least [k], and more while
   they have taken under [probe_budget] seconds — a cheap set-up gets
   enough samples for a steady median. *)
let probe_budget = 1.5

let probes c ctx ~inst_path ~extra ~kill k =
  let t0 = now () in
  let rec go acc =
    let count = List.length acc in
    if count >= k && (ctx.quick || count >= 40 || now () -. t0 >= probe_budget) then acc
    else begin
      let pid, fd, dt = start ctx ~inst_path extra in
      if kill then begin
        Proc.kill pid;
        Unix.close fd
      end
      else stop c ~pid (Client.create ~first_seq:1 fd);
      go (dt :: acc)
    end
  in
  go []

(* The daemon's committed counters must show no error and no rollback. *)
let query c (cl : Client.t) =
  match Client.call cl {|{"type": "query"}|} ~deadline:(now () +. grace) with
  | None -> fail c "query was not answered"
  | Some r -> (
    let field k =
      match Flowgraph.Json.parse r.Client.line with
      | Ok v ->
        Option.bind (Flowgraph.Json.member "query" v) (fun q ->
            Option.bind (Flowgraph.Json.member k q) (fun x ->
                Result.to_option (Flowgraph.Json.to_int x)))
      | Error _ -> None
    in
    match (field "errors", field "rollbacks") with
    | Some 0, Some 0 -> ()
    | e, rb ->
      let show = function Some k -> string_of_int k | None -> "?" in
      fail c "daemon counted %s errors and %s rollbacks" (show e) (show rb))

(* Every request answered exactly once, with status ok. *)
let check_answers c (cl : Client.t) samples =
  List.iter (fun m -> fail c "%s" m) (List.rev cl.Client.protocol_errors);
  let missing = Client.unanswered samples and errors = Client.errors samples in
  if missing > 0 then fail c "%d requests unanswered at their deadline" missing;
  if errors > 0 then fail c "%d error responses" errors

(* Offline replay of the committed trace must rebuild --state-out byte for
   byte. *)
let check_replay c ctx d ~inst_path ~state_out ~trace_out =
  let final = ctx.dir // "replayed.json" in
  match
    Proc.run ~log:(ctx.dir // "replay.log")
      (Array.of_list
         ([ ctx.bmp; "churn"; "run"; inst_path; "--trace"; trace_out;
            "--final-scheme"; final ]
         @ policy_flags d))
  with
  | Unix.WEXITED 0 ->
    if read_file final <> read_file state_out then
      fail c "offline replay of --trace-out differs from --state-out"
  | st -> fail c "bmp churn run ended with %s" (Proc.describe st)

let exchanges ~epoch (samples : Client.sample array) =
  Array.to_list samples
  |> List.filter_map (fun (s : Client.sample) ->
         match (s.resp, Tracker.Protocol.parse_request ~max_line:65536 s.line) with
         | Some resp, Ok (Tracker.Protocol.Event event) ->
           Some { Served.epoch; line = s.line; event; resp }
         | _ -> None)

(* {2 Metrics of a served session} *)

let latencies (samples : Client.sample array) f =
  Array.to_list samples
  |> List.filter_map (fun (s : Client.sample) -> Option.map (f s) s.resp)

let metric name samples value = { name; value; samples }

(* End-to-end and free per-layer metrics: latency from the open loop
   ([paced]), capacity from the closed loop. *)
let tracker_metrics ~setup ~rss ~paced ~closed ~closed_exchanges =
  let lat = latencies paced (fun s r -> ms (r.Client.at -. s.Client.due)) in
  let lag = latencies paced (fun s _ -> ms (s.Client.sent -. s.Client.due)) in
  let server = latencies paced (fun _ r -> float_of_int r.Client.latency_us /. 1000.) in
  let wait =
    latencies paced (fun s r ->
        ms (r.Client.at -. s.Client.sent) -. (float_of_int r.Client.latency_us /. 1000.))
  in
  let answered = Array.length closed - Client.unanswered closed in
  let wall =
    match Array.to_list closed with
    | [] -> 0.
    | first :: _ ->
      Array.fold_left
        (fun t (s : Client.sample) ->
          match s.resp with Some r -> Float.max t r.Client.at | None -> t)
        first.Client.sent closed
      -. first.Client.sent
  in
  let n = List.length lat in
  let batches = Served.batches closed_exchanges in
  let events = Served.events_of closed_exchanges in
  ( [
      metric "setup_s" (List.length setup) (Stats.median setup);
      metric "latency_p50_ms" n (Stats.median lat);
      metric "latency_p95_ms" n (Stats.quantile lat 0.95);
      metric "rps" answered (Stats.ratio (float_of_int answered) wall);
      metric "events_per_s" events (Stats.ratio (float_of_int events) wall);
      metric "peak_rss_mb" 1 rss;
    ],
    [
      ("loadgen.send_lag_p95_ms", Stats.quantile lag 0.95);
      ("daemon.read_wait_p50_ms", Stats.median wait);
      ("daemon.read_wait_p95_ms", Stats.quantile wait 0.95);
      ("session.server_p50_ms", Stats.median server);
      ("session.server_p95_ms", Stats.quantile server 0.95);
      ( "session.requests_per_batch",
        Stats.ratio (float_of_int (List.length closed_exchanges))
          (float_of_int (List.length batches)) );
      ( "session.events_per_batch",
        Stats.ratio (float_of_int events) (float_of_int (List.length batches)) );
    ] )

(* Send lag above this means the generator, not the daemon, set the
   schedule: the run measured nothing. *)
let max_send_lag_ms = 5.

let validity ctx layers =
  let lag = List.assoc "loadgen.send_lag_p95_ms" layers in
  if ctx.quick || lag <= max_send_lag_ms then None
  else
    Some
      (Printf.sprintf "load generator ran %.2f ms late at p95 (limit %.0f ms)" lag
         max_send_lag_ms)

(* {2 Tracker workloads} *)

(* The open loop's timetable: [size] requests [spacing] apart, every
   [period] seconds. *)
type cycle = { size : int; spacing : float; period : float }

type tracker = {
  n : int;
  daemon : daemon;
  paced : cycle;
  paced_share : float;  (** share of [seconds] spent in the open loop *)
  closed_share : float;  (** share of [seconds] spent in the closed loop *)
  window : int;  (** requests outstanding in the closed loop *)
  probes : int;  (** set-up samples, the measured daemon's spawn included *)
  crash_after : int option;
      (** batches a journaled writer seals before it is SIGKILLed; every
          later daemon starts with --restore *)
}

(* Open-loop timetable filling [span] seconds from [t0]. *)
let schedule { size; spacing; period } ~next ~span ~t0 =
  let count = size * max 1 (int_of_float (span /. period)) in
  let due =
    Array.init count (fun i ->
        t0 +. (float_of_int (i / size) *. period) +. (float_of_int (i mod size) *. spacing))
  in
  (Array.map (fun _ -> next ()) due, due)

let quick_seconds = 0.4

let run_tracker ctx w ~lines =
  let c = { failures = [] } in
  let inst, rng = inputs ~n:w.n ~seed:ctx.seed in
  let next = lines rng in
  let inst_path = ctx.dir // "instance.txt" in
  write_file inst_path (Platform.Instance.to_string inst);
  let journal_dir = ctx.dir // "journal" in
  let base = flags w.daemon ~journal_dir in
  (* Crash recovery: the writer's journal is what every later spawn
     restores; SIGKILLed probes leave it untouched. *)
  let written, crashed, extra =
    match w.crash_after with
    | None -> ([||], None, base)
    | Some k ->
      let pid, fd, _ = start ctx ~inst_path base in
      let writer = Client.create ~first_seq:1 fd in
      let written =
        Client.closed writer ~next ~window:w.window
          ~limit:(k * w.daemon.batch) ~until:infinity ~deadline:(now () +. 120.) ()
      in
      Proc.kill pid;
      Unix.close fd;
      check_answers c writer written;
      let crashed = ctx.dir // "journal-crashed" in
      copy_dir ~src:journal_dir ~dst:crashed;
      (written, Some crashed, base @ [ "--restore" ])
  in
  let restoring = w.crash_after <> None in
  let probe_setup =
    probes c ctx ~inst_path ~extra ~kill:restoring (w.probes - 1)
  in
  let state_out = ctx.dir // "state.json" and trace_out = ctx.dir // "trace.json" in
  let pid, fd, setup =
    start ctx ~inst_path (extra @ [ "--state-out"; state_out; "--trace-out"; trace_out ])
  in
  let cl = Client.create ~first_seq:(Array.length written + 1) fd in
  let seconds = if ctx.quick then quick_seconds else ctx.seconds in
  let paced =
    let lines, due =
      schedule w.paced ~next ~span:(w.paced_share *. seconds) ~t0:(now () +. 0.05)
    in
    let deadline = Array.fold_left Float.max (now ()) due +. grace in
    Client.paced cl ~lines ~due ~deadline
  in
  let until = now () +. (w.closed_share *. seconds) in
  let closed =
    Client.closed cl ~next ~window:w.window
      ?limit:(if ctx.quick then Some 8 else None)
      ~until ~deadline:(until +. grace) ()
  in
  query c cl;
  let rss = Proc.peak_rss_mb pid in
  stop c ~pid cl;
  let served = Array.append paced closed in
  check_answers c cl served;
  if c.failures = [] then check_replay c ctx w.daemon ~inst_path ~state_out ~trace_out;
  let epoch = if restoring then 1 else 0 in
  let metrics, layers =
    tracker_metrics ~setup:(setup :: probe_setup) ~rss ~paced ~closed
      ~closed_exchanges:(exchanges ~epoch closed)
  in
  let all = Array.append written served in
  {
    metrics;
    layers;
    attempted = Array.length all;
    failed = Client.unanswered all + Client.errors all;
    failures = List.rev c.failures;
    invalid = validity ctx layers;
    served =
      Some
        {
          Served.instance = inst;
          config = session_config w.daemon;
          journal = w.daemon.journal;
          exchanges = exchanges ~epoch:0 written @ exchanges ~epoch served;
          state_out = (try read_file state_out with Sys_error _ -> "");
          trace_out = (try read_file trace_out with Sys_error _ -> "");
          crashed_journal = crashed;
        };
  }

(* Burst: every batch coalesces into one Flash_crowd (eight successive
   Repair.join calls) plus one Fail_batch, journaled before the ack. The
   open loop sends a batch's 32 requests 10 ms apart every 1.5 s. *)
let burst ctx =
  let joins, leaves = if ctx.quick then (2, 6) else (8, 24) in
  run_tracker ctx ~lines:(burst_lines ~joins ~leaves)
    {
      n = (if ctx.quick then 400 else 10_000);
      daemon =
        {
          batch = joins + leaves;
          patch_only = false;
          audit = Churn.Audit.Check;
          journal = Some (Tracker.Journal.Batch, 8);
        };
      paced =
        { size = joins + leaves; spacing = 0.01; period = (if ctx.quick then 0.1 else 1.5) };
      paced_share = 0.6;
      closed_share = 0.4;
      window = joins + leaves;
      probes = 5;
      crash_after = None;
    }

(* Mixed: no coalescing, an inline certificate audit and a flow update per
   request, no journal; 24 requests/s. Patch-only: under the adaptive
   policy about 4 % of requests rebuild, so the p95 sits on the edge
   between patched and rebuilt requests and jumps between them from run
   to run; burst and recover rebuild on most batches. *)
let mixed ctx =
  run_tracker ctx ~lines:mixed_lines
    {
      n = (if ctx.quick then 300 else 2000);
      daemon =
        {
          batch = 1;
          patch_only = true;
          audit = Churn.Audit.Certificate { strict_every = 64 };
          journal = None;
        };
      paced = { size = 1; spacing = 0.; period = (if ctx.quick then 0.025 else 1. /. 24.) };
      paced_share = 0.6;
      closed_share = 0.4;
      window = 32;
      probes = 5;
      crash_after = None;
    }

(* Recover: a writer seals six batches of mass departures (checkpoint
   every four) and is SIGKILLed after its last ack; the measured daemon's
   set-up is the restore (WAL scan, checkpoint load, two-batch tail
   replay), then it serves the same traffic, one batch every 0.6 s in the
   open loop. Departures only: a batch is one Fail_batch, a sixth of a
   burst batch's cost, so three restores and the replay check fit one
   run. *)
let recover ctx =
  let leaves = if ctx.quick then 8 else 32 in
  run_tracker ctx ~lines:(burst_lines ~joins:0 ~leaves)
    {
      n = (if ctx.quick then 400 else 10_000);
      daemon =
        {
          batch = leaves;
          patch_only = false;
          audit = Churn.Audit.Check;
          journal = Some (Tracker.Journal.Batch, if ctx.quick then 2 else 4);
        };
      paced = { size = leaves; spacing = 0.01; period = (if ctx.quick then 0.1 else 0.6) };
      paced_share = 0.45;
      closed_share = 0.25;
      window = leaves;
      probes = (if ctx.quick then 2 else 3);
      crash_after = Some (if ctx.quick then 3 else 6);
    }

(* {2 Streaming dataplane} *)

(* Stream: build the Theorem 4.1 overlay at 10x the tracker's scale and
   run the per-neighbor-queue dataplane over it in file mode; no tracker
   layer is involved. One dataplane run is one "request"; 8 chunks keep
   a run under a second, so a measurement takes the median of about 20. *)
let stream_n ctx = if ctx.quick then 500 else 100_000
let stream_chunks = 8

let stream ctx =
  let failures = ref [] in
  let n = stream_n ctx in
  let chunks = if ctx.quick then 8 else stream_chunks in
  let build () =
    let t0 = now () in
    let inst, _ = inputs ~n ~seed:ctx.seed in
    let o = Broadcast.Overlay.build inst in
    let csr = Broadcast.Scheme.snapshot (Broadcast.Overlay.scheme o) in
    (now () -. t0, (o, csr))
  in
  let first, (o, csr) = build () in
  let setups = first :: List.init 2 (fun _ -> fst (build ())) in
  let rate = Broadcast.Overlay.rate o in
  let config =
    {
      Stream.Dataplane.default_config with
      chunks;
      seed = Int64.of_int ctx.seed;
      discipline = Stream.Dataplane.Random_useful;
    }
  in
  let seconds = if ctx.quick then quick_seconds else ctx.seconds in
  let start = now () in
  let rec reps acc =
    if List.length acc >= 2 && (ctx.quick || now () -. start >= seconds) then
      List.rev acc
    else begin
      (* Leave no garbage from set-up or an earlier run for the timed run
         to collect. *)
      Gc.full_major ();
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let r = Stream.Dataplane.run ~config csr ~rate in
      let wall = now () -. t0 in
      let words = Gc.minor_words () -. w0 in
      let json =
        Stream.Dataplane.metrics_to_json ~config ~nodes:(Flowgraph.Csr.node_count csr)
          ~edges:(Flowgraph.Csr.edge_count csr) ~rate r
      in
      reps ((r, wall, words, json) :: acc)
    end
  in
  let runs = reps [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iteri
    (fun i (r, _, _, json) ->
      let module D = Stream.Dataplane in
      if not r.D.delivered_all then fail "run %d did not deliver every chunk" i;
      if r.D.events <> n * chunks then
        fail "run %d processed %d events, expected n*chunks = %d" i r.D.events (n * chunks);
      let _, _, _, first = List.hd runs in
      if json <> first then fail "run %d metrics differ from run 0" i)
    runs;
  let walls = List.map (fun (_, w, _, _) -> w) runs in
  let events = List.map (fun (r, _, _, _) -> float_of_int r.Stream.Dataplane.events) runs in
  let words = List.map (fun (_, _, w, _) -> w) runs in
  let k = List.length runs in
  let delivered = List.length (List.filter (fun (r, _, _, _) -> r.Stream.Dataplane.delivered_all) runs) in
  {
    metrics =
      [
        metric "setup_s" 3 (Stats.median setups);
        metric "latency_p50_ms" k (ms (Stats.median walls));
        metric "latency_p95_ms" k (ms (Stats.quantile walls 0.95));
        metric "rps" k (float_of_int k /. Stats.sum walls);
        metric "events_per_s" k
          (Stats.median (List.map2 ( /. ) events walls));
        metric "peak_rss_mb" 1 (Proc.peak_rss_mb 0);
      ];
    layers =
      [
        ("dataplane.events", Stats.median events);
        ("dataplane.minor_words_per_event", Stats.sum words /. Stats.sum events);
      ];
    attempted = k;
    failed = k - delivered;
    failures = List.rev !failures;
    invalid = None;
    served = None;
  }

let all = [ ("burst-n1e4", burst); ("mixed-n2e3", mixed); ("recover-n1e4", recover);
            ("stream-n1e5", stream) ]
