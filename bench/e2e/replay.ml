(* The traced run's second half: replay a tracker run's committed history
   in-process, calling each layer's public functions in the order
   Churn.Engine.step and Tracker.Session.flush call them, with a span
   around every call. Spans live in a table in memory and become the
   per-layer metrics at the end.

   The replay is checked against the daemon three ways: the coalesced
   events must equal its --trace-out, every response it encodes must
   equal the daemon's response line byte for byte, and its final scheme
   must equal --state-out. An untraced reference replay through
   Churn.Engine itself times the same batches, so the spans can be
   compared with the real engine's wall time. *)

open Broadcast
module Trace = Churn.Trace
module Engine = Churn.Engine
module Inc = Flowgraph.Maxflow.Incremental
module Instance = Platform.Instance

let now = Unix.gettimeofday

(* {2 Spans} *)

type spans = (string, float * int) Hashtbl.t

let span (tbl : spans) name f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let s, k = Option.value (Hashtbl.find_opt tbl name) ~default:(0., 0) in
  Hashtbl.replace tbl name (s +. dt, k + 1);
  r

let busy (tbl : spans) name =
  Option.value (Hashtbl.find_opt tbl name) ~default:(0., 0)

(* {2 The engine's step, restated over public functions}

   Picks resolve as engine.mli documents: [1 + pick mod (size - 1)],
   leaves skipped at 3 nodes or fewer, batch failures deduplicated and
   capped at [size - 3] casualties. *)

let min_population = 3
let resolve_pick ~size pick = 1 + (pick mod (size - 1))
let cls_of guarded = if guarded then Instance.Guarded else Instance.Open

let resolve_batch ~size picks =
  let budget = size - min_population in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun pick ->
      let v = resolve_pick ~size pick in
      if Hashtbl.length seen >= budget || Hashtbl.mem seen v then None
      else begin
        Hashtbl.add seen v ();
        Some v
      end)
    picks

type repaired = {
  patched : Overlay.t;
  stats : Repair.stats;
      (** the last call's, with the composed node map and summed patch
          edges; its delta is the event's own only for a single call *)
  calls : Repair.stats list;  (** one per Repair call, newest first *)
}

let repair o (event : Trace.event) =
  let size = Scheme.size (Overlay.scheme o) in
  let one (patched, stats) = Some { patched; stats; calls = [ stats ] } in
  match event with
  | Trace.Leave { pick } ->
    if size <= min_population then None
    else one (Repair.leave o ~node:(resolve_pick ~size pick))
  | Trace.Join { bandwidth; guarded } ->
    one (Repair.join o ~bandwidth ~cls:(cls_of guarded))
  | Trace.Degrade { pick; factor } ->
    let node = resolve_pick ~size pick in
    let b = (Overlay.instance o).Instance.bandwidth.(node) in
    one (Repair.degrade o ~node ~bandwidth:(b *. factor))
  | Trace.Restore { pick; factor } ->
    let node = resolve_pick ~size pick in
    let b = (Overlay.instance o).Instance.bandwidth.(node) in
    one (Repair.restore o ~node ~bandwidth:(b /. factor))
  | Trace.Fail_batch { picks } -> (
    match resolve_batch ~size picks with
    | [] -> None
    | nodes -> one (Repair.leave_batch o ~nodes))
  | Trace.Flash_crowd { arrivals } ->
    (* Successive joins; the burst's node map is the composition of the
       per-join renumberings. *)
    List.fold_left
      (fun acc (bandwidth, guarded) ->
        let o = match acc with Some r -> r.patched | None -> o in
        let patched, (s : Repair.stats) =
          Repair.join o ~bandwidth ~cls:(cls_of guarded)
        in
        match acc with
        | None -> Some { patched; stats = s; calls = [ s ] }
        | Some r ->
          let map =
            Array.map
              (fun v -> if v < 0 then -1 else s.Repair.node_map.(v))
              r.stats.Repair.node_map
          in
          Some
            {
              patched;
              stats =
                {
                  s with
                  Repair.patch_edges = r.stats.Repair.patch_edges + s.Repair.patch_edges;
                  node_map = map;
                };
              calls = s :: r.calls;
            })
      None arrivals

type engine = {
  pstate : Churn.Policy.state;
  audit : Churn.Audit.level;
  headroom : float option;
  flow : Inc.t;
  mutable overlay : Overlay.t;
  mutable steps : int;
  mutable rebuilds : int;
  mutable churn : int;
  mutable pending : (int * Repair.stats option) option;
      (** the deferred audit: latest applied index, and its stats when
          they are exact (none after a composition — Audit.check then
          takes its documented full-scan path) *)
  mutable repair_calls : int;
  mutable identity_calls : int;
  mutable touched : int;
}

let ratio_of ~rate ~optimal =
  if optimal > 0. && Float.is_finite optimal then rate /. optimal else 1.

(* Shadow spans: extra work, reported but never summed — what the repair
   just paid for its reference rebuild (once per Repair call) and for
   full CSR freezes (once per call off the identity fast path). *)
let shadows tbl (r : repaired) =
  let inst = Overlay.instance r.patched in
  let graph = Overlay.graph r.patched in
  List.iter
    (fun (s : Repair.stats) ->
      span tbl "shadow.reference_build" (fun () ->
          try ignore (Overlay.build inst) with Invalid_argument _ -> ());
      let d = s.Repair.delta in
      if d.Repair.full || not d.Repair.identity then
        span tbl "shadow.freeze" (fun () -> ignore (Flowgraph.Csr.of_graph graph)))
    r.calls

let step tbl st (event : Trace.event) : Engine.record =
  let index = st.steps in
  st.steps <- index + 1;
  match span tbl "repair" (fun () -> repair st.overlay event) with
  | None ->
    let o = st.overlay in
    let rate = Overlay.verified_rate o in
    let max_excess =
      span tbl "metrics" (fun () -> (Metrics.scheme_report (Overlay.scheme o)).max_excess)
    in
    {
      index; event; action = Engine.Skipped; size = Scheme.size (Overlay.scheme o);
      rate; optimal = rate; ratio = 1.; churn_edges = 0;
      cumulative_churn = st.churn; max_excess; rebuilds = st.rebuilds;
    }
  | Some r ->
    shadows tbl r;
    List.iter
      (fun (s : Repair.stats) ->
        st.repair_calls <- st.repair_calls + 1;
        let d = s.Repair.delta in
        if not d.Repair.full then begin
          if d.Repair.identity then st.identity_calls <- st.identity_calls + 1;
          st.touched <- st.touched + Array.length d.Repair.touched
        end)
      r.calls;
    let max_excess =
      span tbl "metrics" (fun () ->
          (Metrics.scheme_report (Overlay.scheme r.patched)).max_excess)
    in
    let obs =
      { Churn.Policy.rate = r.stats.Repair.rate_after; optimal = r.stats.Repair.optimal_after;
        max_excess }
    in
    let o, action, churn_edges, (fstats : Repair.stats), max_excess, exact =
      if span tbl "policy" (fun () -> Churn.Policy.decide st.pstate obs) then begin
        let rebuilt, (rs : Repair.stats) =
          span tbl "rebuild" (fun () ->
              let rebuilt = Repair.rebuild ?headroom:st.headroom r.patched in
              Churn.Policy.note_rebuild st.pstate (fst rebuilt);
              rebuilt)
        in
        st.rebuilds <- st.rebuilds + 1;
        let mx =
          span tbl "metrics" (fun () ->
              (Metrics.scheme_report (Overlay.scheme rebuilt)).max_excess)
        in
        (rebuilt, Engine.Rebuilt, r.stats.Repair.patch_edges + rs.Repair.patch_edges, rs, mx,
         true)
      end
      else
        ( r.patched, Engine.Patched, r.stats.Repair.patch_edges, r.stats, max_excess,
          List.length r.calls = 1 && st.pending = None )
    in
    st.overlay <- o;
    st.churn <- st.churn + churn_edges;
    span tbl "flow" (fun () ->
        let snap = Scheme.snapshot (Overlay.scheme o) in
        if action = Engine.Rebuilt then Inc.rebase st.flow snap
        else Inc.apply st.flow ~map:fstats.Repair.node_map snap);
    st.pending <- Some (index, if exact then Some fstats else None);
    let rate = fstats.Repair.rate_after and optimal = fstats.Repair.optimal_after in
    {
      index; event; action; size = Scheme.size (Overlay.scheme o); rate; optimal;
      ratio = ratio_of ~rate ~optimal; churn_edges; cumulative_churn = st.churn;
      max_excess; rebuilds = st.rebuilds;
    }

let flush_audit tbl st =
  match st.pending with
  | None -> ()
  | Some (index, stats) ->
    st.pending <- None;
    span tbl "audit" (fun () -> Churn.Audit.check st.audit ~index ?stats ~flow:st.flow st.overlay)

(* {2 Replays} *)

let healing_overlay tbl inst =
  let t, _ = span tbl "setup.optimal_acyclic" (fun () -> Greedy.optimal_acyclic inst) in
  span tbl "setup.overlay_build" (fun () ->
      Overlay.build ~rate:(t *. Workload.headroom) inst)

let scheme_bytes o = Scheme.to_json (Overlay.scheme o) ^ "\n"

(* Churn.Engine itself over the same batches, untraced: the wall time and
   allocation the spans are held against. *)
type reference = {
  engine : Engine.state;
  mutable wall : float;
  mutable words : float;
}

let reference (c : Tracker.Session.config) overlay =
  {
    engine =
      Engine.start ~policy:c.Tracker.Session.policy ~audit:c.Tracker.Session.audit
        ~engine:c.Tracker.Session.engine
        ?rebuild_headroom:c.Tracker.Session.rebuild_headroom overlay;
    wall = 0.;
    words = 0.;
  }

let reference_batch r events =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  List.iter (fun e -> ignore (Engine.step ~defer_audit:true r.engine e)) events;
  Engine.flush_audit r.engine;
  r.wall <- r.wall +. (now () -. t0);
  r.words <- r.words +. (Gc.minor_words () -. w0)

let journal_counters ~seq ~events ~batches =
  {
    Tracker.Journal.zero_counters with
    seq; requests = seq; events; batches;
  }

(* Recovery of the killed writer's journal, in-process on a copy. *)
let recovery tbl (served : Served.t) overlay ~scratch =
  match (served.Served.crashed_journal, served.Served.journal) with
  | Some crashed, Some (sync, every) ->
    let dir = Filename.concat scratch "journal-recover" in
    Files.copy_dir ~src:crashed ~dst:dir;
    let j, recovered =
      span tbl "recover.scan" (fun () ->
          Tracker.Journal.start ~dir ~sync ~checkpoint_every:every ~restore:true ())
    in
    ignore
      (span tbl "recover.replay" (fun () ->
           Tracker.Session.create ~journal:j ?recovered served.Served.config overlay));
    Tracker.Journal.close j;
    Files.rm_rf dir;
    Option.fold ~none:0
      ~some:(fun r ->
        List.fold_left (fun k (_, evs) -> k + List.length evs) 0 r.Tracker.Journal.tail)
      recovered
  | _ -> 0

type result = { layers : (string * float) list; failures : string list }

let run (served : Served.t) ~scratch =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let tbl : spans = Hashtbl.create 32 in
  let c = served.Served.config in
  let overlay = healing_overlay tbl served.Served.instance in
  let flow =
    span tbl "setup.flow_create" (fun () ->
        Inc.create (Scheme.snapshot (Overlay.scheme overlay)) ~src:0)
  in
  let batches =
    List.map (fun b -> (b, Served.coalesce b)) (Served.batches served.Served.exchanges)
  in
  let events = List.concat_map (fun (_, groups) -> List.map snd groups) batches in
  let committed = Trace.to_json { Trace.events = Array.of_list events } ^ "\n" in
  if committed <> served.Served.trace_out then
    fail "coalesced batches do not reproduce the daemon's --trace-out";
  let ref_engine = reference c overlay in
  let st =
    {
      pstate = Churn.Policy.init c.Tracker.Session.policy overlay;
      audit = c.Tracker.Session.audit;
      headroom = c.Tracker.Session.rebuild_headroom;
      flow;
      overlay;
      steps = 0;
      rebuilds = 0;
      churn = 0;
      pending = None;
      repair_calls = 0;
      identity_calls = 0;
      touched = 0;
    }
  in
  let jdir = Filename.concat scratch "journal-replay" in
  let journal =
    Option.map
      (fun (sync, every) ->
        Files.rm_rf jdir;
        fst
          (Tracker.Journal.start ~dir:jdir ~sync ~checkpoint_every:every ~restore:false ()))
      served.Served.journal
  in
  let audit_name = match st.audit with Churn.Audit.Off -> "off" | _ -> "pass" in
  let wal_bytes = ref 0 and appended = ref 0 and committed_events = ref 0 in
  let mismatched = ref 0 and traced_wall = ref 0. in
  let traced b (members, groups) =
    let t0 = now () in
    List.iter
        (fun (x : Served.exchange) ->
          ignore
            (span tbl "protocol.parse" (fun () ->
                 Tracker.Protocol.parse_request ~max_line:c.Tracker.Session.max_line x.line)))
        members;
      let records = List.map (fun (xs, e) -> (xs, e, step tbl st e)) groups in
      flush_audit tbl st;
      committed_events := !committed_events + List.length groups;
      Option.iter
        (fun j ->
          let before = Tracker.Journal.wal_offset j in
          let seq =
            List.fold_left (fun s (x : Served.exchange) -> max s x.resp.Client.seq) 0 members
          in
          span tbl "journal.append" (fun () ->
              Tracker.Journal.append_batch j ~seq ~events:(List.map snd groups));
          wal_bytes := !wal_bytes + Tracker.Journal.wal_offset j - before;
          incr appended;
          if Tracker.Journal.checkpoint_due j then
            span tbl "journal.checkpoint" (fun () ->
                Tracker.Journal.write_checkpoint j
                  ~counters:
                    (journal_counters ~seq ~events:!committed_events ~batches:(b + 1))
                  st.overlay))
        journal;
      List.iter
        (fun (xs, _, record) ->
          List.iter
            (fun (x : Served.exchange) ->
              let r = x.resp in
              let line =
                span tbl "protocol.encode" (fun () ->
                    Tracker.Protocol.event_response ~seq:r.Client.seq ~batch:r.Client.batch
                      ~latency_us:r.Client.latency_us ~audit:audit_name record)
              in
              if line <> r.Client.line then incr mismatched)
            xs)
        records;
    traced_wall := !traced_wall +. (now () -. t0)
  in
  (* Batch by batch, alternating which replay goes first, so both see the
     same machine: the host's speed drifts over seconds. *)
  List.iteri
    (fun b ((_, groups) as batch) ->
      let plain () = reference_batch ref_engine (List.map snd groups) in
      if b mod 2 = 0 then (plain (); traced b batch) else (traced b batch; plain ()))
    batches;
  Option.iter Tracker.Journal.close journal;
  Files.rm_rf jdir;
  if !mismatched > 0 then fail "%d replayed responses differ from the daemon's" !mismatched;
  if scheme_bytes st.overlay <> served.Served.state_out then
    fail "traced replay differs from --state-out";
  if scheme_bytes (Engine.live ref_engine.engine) <> served.Served.state_out then
    fail "Churn.Engine replay differs from --state-out";
  let ref_wall = ref_engine.wall and ref_words = ref_engine.words in
  let tail_events = recovery tbl served overlay ~scratch in
  let time name = fst (busy tbl name) and calls name = snd (busy tbl name) in
  let per name k = Stats.ratio (time name) (float_of_int k) in
  let n_events = float_of_int (List.length events) in
  let per_event name = Stats.ratio (time name) n_events in
  let engine_spans = [ "repair"; "metrics"; "policy"; "rebuild"; "flow"; "audit" ] in
  let engine_busy = Stats.sum (List.map time engine_spans) in
  let untimed =
    Stats.sum
      (List.map time
         [ "shadow.reference_build"; "shadow.freeze"; "journal.append";
           "journal.checkpoint"; "protocol.parse"; "protocol.encode" ])
  in
  let ms x = x *. 1000. in
  {
    layers =
      [
        ("protocol.parse_us", per "protocol.parse" (calls "protocol.parse") *. 1e6);
        ("protocol.encode_us", per "protocol.encode" (calls "protocol.encode") *. 1e6);
        ("repair.ms_per_event", ms (per_event "repair"));
        ("repair.reference_build_ms_per_event", ms (per_event "shadow.reference_build"));
        ("repair.freeze_ms_per_event", ms (per_event "shadow.freeze"));
        ( "repair.identity_frac",
          Stats.ratio (float_of_int st.identity_calls) (float_of_int st.repair_calls) );
        ( "repair.touched_mean",
          Stats.ratio (float_of_int st.touched) (float_of_int st.repair_calls) );
        ("policy.rebuilds", float_of_int st.rebuilds);
        ("repair.rebuild_ms", ms (per "rebuild" st.rebuilds));
        ("metrics.ms_per_event", ms (per_event "metrics"));
        ("flow.ms_per_event", ms (per_event "flow"));
        ("audit.ms_per_check", ms (per "audit" (calls "audit")));
        ("audit.checks", float_of_int (calls "audit"));
        ("engine.ms_per_event", ms (Stats.ratio ref_wall n_events));
        ("engine.minor_words_per_event", Stats.ratio ref_words n_events);
        ("engine.unattributed_frac", 1. -. Stats.ratio engine_busy ref_wall);
        ("trace.overhead_frac", Stats.ratio (!traced_wall -. untimed -. ref_wall) ref_wall);
        ("journal.ms_per_batch", ms (per "journal.append" !appended));
        ("journal.bytes_per_batch", Stats.ratio (float_of_int !wal_bytes) (float_of_int !appended));
        ("journal.checkpoint_ms", ms (per "journal.checkpoint" (calls "journal.checkpoint")));
        ("recover.scan_ms", ms (time "recover.scan"));
        ("recover.replay_ms", ms (time "recover.replay"));
        ("recover.tail_events", float_of_int tail_events);
        ("setup.optimal_acyclic_s", time "setup.optimal_acyclic");
        ("setup.overlay_build_s", time "setup.overlay_build");
        ("setup.flow_create_s", time "setup.flow_create");
      ];
    failures = List.rev !failures;
  }

(* The stream workload's [Overlay.build inst], split into its two halves:
   the optimum search, then the build at the backed-off rate overlay.ml
   derives from it. *)
let stream_setup inst =
  let tbl : spans = Hashtbl.create 4 in
  let t, _ = span tbl "optimal" (fun () -> Greedy.optimal_acyclic inst) in
  ignore
    (span tbl "build" (fun () ->
         Overlay.build ~rate:(t *. (1. -. (4. *. Util.eps))) inst));
  [
    ("setup.optimal_acyclic_s", fst (busy tbl "optimal"));
    ("setup.overlay_build_s", fst (busy tbl "build"));
  ]
