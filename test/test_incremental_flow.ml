(* Differential harness for the warm-start incremental max-flow solver
   (Flowgraph.Maxflow.Incremental) behind the churn engine's
   [--engine incremental] knob.

   The heart is a QCheck property replaying random traces against random
   platforms with the incremental engine under a Strict audit — which
   already cross-checks the warm value against a from-scratch Dinic
   after every event — plus a probe that re-asserts the same equality
   independently, compares [achieves_rate] verdicts at rates bracketing
   the optimum, and checks the audit verdict itself is identical with
   and without the warm state. Around it: targeted unit cases for the
   paths where incremental solvers rot (leave of a saturated relay, a
   join that re-saturates, degrade to zero, restore, back-to-back deltas
   on the same node), the cyclic cold-fallback, and a regression pinning
   that the trace shrinker minimizes counterexamples. *)

open Platform
module MF = Flowgraph.Maxflow
module MFI = Flowgraph.Maxflow.Incremental
module Csr = Flowgraph.Csr

let slack = Broadcast.Verify.flow_slack

let overlay_of_seed ?(total = 14) ?(headroom = 0.9) seed =
  let rng = Prng.Splitmix.create (Int64.of_int (0x1f0c + seed)) in
  let inst =
    Platform.Generator.generate
      { Platform.Generator.total; p_open = 0.7; dist = Prng.Dist.unif100 }
      rng
  in
  let t, _ = Broadcast.Greedy.optimal_acyclic inst in
  Broadcast.Overlay.build ~rate:(t *. headroom) inst

let snapshot o = Broadcast.Scheme.snapshot (Broadcast.Overlay.scheme o)

(* The differential assertion: warm value against a from-scratch CSR
   Dinic on the overlay's snapshot, within the library's flow slack. *)
let assert_matches_scratch what inc o =
  let snap = snapshot o in
  let warm = MFI.value inc in
  let scratch = MF.min_broadcast_flow_csr snap ~src:0 in
  if
    (Float.is_finite warm || Float.is_finite scratch)
    && Float.abs (warm -. scratch) > slack scratch
  then
    Alcotest.failf "%s: warm value %.12g vs from-scratch Dinic %.12g" what warm
      scratch;
  scratch

(* Identical achieves_rate verdicts at rates bracketing the optimum.
   Rates sit at least 10 flow-slacks away from the value, where the two
   engines' float noise (each within one slack of the other) cannot flip
   a verdict. *)
let assert_verdicts_agree what inc o scratch =
  if Float.is_finite scratch && scratch > 0. then
    List.iter
      (fun rate ->
        let warm = MFI.achieves_rate inc ~rate in
        let full = MF.achieves_rate_csr (snapshot o) ~src:0 ~rate in
        if warm <> full then
          Alcotest.failf "%s: verdicts differ at rate %.12g (warm %b, full %b)"
            what rate warm full)
      [
        0.5 *. scratch;
        scratch -. (10. *. slack scratch);
        scratch +. (10. *. slack scratch);
        2. *. scratch;
      ]

let audit_outcome ?flow ~index o =
  match Churn.Audit.check Churn.Audit.Strict ~index ?flow o with
  | () -> None
  | exception Churn.Audit.Violation { what; _ } -> Some what

let probe ~index o flow =
  match flow with
  | None -> Alcotest.fail "incremental engine did not thread its state"
  | Some inc ->
    let what = Printf.sprintf "event %d" index in
    let scratch = assert_matches_scratch what inc o in
    assert_verdicts_agree what inc o scratch;
    let without = audit_outcome ~index o in
    let with_flow = audit_outcome ~flow:inc ~index o in
    if without <> with_flow then
      Alcotest.failf
        "%s: audit outcome differs across engines (full: %s, incremental: %s)"
        what
        (Option.value ~default:"ok" without)
        (Option.value ~default:"ok" with_flow)

(* ~300 random platforms x random 50-event traces, checked after every
   event. Headroom varies so some runs start saturated; the policy
   varies so the rebase path (policy rebuilds) is exercised too. *)
let prop_differential =
  QCheck.Test.make ~count:300
    ~name:"incremental = from-scratch Dinic after every event"
    (QCheck.pair
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (Helpers.trace_arb ~events:50 ()))
    (fun (seed, trace) ->
      let headroom = [| 1.0; 0.9; 0.7 |].(seed mod 3) in
      let policy =
        if seed mod 7 = 0 then Churn.Policy.adaptive_default
        else Churn.Policy.Always_patch
      in
      let o = overlay_of_seed ~headroom seed in
      let result =
        Churn.Engine.run ~policy ~audit:Churn.Audit.Strict
          ~engine:Churn.Audit.Incremental ~probe o trace
      in
      ignore result;
      true)

(* The engine knob must never change the run itself: identical timeline
   and summary whichever engine maintains the rate. *)
let prop_engine_knob_inert =
  QCheck.Test.make ~count:60 ~name:"engine knob never changes run results"
    (QCheck.pair
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (Helpers.trace_arb ~events:30 ()))
    (fun (seed, trace) ->
      let run engine =
        Churn.Engine.run ~audit:Churn.Audit.Check ~engine
          (overlay_of_seed seed) trace
      in
      let a = run Churn.Audit.Full and b = run Churn.Audit.Incremental in
      a.Churn.Engine.summary = b.Churn.Engine.summary
      && a.Churn.Engine.timeline = b.Churn.Engine.timeline)

(* {2 Repair's churn counts against the formulas they replaced}

   [Repair] counts from its own edge log and a rate-only optimum search;
   the formulas that rebuild and diff whole graphs are [Oracle]'s. After
   every Repair call of a random trace, [optimal_after] must carry the bits of the rate
   [Overlay.build] targets, [patch_edges] must equal the casualty edges
   plus the distance from the renumbered pre-event graph to the patched
   one, and [rebuild_distance] must equal the old per-event
   [rebuild_edges]; every tenth event a rebuild's count must equal the
   hashtable diff. *)

let min_population = 3

let resolve_pick ~size pick = 1 + (pick mod (size - 1))

(* Churn.Engine's batch rule: distinct casualties, at most [size - 3]. *)
let resolve_batch ~size picks =
  List.fold_left
    (fun acc pick ->
      let v = resolve_pick ~size pick in
      if List.length acc >= size - min_population || List.mem v acc then acc
      else v :: acc)
    [] picks

let check_repair ~what before ((patched, (stats : Broadcast.Repair.stats)) as r) =
  let module R = Broadcast.Repair in
  let bits = Int64.bits_of_float in
  let inst = Broadcast.Overlay.instance patched in
  if bits stats.R.optimal_after <> bits (Oracle.optimal_after inst) then
    Alcotest.failf "%s: optimal_after %h, Overlay.build's rate %h" what
      stats.R.optimal_after (Oracle.optimal_after inst);
  let patch = Oracle.patch_edges ~before patched stats in
  if stats.R.patch_edges <> patch then
    Alcotest.failf "%s: patch_edges %d, graph diff %d" what stats.R.patch_edges patch;
  let rebuild = Oracle.rebuild_edges ~before patched stats in
  let distance = R.rebuild_distance ~before patched stats in
  if distance <> rebuild then
    Alcotest.failf "%s: rebuild_distance %d, old rebuild_edges %d" what distance
      rebuild;
  r

let replay_checked o (trace : Churn.Trace.t) =
  let module R = Broadcast.Repair in
  let cls guarded = if guarded then Instance.Guarded else Instance.Open in
  Array.iteri
    (fun index event ->
      let what = Printf.sprintf "event %d" index in
      let o0 = !o in
      let size = Instance.size (Broadcast.Overlay.instance o0) in
      let bandwidth node factor =
        (Broadcast.Overlay.instance o0).Instance.bandwidth.(node) *. factor
      in
      let repaired =
        match event with
        | Churn.Trace.Leave { pick } ->
          if size <= min_population then None
          else Some (R.leave o0 ~node:(resolve_pick ~size pick))
        | Join { bandwidth; guarded } ->
          Some (R.join o0 ~bandwidth ~cls:(cls guarded))
        | Degrade { pick; factor } ->
          let node = resolve_pick ~size pick in
          Some (R.degrade o0 ~node ~bandwidth:(bandwidth node factor))
        | Restore { pick; factor } ->
          let node = resolve_pick ~size pick in
          Some (R.restore o0 ~node ~bandwidth:(bandwidth node (1. /. factor)))
        | Fail_batch { picks } -> (
          match resolve_batch ~size picks with
          | [] -> None
          | nodes -> Some (R.leave_batch o0 ~nodes))
        | Flash_crowd { arrivals } ->
          (* One checked Repair call per arrival. *)
          List.iter
            (fun (bandwidth, guarded) ->
              let before = !o in
              o :=
                fst
                  (check_repair ~what before
                     (R.join before ~bandwidth ~cls:(cls guarded))))
            arrivals;
          None
      in
      Option.iter (fun r -> o := fst (check_repair ~what o0 r)) repaired;
      if index mod 10 = 9 then begin
        let headroom = if index mod 20 = 9 then None else Some 0.9 in
        match R.rebuild ?headroom !o with
        | rebuilt, stats ->
          let diff =
            Oracle.edge_distance (Broadcast.Overlay.graph !o)
              (Broadcast.Overlay.graph rebuilt)
          in
          if stats.R.patch_edges <> diff then
            Alcotest.failf "%s: rebuild patch_edges %d, graph diff %d" what
              stats.R.patch_edges diff;
          o := rebuilt
        | exception Invalid_argument _ -> ()
      end)
    trace.Churn.Trace.events

(* Same ~300 random platform/trace pairs as the flow differential. *)
let prop_repair_counts =
  QCheck.Test.make ~count:300
    ~name:"repair counts = rebuild-and-diff formulas after every event"
    (QCheck.pair
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (Helpers.trace_arb ~events:50 ()))
    (fun (seed, trace) ->
      let headroom = [| 1.0; 0.9; 0.7 |].(seed mod 3) in
      replay_checked (ref (overlay_of_seed ~headroom seed)) trace;
      true)

(* The same checks from degenerate platforms; one whose optimum is 0
   admits no overlay, and only the reported optimum is compared. *)
let prop_repair_counts_degenerate =
  QCheck.Test.make ~count:100
    ~name:"repair counts = formulas from degenerate platforms"
    (QCheck.pair Helpers.degenerate_instance (Helpers.trace_arb ~events:30 ()))
    (fun (inst, trace) ->
      let optimum = Broadcast.Overlay.optimal_rate inst in
      if Int64.bits_of_float optimum <> Int64.bits_of_float (Oracle.optimal_after inst)
      then Alcotest.failf "optimum %h, Overlay.build's rate %h" optimum
          (Oracle.optimal_after inst);
      if optimum > 0. then
        replay_checked (ref (Broadcast.Overlay.build ~rate:optimum inst)) trace;
      true)

(* {2 Targeted unit cases} *)

(* Apply one repair operation to both the overlay and the warm state,
   and check the warm value differentially. *)
let step what inc o (o', (stats : Broadcast.Repair.stats)) =
  MFI.apply inc ~map:stats.Broadcast.Repair.node_map (snapshot o');
  ignore o;
  let scratch = assert_matches_scratch what inc o' in
  assert_verdicts_agree what inc o' scratch;
  o'

(* A relay on a fully saturated overlay: every upstream byte it forwards
   must be refunded along its decomposition paths when it leaves. *)
let test_leave_saturated_relay () =
  let o = overlay_of_seed ~headroom:1.0 3 in
  let inc = MFI.create (snapshot o) ~src:0 in
  ignore (assert_matches_scratch "initial" inc o);
  let snap = snapshot o in
  let relay = ref (-1) in
  for v = Csr.node_count snap - 1 downto 1 do
    if Csr.out_degree snap v > 0 then relay := v
  done;
  if !relay < 0 then Alcotest.fail "no relay in the saturated overlay";
  let o = step "leave relay" inc o (Broadcast.Repair.leave o ~node:!relay) in
  (* and a second casualty on the already-degraded overlay *)
  ignore (step "leave again" inc o (Broadcast.Repair.leave o ~node:1))

(* A join can re-saturate the overlay: the newcomer is fed from spare
   capacity, shifting in-weights and possibly the critical sink. *)
let test_join_resaturates () =
  let o = overlay_of_seed ~headroom:0.7 5 in
  let inc = MFI.create (snapshot o) ~src:0 in
  let o =
    step "join strong" inc o
      (Broadcast.Repair.join o ~bandwidth:500. ~cls:Instance.Open)
  in
  (* a second join onto the (possibly) saturated overlay: admitted at
     rate 0, which collapses the cut — the warm value must follow. *)
  ignore
    (step "join saturated" inc o
       (Broadcast.Repair.join o ~bandwidth:40. ~cls:Instance.Open))

let test_degrade_to_zero_then_restore () =
  let o = overlay_of_seed ~headroom:0.9 7 in
  let inc = MFI.create (snapshot o) ~src:0 in
  let node = 2 in
  let b = (Broadcast.Overlay.instance o).Instance.bandwidth.(node) in
  let o', (stats : Broadcast.Repair.stats) =
    Broadcast.Repair.degrade o ~node ~bandwidth:0.
  in
  let node' = stats.Broadcast.Repair.node_map.(node) in
  let o' = step "degrade to zero" inc o (o', stats) in
  ignore
    (step "restore" inc o'
       (Broadcast.Repair.restore o' ~node:node' ~bandwidth:b))

let test_back_to_back_same_node () =
  let o = overlay_of_seed ~headroom:0.9 11 in
  let inc = MFI.create (snapshot o) ~src:0 in
  let node = 3 in
  let b = (Broadcast.Overlay.instance o).Instance.bandwidth.(node) in
  let o1, (s1 : Broadcast.Repair.stats) =
    Broadcast.Repair.degrade o ~node ~bandwidth:(b *. 0.5)
  in
  let node1 = s1.Broadcast.Repair.node_map.(node) in
  let o1 = step "first degrade" inc o (o1, s1) in
  let o2, (s2 : Broadcast.Repair.stats) =
    Broadcast.Repair.degrade o1 ~node:node1 ~bandwidth:(b *. 0.1)
  in
  let node2 = s2.Broadcast.Repair.node_map.(node1) in
  let o2 = step "second degrade, same node" inc o1 (o2, s2) in
  ignore
    (step "restore, same node" inc o2
       (Broadcast.Repair.restore o2 ~node:node2 ~bandwidth:b))

(* Identity event: same snapshot, identity map — nothing to refund, the
   warm value survives untouched. *)
let test_identity_apply () =
  let o = overlay_of_seed 13 in
  let snap = snapshot o in
  let inc = MFI.create snap ~src:0 in
  let before = MFI.value inc in
  MFI.apply inc ~map:(MFI.identity_map (Csr.node_count snap)) snap;
  Alcotest.(check bool)
    "no flow refunded" true
    ((MFI.last_stats inc).MFI.refunded = 0.);
  Helpers.close "value unchanged" (MFI.value inc) before

(* Cyclic snapshots (unreachable through Repair, allowed by the API)
   fall back to the full from-scratch solve, flagged as cold. *)
let test_cyclic_cold_fallback () =
  let g = Flowgraph.Graph.create 4 in
  Flowgraph.Graph.add_edge g ~src:0 ~dst:1 4.;
  Flowgraph.Graph.add_edge g ~src:1 ~dst:2 3.;
  Flowgraph.Graph.add_edge g ~src:2 ~dst:1 1.;
  Flowgraph.Graph.add_edge g ~src:2 ~dst:3 2.;
  let c = Csr.of_graph g in
  let inc = MFI.create c ~src:0 in
  Alcotest.(check bool) "cold" false (MFI.is_warm inc);
  Helpers.close ~tol:1e-6 "cold value = full Dinic" (MFI.value inc)
    (MF.min_broadcast_flow_csr c ~src:0);
  (* back to an acyclic snapshot: the solver warms up again *)
  Flowgraph.Graph.set_edge g ~src:2 ~dst:1 0.;
  let c' = Csr.of_graph g in
  MFI.apply inc ~map:(MFI.identity_map 4) c';
  Alcotest.(check bool) "warm again" true (MFI.is_warm inc);
  Helpers.close ~tol:1e-6 "warm value = full Dinic" (MFI.value inc)
    (MF.min_broadcast_flow_csr c' ~src:0)

let test_map_validation () =
  let o = overlay_of_seed 17 in
  let snap = snapshot o in
  let inc = MFI.create snap ~src:0 in
  (try
     MFI.apply inc ~map:[| 0 |] snap;
     Alcotest.fail "short map accepted"
   with Invalid_argument _ -> ());
  let map = MFI.identity_map (Csr.node_count snap) in
  map.(0) <- -1;
  try
    MFI.apply inc ~map snap;
    Alcotest.fail "departing source accepted"
  with Invalid_argument _ -> ()

(* {2 Shrinking regression}

   A seeded known-bad property over generated traces must minimize: the
   structural shrinker (drop half / drop one / shrink events in place)
   lands on a counterexample of at most 3 events, where seed-based
   generation used to print the full 100-event trace. *)
let test_trace_shrinks_to_few_events () =
  let cell =
    QCheck.Test.make_cell ~count:200 ~name:"traces never degrade (known bad)"
      (Helpers.trace_arb ~events:100 ())
      (fun t ->
        Array.for_all
          (fun e ->
            match e with Churn.Trace.Degrade _ -> false | _ -> true)
          t.Churn.Trace.events)
  in
  let result =
    QCheck.Test.check_cell ~rand:(Random.State.make [| 0x5eed |]) cell
  in
  match QCheck.TestResult.get_state result with
  | QCheck.TestResult.Failed { instances = c :: _ } ->
    let events =
      Array.length c.QCheck.TestResult.instance.Churn.Trace.events
    in
    if events > 3 then
      Alcotest.failf "counterexample kept %d events (expected <= 3)" events;
    if c.QCheck.TestResult.shrink_steps = 0 then
      Alcotest.fail "shrinker never ran"
  | _ -> Alcotest.fail "the seeded known-bad property did not fail"

(* The instance shrinker must only yield well-formed sorted instances
   (the generator's own invariant), or shrinking would crash mid-search. *)
let test_instance_shrink_well_formed () =
  let inst =
    fst
      (Instance.normalize
         (Instance.create ~bandwidth:[| 10.; 8.; 5.; 3.; 2. |] ~n:2 ~m:2 ()))
  in
  let count = ref 0 in
  Helpers.instance_shrink inst (fun inst' ->
      incr count;
      Alcotest.(check bool) "sorted" true (Instance.sorted inst');
      Alcotest.(check bool)
        "smaller" true
        (Instance.size inst' < Instance.size inst));
  Alcotest.(check bool) "yields candidates" true (!count > 0)

let suites =
  [
    ( "incremental-flow",
      [
        QCheck_alcotest.to_alcotest prop_differential;
        QCheck_alcotest.to_alcotest prop_engine_knob_inert;
        QCheck_alcotest.to_alcotest prop_repair_counts;
        QCheck_alcotest.to_alcotest prop_repair_counts_degenerate;
        Alcotest.test_case "leave of saturated relay" `Quick
          test_leave_saturated_relay;
        Alcotest.test_case "join that re-saturates" `Quick
          test_join_resaturates;
        Alcotest.test_case "degrade to zero, restore" `Quick
          test_degrade_to_zero_then_restore;
        Alcotest.test_case "back-to-back deltas, same node" `Quick
          test_back_to_back_same_node;
        Alcotest.test_case "identity apply is free" `Quick
          test_identity_apply;
        Alcotest.test_case "cyclic cold fallback" `Quick
          test_cyclic_cold_fallback;
        Alcotest.test_case "map validation" `Quick test_map_validation;
        Alcotest.test_case "trace shrinker minimizes" `Quick
          test_trace_shrinks_to_few_events;
        Alcotest.test_case "instance shrinker well-formed" `Quick
          test_instance_shrink_well_formed;
      ] );
  ]
