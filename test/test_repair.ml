(* Tests for the Overlay bundle and the churn-repair operations. *)

open Platform

let build_fig1 () = Broadcast.Overlay.build Instance.fig1

let test_overlay_build () =
  let o = build_fig1 () in
  Helpers.close ~tol:1e-6 "rate ~ 4" (Broadcast.Overlay.rate o) 4.;
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o);
  Helpers.close ~tol:1e-6 "verified rate" (Broadcast.Overlay.verified_rate o) 4.;
  Alcotest.(check (array int)) "order = sigma 031425" [| 0; 3; 1; 4; 2; 5 |]
    o.Broadcast.Overlay.order

let test_overlay_forced_rate () =
  let o = Broadcast.Overlay.build ~rate:3. Instance.fig1 in
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o);
  Alcotest.(check bool) "verified >= 3" true
    (Broadcast.Overlay.verified_rate o >= 3. -. 1e-6);
  Alcotest.check_raises "infeasible rate"
    (Invalid_argument "Overlay.build: rate is not feasible") (fun () ->
      ignore (Broadcast.Overlay.build ~rate:5. Instance.fig1))

let test_edge_distance () =
  let module G = Flowgraph.Graph in
  let a = G.create 3 and b = G.create 3 in
  G.add_edge a ~src:0 ~dst:1 1.;
  G.add_edge a ~src:0 ~dst:2 1.;
  G.add_edge b ~src:0 ~dst:1 1.;
  G.add_edge b ~src:1 ~dst:2 1.;
  let distance a b =
    Broadcast.Overlay.edge_distance (Flowgraph.Csr.of_graph a)
      (Flowgraph.Csr.of_graph b)
  in
  (* 0->2 removed, 1->2 added. *)
  Alcotest.(check int) "two changes" 2 (distance a b);
  Alcotest.(check int) "self distance" 0 (distance a a);
  G.set_edge b ~src:0 ~dst:1 2.;
  Alcotest.(check int) "reweight counts" 3 (distance a b)

let overlay_with_headroom inst headroom =
  let t, _ = Broadcast.Greedy.optimal_acyclic inst in
  Broadcast.Overlay.build ~rate:(t *. headroom) inst

let test_leave_basic () =
  let o = overlay_with_headroom Instance.fig1 0.75 in
  (* Remove the last guarded node (C5): it feeds nobody, clean case. *)
  let o', stats = Broadcast.Repair.leave o ~node:5 in
  Alcotest.(check int) "one fewer node" 5
    (Instance.size (Broadcast.Overlay.instance o'));
  Alcotest.(check int) "m decremented" 2
    (Broadcast.Overlay.instance o').Instance.m;
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  Alcotest.(check bool) "rate kept" true
    (stats.Broadcast.Repair.rate_after >= Broadcast.Overlay.rate o -. 1e-6);
  Alcotest.(check bool) "patch cheaper than rebuild" true
    (stats.Broadcast.Repair.patch_edges
    <= Broadcast.Repair.rebuild_distance ~before:o o' stats)

let test_leave_open_node () =
  let o = overlay_with_headroom Instance.fig1 0.6 in
  let o', stats = Broadcast.Repair.leave o ~node:1 in
  Alcotest.(check int) "n decremented" 1
    (Broadcast.Overlay.instance o').Instance.n;
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  Alcotest.(check bool) "optimal recomputed" true
    (stats.Broadcast.Repair.optimal_after > 0.)

let test_leave_validation () =
  let o = build_fig1 () in
  (try
     ignore (Broadcast.Repair.leave o ~node:0);
     Alcotest.fail "source removal accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Broadcast.Repair.leave o ~node:6);
    Alcotest.fail "out of range accepted"
  with Invalid_argument _ -> ()

let test_join_open () =
  let o = overlay_with_headroom Instance.fig1 0.8 in
  let o', stats = Broadcast.Repair.join o ~bandwidth:4.5 ~cls:Instance.Open in
  let inst' = Broadcast.Overlay.instance o' in
  Alcotest.(check int) "n incremented" 3 inst'.Instance.n;
  Alcotest.(check bool) "still sorted" true (Instance.sorted inst');
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  (* 4.5 slots between the 5s and the... position 3 in open class. *)
  Helpers.close "inserted bandwidth" inst'.Instance.bandwidth.(3) 4.5;
  Alcotest.(check bool) "newcomer fed at full target" true
    (stats.Broadcast.Repair.rate_after >= Broadcast.Overlay.rate o -. 1e-6)

let test_join_guarded () =
  let o = overlay_with_headroom Instance.fig1 0.8 in
  let o', _stats = Broadcast.Repair.join o ~bandwidth:2. ~cls:Instance.Guarded in
  let inst' = Broadcast.Overlay.instance o' in
  Alcotest.(check int) "m incremented" 4 inst'.Instance.m;
  Alcotest.(check bool) "still sorted" true (Instance.sorted inst');
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  (* The newcomer (a guarded node) must be fed by open nodes only. *)
  let p = Broadcast.Overlay.positions o' in
  let newcomer =
    o'.Broadcast.Overlay.order.(Array.length o'.Broadcast.Overlay.order - 1)
  in
  ignore p;
  List.iter
    (fun (u, _) ->
      Alcotest.(check bool) "open feeder" true (Instance.is_open inst' u))
    (Flowgraph.Graph.in_edges (Broadcast.Overlay.graph o') newcomer)

let test_join_validation () =
  let o = build_fig1 () in
  try
    ignore (Broadcast.Repair.join o ~bandwidth:(-1.) ~cls:Instance.Open);
    Alcotest.fail "negative bandwidth accepted"
  with Invalid_argument _ -> ()

let test_rebuild () =
  let o = overlay_with_headroom Instance.fig1 0.8 in
  let o', stats = Broadcast.Repair.rebuild o in
  Alcotest.(check bool) "rebuild reaches optimum" true
    (stats.Broadcast.Repair.rate_after >= stats.Broadcast.Repair.optimal_after -. 1e-6);
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  Alcotest.(check int) "patch = rebuild cost" stats.Broadcast.Repair.patch_edges
    (Broadcast.Repair.rebuild_distance ~before:o o' stats)

(* Property: with headroom, any single departure is absorbed — the patched
   overlay stays well-formed and every remaining node keeps receiving at
   least SOME rate; with generous headroom the full target survives. *)
let prop_leave_well_formed =
  QCheck.Test.make ~name:"leave keeps overlays well-formed" ~count:40
    (QCheck.pair (Helpers.instance_arb ~max_open:10 ~max_guarded:6) QCheck.(int_range 0 1000))
    (fun (inst, pick) ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 1e-6 && Instance.size inst > 2);
      let o = Broadcast.Overlay.build ~rate:(t *. 0.7) inst in
      let node = 1 + (pick mod (Instance.size inst - 1)) in
      let o', stats = Broadcast.Repair.leave o ~node in
      Broadcast.Overlay.well_formed o'
      && stats.Broadcast.Repair.rate_after >= 0.
      && stats.Broadcast.Repair.patch_edges >= 0)

let prop_join_keeps_target =
  QCheck.Test.make ~name:"join feeds the newcomer without hurting others" ~count:40
    (QCheck.triple
       (Helpers.instance_arb ~max_open:10 ~max_guarded:6)
       (QCheck.float_range 0.5 100.)
       QCheck.bool)
    (fun (inst, bandwidth, open_cls) ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 1e-6);
      let o = Broadcast.Overlay.build ~rate:(t *. 0.7) inst in
      let cls = if open_cls then Instance.Open else Instance.Guarded in
      let o', stats = Broadcast.Repair.join o ~bandwidth ~cls in
      (* Existing nodes keep their full reception: only edges toward the
         newcomer are added, so the rate cannot drop below the target
         unless the newcomer itself is starved. *)
      Broadcast.Overlay.well_formed o'
      && stats.Broadcast.Repair.rate_after <= Broadcast.Overlay.rate o +. 1e-6)

(* Structural safety of a leave followed by a join, on the resulting
   Scheme artifact itself: the firewall holds, no sender exceeds its
   bandwidth, the patched scheme stays acyclic, and provenance records
   the repair. *)
let prop_leave_join_structure =
  QCheck.Test.make ~name:"leave then join keeps schemes structurally sound"
    ~count:40
    (QCheck.triple
       (Helpers.instance_arb ~max_open:10 ~max_guarded:6)
       QCheck.(int_range 0 1000)
       (QCheck.pair (QCheck.float_range 0.5 50.) QCheck.bool))
    (fun (inst, pick, (bandwidth, open_cls)) ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 1e-6 && Instance.size inst > 2);
      let o = Broadcast.Overlay.build ~rate:(t *. 0.7) inst in
      let node = 1 + (pick mod (Instance.size inst - 1)) in
      let o1, _ = Broadcast.Repair.leave o ~node in
      let cls = if open_cls then Instance.Open else Instance.Guarded in
      let o2, _ = Broadcast.Repair.join o1 ~bandwidth ~cls in
      let s = Broadcast.Overlay.scheme o2 in
      let inst' = Broadcast.Scheme.instance s in
      let g = Broadcast.Scheme.graph s in
      let b = inst'.Instance.bandwidth in
      Flowgraph.Graph.iter_edges
        (fun ~src ~dst _ ->
          if Instance.is_guarded inst' src && Instance.is_guarded inst' dst then
            Alcotest.failf "guarded edge %d->%d after repair" src dst)
        g;
      for v = 0 to Instance.size inst' - 1 do
        if not (Broadcast.Util.fle ~eps:1e-6 (Flowgraph.Graph.out_weight g v) b.(v))
        then
          Alcotest.failf "node %d sends %g > b = %g after repair" v
            (Flowgraph.Graph.out_weight g v)
            b.(v)
      done;
      (match (Broadcast.Scheme.provenance s).Broadcast.Scheme.algorithm with
      | Broadcast.Scheme.Repaired _ -> ()
      | a ->
        Alcotest.failf "provenance not Repaired: %s"
          (Broadcast.Scheme.algorithm_name a));
      Broadcast.Scheme.is_acyclic s)

(* A leave followed by re-joining an identical node restores feasibility
   of the original target. *)
let test_leave_join_roundtrip () =
  let o = overlay_with_headroom Instance.fig1 0.7 in
  let b5 = Instance.fig1.Instance.bandwidth.(5) in
  let o1, _ = Broadcast.Repair.leave o ~node:5 in
  let o2, stats = Broadcast.Repair.join o1 ~bandwidth:b5 ~cls:Instance.Guarded in
  Alcotest.(check int) "size restored" 6
    (Instance.size (Broadcast.Overlay.instance o2));
  Alcotest.(check bool) "instance equal to original" true
    (Instance.equal (Broadcast.Overlay.instance o2) Instance.fig1);
  Alcotest.(check bool) "target rate kept" true
    (stats.Broadcast.Repair.rate_after >= Broadcast.Overlay.rate o -. 1e-6)

let suites =
  [
    ( "overlay",
      [
        Alcotest.test_case "build" `Quick test_overlay_build;
        Alcotest.test_case "forced rate" `Quick test_overlay_forced_rate;
        Alcotest.test_case "edge distance" `Quick test_edge_distance;
      ] );
    ( "repair",
      [
        Alcotest.test_case "leave (leaf node)" `Quick test_leave_basic;
        Alcotest.test_case "leave (open node)" `Quick test_leave_open_node;
        Alcotest.test_case "leave validation" `Quick test_leave_validation;
        Alcotest.test_case "join (open)" `Quick test_join_open;
        Alcotest.test_case "join (guarded)" `Quick test_join_guarded;
        Alcotest.test_case "join validation" `Quick test_join_validation;
        Alcotest.test_case "rebuild" `Quick test_rebuild;
        Alcotest.test_case "leave/join roundtrip" `Quick test_leave_join_roundtrip;
        QCheck_alcotest.to_alcotest prop_leave_well_formed;
        QCheck_alcotest.to_alcotest prop_join_keeps_target;
        QCheck_alcotest.to_alcotest prop_leave_join_structure;
      ] );
  ]
