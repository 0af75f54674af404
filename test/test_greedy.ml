(* Tests for Algorithm 2 (GreedyTest) and the dichotomic optimal-acyclic
   search of Theorem 4.1. *)

open Platform
module W = Broadcast.Word

let test_table1_trace () =
  (* Letters and accounting must match the paper's Table I exactly. *)
  let word, trace = Broadcast.Greedy.test_trace Instance.fig1 ~rate:4. in
  (match word with
  | Some w -> Alcotest.(check string) "word" "gogog" (W.to_string w)
  | None -> Alcotest.fail "T = 4 infeasible");
  let expected =
    [
      (Instance.Guarded, 2., 4., 0.);
      (Instance.Open, 7., 0., 0.);
      (Instance.Guarded, 3., 1., 0.);
      (Instance.Open, 5., 0., 3.);
      (Instance.Guarded, 1., 1., 3.);
    ]
  in
  Alcotest.(check int) "steps" 5 (List.length trace);
  List.iter2
    (fun d (letter, o, g, w) ->
      Alcotest.(check bool) "letter" true (d.Broadcast.Greedy.letter = letter);
      let s = d.Broadcast.Greedy.state in
      Helpers.close "O" s.W.avail_open o;
      Helpers.close "G" s.W.avail_guarded g;
      Helpers.close "W" s.W.waste w)
    trace expected

let test_failure_trace () =
  (* Far above the optimum the algorithm must fail (and report a partial
     trace). *)
  let word, _trace = Broadcast.Greedy.test_trace Instance.fig1 ~rate:5. in
  Alcotest.(check bool) "T = 5 infeasible" true (word = None)

let test_optimal_fig1 () =
  let t, w = Broadcast.Greedy.optimal_acyclic Instance.fig1 in
  Helpers.close ~tol:1e-9 "T*ac = 4" t 4.;
  Alcotest.(check bool) "witness word valid" true
    (W.feasible Instance.fig1 ~rate:(t *. (1. -. 1e-9)) w)

let test_boundary () =
  let inst = Instance.fig1 in
  Alcotest.(check bool) "just below optimum" true
    (Broadcast.Greedy.test inst ~rate:3.999999 <> None);
  Alcotest.(check bool) "just above optimum" true
    (Broadcast.Greedy.test inst ~rate:4.001 = None)

let test_open_only_matches_closed_form () =
  let inst = Instance.create ~bandwidth:[| 6.; 5.; 4.; 3. |] ~n:3 ~m:0 () in
  let t, w = Broadcast.Greedy.optimal_acyclic inst in
  Helpers.close ~tol:1e-9 "matches Section III-B formula" t
    (Broadcast.Bounds.acyclic_open_optimal inst);
  Alcotest.(check string) "word is all opens" "ooo" (W.to_string w)

let test_guards () =
  let unsorted = Instance.create ~bandwidth:[| 6.; 3.; 5. |] ~n:2 ~m:0 () in
  (try
     ignore (Broadcast.Greedy.optimal_acyclic unsorted);
     Alcotest.fail "unsorted accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Broadcast.Greedy.test Instance.fig1 ~rate:0.);
    Alcotest.fail "zero rate accepted"
  with Invalid_argument _ -> ()

(* The central correctness property (Lemma 4.5): the greedy feasibility
   test finds the same optimum as exhaustive enumeration of all words. *)
let prop_greedy_is_exact =
  QCheck.Test.make ~name:"greedy optimum = exhaustive optimum" ~count:80
    (Helpers.instance_arb ~max_open:5 ~max_guarded:5) (fun inst ->
      let t_greedy, _ = Broadcast.Greedy.optimal_acyclic inst in
      let t_exact, _ = Broadcast.Exact.optimal_acyclic_words inst in
      Helpers.close ~tol:1e-6 "greedy vs exact" t_greedy t_exact;
      true)

(* The greedy witness word must itself achieve the claimed throughput. *)
let prop_witness_achieves =
  QCheck.Test.make ~name:"witness word achieves T*ac" ~count:80
    (Helpers.instance_arb ~max_open:10 ~max_guarded:10) (fun inst ->
      let t, w = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 1e-6);
      let tw = W.optimal_throughput_closed_form inst w in
      Helpers.close ~tol:1e-6 "witness throughput" tw t;
      true)

(* T*ac never exceeds the cyclic closed form (Lemma 5.1). *)
let prop_below_cyclic =
  QCheck.Test.make ~name:"T*ac <= T* closed form" ~count:100
    (Helpers.instance_arb ~max_open:12 ~max_guarded:12) (fun inst ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      t <= Broadcast.Bounds.cyclic_upper inst +. 1e-9)

(* {2 The single-loop GreedyTest against the recursive oracle}

   [Oracle.Greedy] steps [Word.state] records through [choose] and
   [Word.step]; the production loop must give the same answer bit for
   bit — same word, same Table I accounting, same optimum — at every
   rate, in particular within 1e-9 of T* where the search probes. *)

let bits = Int64.bits_of_float

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let state_bits (s : W.state) =
  (bits s.W.avail_open, bits s.W.avail_guarded, bits s.W.waste, s.W.fed_open,
   s.W.fed_guarded)

let agree_at inst ~rate =
  let ours = outcome (fun () -> Broadcast.Greedy.test_trace inst ~rate) in
  let theirs = outcome (fun () -> Oracle.Greedy.test_trace inst ~rate) in
  let same =
    match (ours, theirs) with
    | Ok (w, trace), Ok (w', trace') ->
      w = w'
      && List.map
           (fun d -> (d.Broadcast.Greedy.letter, state_bits d.Broadcast.Greedy.state))
           trace
         = List.map
             (fun d -> (d.Oracle.Greedy.letter, state_bits d.Oracle.Greedy.state))
             trace'
      && Broadcast.Greedy.test inst ~rate = w
      && Broadcast.Greedy.feasible inst ~rate = (w <> None)
    | Error m, Error m' -> m = m'
    | _ -> false
  in
  if not same then Alcotest.failf "GreedyTest differs from the oracle at rate %h" rate

let agrees_with_oracle inst =
  let ours = outcome (fun () -> Broadcast.Greedy.optimal_acyclic inst) in
  (match (ours, outcome (fun () -> Oracle.Greedy.optimal_acyclic inst)) with
  | Ok (t, w), Ok (t', w') ->
    if bits t <> bits t' || w <> w' then
      Alcotest.failf "optimal_acyclic %h vs oracle %h" t t';
    if bits (Broadcast.Greedy.optimal_rate inst) <> bits t then
      Alcotest.failf "optimal_rate differs from optimal_acyclic's %h" t;
    List.iter
      (fun rate -> if rate > 0. then agree_at inst ~rate)
      [
        t *. (1. -. 1e-9); t *. (1. -. 1e-10); Float.pred t; t; Float.succ t;
        t *. (1. +. 1e-10); t *. (1. +. 1e-9); t -. 1e-9; t +. 1e-9; 0.5 *. t;
        2. *. t;
      ]
  | Error m, Error m' -> Alcotest.(check string) "same rejection" m' m
  | _ -> Alcotest.fail "optimal_acyclic and the oracle disagree on raising");
  (* The optimum Repair reports is the rate Overlay.build targets. *)
  if bits (Broadcast.Overlay.optimal_rate inst) <> bits (Oracle.optimal_after inst)
  then Alcotest.fail "Overlay.optimal_rate differs from Overlay.build's rate";
  true

let prop_oracle_random =
  QCheck.Test.make ~name:"GreedyTest = recursive oracle, bit for bit" ~count:200
    (Helpers.instance_arb ~max_open:12 ~max_guarded:12)
    agrees_with_oracle

let prop_oracle_degenerate =
  QCheck.Test.make ~name:"GreedyTest = oracle on degenerate instances" ~count:200
    Helpers.degenerate_instance agrees_with_oracle

let test_degenerate_corners () =
  let zero_source = Instance.create ~bandwidth:[| 0.; 5.; 3. |] ~n:1 ~m:1 () in
  ignore (agrees_with_oracle zero_source);
  Alcotest.(check (float 0.)) "zero source: rate 0" 0.
    (Broadcast.Greedy.optimal_rate zero_source);
  Alcotest.(check string) "zero source: complete word" "og"
    (W.to_string (snd (Broadcast.Greedy.optimal_acyclic zero_source)));
  Alcotest.(check (float 0.)) "zero source: no overlay, optimum 0" 0.
    (Broadcast.Overlay.optimal_rate zero_source);
  let no_receiver = Instance.create ~bandwidth:[| 5. |] ~n:0 ~m:0 () in
  Alcotest.check_raises "no receiver"
    (Invalid_argument "Greedy.optimal_rate: no receiver") (fun () ->
      ignore (Broadcast.Greedy.optimal_rate no_receiver));
  Alcotest.(check (float 0.)) "no receiver: optimum 0" 0.
    (Broadcast.Overlay.optimal_rate no_receiver)

(* A probe allocates a constant number of words whatever the instance
   size: the loop keeps O, G and W unboxed and builds no word. *)
let probe_words inst ~rate =
  let w0 = Gc.minor_words () in
  let ok = Broadcast.Greedy.feasible inst ~rate in
  let w1 = Gc.minor_words () in
  (ok, w1 -. w0)

let test_probe_allocation () =
  let words total =
    let inst =
      Generator.generate
        { Generator.total; p_open = 0.7; dist = Prng.Dist.unif100 }
        (Prng.Splitmix.create 9L)
    in
    let t = Broadcast.Greedy.optimal_rate inst in
    let ok, below = probe_words inst ~rate:(t *. 0.999) in
    Alcotest.(check bool) "below the optimum is feasible" true ok;
    let ok, above = probe_words inst ~rate:(t *. 1.001) in
    Alcotest.(check bool) "above the optimum is not" false ok;
    Float.max below above
  in
  let small = words 100 and large = words 10_000 in
  if large > small || large > 16. then
    Alcotest.failf "a probe allocates %.0f words at n = 10^4 (%.0f at n = 100)"
      large small

let suites =
  [
    ( "greedy",
      [
        Alcotest.test_case "Table I trace" `Quick test_table1_trace;
        Alcotest.test_case "failure above optimum" `Quick test_failure_trace;
        Alcotest.test_case "fig1 optimum" `Quick test_optimal_fig1;
        Alcotest.test_case "feasibility boundary" `Quick test_boundary;
        Alcotest.test_case "open-only closed form" `Quick test_open_only_matches_closed_form;
        Alcotest.test_case "input guards" `Quick test_guards;
        QCheck_alcotest.to_alcotest prop_greedy_is_exact;
        QCheck_alcotest.to_alcotest prop_witness_achieves;
        QCheck_alcotest.to_alcotest prop_below_cyclic;
        QCheck_alcotest.to_alcotest prop_oracle_random;
        QCheck_alcotest.to_alcotest prop_oracle_degenerate;
        Alcotest.test_case "degenerate corners" `Quick test_degenerate_corners;
        Alcotest.test_case "probe allocation is size-free" `Quick
          test_probe_allocation;
      ] );
  ]
