(* Tests for the closed-form throughput bounds and float conventions. *)

open Platform

let close ?(tol = 1e-9) what a b =
  if Float.abs (a -. b) > tol *. Float.max 1. (Float.abs b) then
    Alcotest.failf "%s: %g vs %g" what a b

let test_fig1_cyclic () =
  (* Lemma 5.1 on Figure 1: min (6, 16/3, 22/5) = 4.4. *)
  close "fig1" (Broadcast.Bounds.cyclic_upper Instance.fig1) 4.4

let test_cyclic_cases () =
  (* Source-limited. *)
  let t = Instance.create ~bandwidth:[| 1.; 50.; 50. |] ~n:2 ~m:0 () in
  close "source limited" (Broadcast.Bounds.cyclic_upper t) 1.;
  (* Guarded-demand limited: m = 2 guarded, b0 + O = 3 -> 1.5. *)
  let t = Instance.create ~bandwidth:[| 2.; 1.; 10.; 10. |] ~n:1 ~m:2 () in
  close "guarded limited" (Broadcast.Bounds.cyclic_upper t) 1.5;
  (* Total-bandwidth limited. *)
  let t = Instance.create ~bandwidth:[| 4.; 1.; 1.; 1. |] ~n:3 ~m:0 () in
  close "total limited" (Broadcast.Bounds.cyclic_upper t) (7. /. 3.)

let test_acyclic_open_formula () =
  (* T*ac = min (b0, S_(n-1) / n). *)
  let t = Instance.create ~bandwidth:[| 6.; 5.; 4.; 3. |] ~n:3 ~m:0 () in
  close "S2/3" (Broadcast.Bounds.acyclic_open_optimal t) 5.;
  let t = Instance.create ~bandwidth:[| 2.; 5.; 4.; 3. |] ~n:3 ~m:0 () in
  close "b0 binds" (Broadcast.Bounds.acyclic_open_optimal t) 2.;
  (* Single node: T = b0 (the node receives directly). *)
  let t = Instance.create ~bandwidth:[| 2.; 7. |] ~n:1 ~m:0 () in
  close "n=1" (Broadcast.Bounds.acyclic_open_optimal t) 2.

let test_acyclic_vs_cyclic_open () =
  (* Theorem 6.1: on open-only instances the gap is at most bn / (b0+O). *)
  let t = Instance.create ~bandwidth:[| 6.; 5.; 4.; 3. |] ~n:3 ~m:0 () in
  let ac = Broadcast.Bounds.acyclic_open_optimal t in
  let cy = Broadcast.Bounds.cyclic_open_optimal t in
  Alcotest.(check bool) "ac <= cy" true (ac <= cy +. 1e-12);
  Alcotest.(check bool) "ratio >= 1 - 1/n" true (ac /. cy >= 1. -. (1. /. 3.) -. 1e-12)

let test_guard_clauses () =
  (try
     ignore (Broadcast.Bounds.acyclic_open_optimal Instance.fig1);
     Alcotest.fail "guarded instance accepted"
   with Invalid_argument _ -> ());
  let unsorted = Instance.create ~bandwidth:[| 6.; 3.; 5. |] ~n:2 ~m:0 () in
  try
    ignore (Broadcast.Bounds.acyclic_open_optimal unsorted);
    Alcotest.fail "unsorted instance accepted"
  with Invalid_argument _ -> ()

let test_degree_lower_bound () =
  let t = Instance.fig1 in
  Alcotest.(check int) "source: ceil(6/4.4) = 2" 2
    (Broadcast.Bounds.degree_lower_bound t ~t:4.4 0);
  Alcotest.(check int) "C3: ceil(4/4.4) = 1" 1
    (Broadcast.Bounds.degree_lower_bound t ~t:4.4 3);
  Alcotest.(check int) "zero bandwidth" 0
    (Broadcast.Bounds.degree_lower_bound
       (Instance.create ~bandwidth:[| 1.; 0. |] ~n:1 ~m:0 ())
       ~t:1. 1)

let test_ceil_ratio_tolerance () =
  Alcotest.(check int) "exact multiple" 2 (Broadcast.Util.ceil_ratio 8. 4.);
  Alcotest.(check int) "epsilon above multiple stays" 2
    (Broadcast.Util.ceil_ratio (8. +. 1e-12) 4.);
  Alcotest.(check int) "clearly above rounds up" 3
    (Broadcast.Util.ceil_ratio 8.1 4.);
  Alcotest.(check int) "zero" 0 (Broadcast.Util.ceil_ratio 0. 4.)

let test_dichotomic_max () =
  let sup = Broadcast.Util.dichotomic_max ~lo:0. ~hi:10. (fun x -> x <= Float.pi) in
  if Float.abs (sup -. Float.pi) > 1e-9 then Alcotest.failf "sup = %g" sup;
  close "hi feasible" (Broadcast.Util.dichotomic_max ~lo:0. ~hi:1. (fun _ -> true)) 1.;
  close "lo infeasible" (Broadcast.Util.dichotomic_max ~lo:0.5 ~hi:1. (fun _ -> false)) 0.5

let test_dichotomic_search () =
  let open Broadcast.Util in
  (* Feasible at hi: no bisection needed. *)
  let s = dichotomic_search ~lo:0. ~hi:1. (fun _ -> true) in
  Alcotest.(check bool) "hi feasible" true s.feasible;
  Alcotest.(check bool) "hi converged" true s.converged;
  Alcotest.(check int) "hi probes = 1" 1 s.probes;
  close "hi value" s.value 1.;
  (* Infeasible everywhere: reports lo with feasible = false instead of
     silently returning it as if it were a supremum. *)
  let s = dichotomic_search ~lo:0.5 ~hi:1. (fun _ -> false) in
  Alcotest.(check bool) "lo infeasible" false s.feasible;
  Alcotest.(check int) "lo probes = 2" 2 s.probes;
  close "lo value" s.value 0.5;
  (* Threshold search terminates early on interval width, well under the
     100-probe budget, and still nails the supremum. *)
  let s = dichotomic_search ~lo:0. ~hi:10. (fun x -> x <= Float.pi) in
  Alcotest.(check bool) "pi feasible" true s.feasible;
  Alcotest.(check bool) "pi converged" true s.converged;
  Alcotest.(check bool) "early termination" true (s.probes < 70);
  close "pi value" s.value Float.pi;
  (* An exhausted iteration budget reports converged = false. *)
  let s =
    dichotomic_search ~iterations:5 ~epsilon:0. ~lo:0. ~hi:10.
      (fun x -> x <= Float.pi)
  in
  Alcotest.(check bool) "budget exhausted" false s.converged;
  (* Degenerate and invalid intervals. *)
  let s = dichotomic_search ~lo:2. ~hi:2. (fun x -> x <= 2.) in
  close "point interval" s.value 2.;
  try
    ignore (dichotomic_search ~lo:1. ~hi:0. (fun _ -> true));
    Alcotest.fail "hi < lo accepted"
  with Invalid_argument _ -> ()

let test_dichotomic_error_names_itself () =
  let empty () = Broadcast.Util.dichotomic_search ~lo:1. ~hi:0. (fun _ -> true) in
  Alcotest.check_raises "dichotomic_search"
    (Invalid_argument "Util.dichotomic_search: empty interval") (fun () ->
      ignore (empty ()))

let test_float_comparisons () =
  let open Broadcast.Util in
  Alcotest.(check bool) "feq tolerant" true (feq 1. (1. +. 1e-12));
  Alcotest.(check bool) "feq distinguishes" false (feq 1. 1.001);
  Alcotest.(check bool) "fle" true (fle 1. (1. -. 1e-12));
  Alcotest.(check bool) "flt strict" false (flt 1. (1. +. 1e-12));
  Alcotest.(check bool) "flt real" true (flt 1. 1.1);
  Alcotest.(check bool) "scale relative" true (feq 1e12 (1e12 +. 1.))

let suites =
  [
    ( "bounds",
      [
        Alcotest.test_case "fig1 cyclic = 4.4" `Quick test_fig1_cyclic;
        Alcotest.test_case "cyclic binding cases" `Quick test_cyclic_cases;
        Alcotest.test_case "acyclic open formula" `Quick test_acyclic_open_formula;
        Alcotest.test_case "Theorem 6.1 gap" `Quick test_acyclic_vs_cyclic_open;
        Alcotest.test_case "guard clauses" `Quick test_guard_clauses;
        Alcotest.test_case "degree lower bound" `Quick test_degree_lower_bound;
      ] );
    ( "util",
      [
        Alcotest.test_case "ceil_ratio tolerance" `Quick test_ceil_ratio_tolerance;
        Alcotest.test_case "dichotomic search" `Quick test_dichotomic_max;
        Alcotest.test_case "dichotomic search diagnostics" `Quick
          test_dichotomic_search;
        Alcotest.test_case "dichotomic search error message" `Quick
          test_dichotomic_error_names_itself;
        Alcotest.test_case "tolerant comparisons" `Quick test_float_comparisons;
      ] );
  ]
