(* Tests for the experiment drivers: statistics helpers, table rendering,
   and the headline numbers each paper artifact must reproduce. *)

let null_formatter =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_stats_basics () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  Helpers.close "mean" (Experiments.Stats.mean xs) 3.;
  Helpers.close "std" (Experiments.Stats.std xs) (sqrt 2.);
  Helpers.close "median" (Experiments.Stats.quantile xs 0.5) 3.;
  Helpers.close "q0" (Experiments.Stats.quantile xs 0.) 1.;
  Helpers.close "q1" (Experiments.Stats.quantile xs 1.) 5.;
  Helpers.close "interpolated" (Experiments.Stats.quantile xs 0.125) 1.5;
  let f = Experiments.Stats.five_numbers xs in
  Helpers.close "q25" f.Experiments.Stats.q25 2.;
  Helpers.close "q75" f.Experiments.Stats.q75 4.;
  Helpers.close "below 3" (Experiments.Stats.fraction_below xs 3.) 0.4

let test_stats_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats: empty sample") (fun () ->
      ignore (Experiments.Stats.mean [||]));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.quantile: p out of range")
    (fun () -> ignore (Experiments.Stats.quantile [| 1. |] 1.5))

let test_tab_render () =
  let out =
    Experiments.Tab.render ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "z" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + rule + 2 rows (+ trailing)" 5 (List.length lines);
  Alcotest.(check bool) "contains rule" true
    (String.length (List.nth lines 1) > 0 && (List.nth lines 1).[0] = '-')

let test_fig1_data () =
  let d = Experiments.Fig1_example.compute () in
  Helpers.close "cyclic 4.4" d.Experiments.Fig1_example.cyclic 4.4;
  Helpers.close ~tol:1e-6 "acyclic 4" d.Experiments.Fig1_example.acyclic 4.;
  Alcotest.(check string) "word" "gogog"
    (Broadcast.Word.to_string d.Experiments.Fig1_example.word);
  Alcotest.(check (array int)) "order" [| 0; 3; 1; 4; 2; 5 |]
    d.Experiments.Fig1_example.order;
  Helpers.close ~tol:1e-6 "scheme throughput"
    d.Experiments.Fig1_example.scheme_throughput 4.;
  Alcotest.(check bool) "guarded excess <= 1" true
    (d.Experiments.Fig1_example.max_excess_guarded <= 1);
  Alcotest.(check bool) "open excess <= 3" true
    (d.Experiments.Fig1_example.max_excess_open <= 3)

let test_fig6_data () =
  let r = Experiments.Fig6_unbounded.compute ~m:6 in
  Helpers.close "cyclic 1" r.Experiments.Fig6_unbounded.cyclic 1.;
  Helpers.close ~tol:1e-6 "scheme achieves 1"
    r.Experiments.Fig6_unbounded.scheme_throughput 1.;
  Alcotest.(check int) "source degree m" 6 r.Experiments.Fig6_unbounded.source_degree;
  Alcotest.(check int) "bound 1" 1 r.Experiments.Fig6_unbounded.degree_bound;
  Alcotest.(check bool) "acyclic below cyclic" true
    (r.Experiments.Fig6_unbounded.acyclic < 1.)

let test_fig7_cell () =
  let c = Experiments.Fig7_surface.compute_cell ~n:100 ~m:42 in
  (* The Theorem 6.3 valley: ratio close to 0.925, clearly below 1. *)
  Alcotest.(check bool) "valley below 0.94" true
    (c.Experiments.Fig7_surface.ratio < 0.94);
  Alcotest.(check bool) "above 5/7" true
    (c.Experiments.Fig7_surface.ratio >= (5. /. 7.) -. 1e-9)

let test_fig7_surface_summary () =
  let s = Experiments.Fig7_surface.compute ~ns:[ 2; 4; 8 ] ~ms:[ 2; 4; 8 ] () in
  Alcotest.(check int) "grid size" 9 (List.length s.Experiments.Fig7_surface.cells);
  let g = s.Experiments.Fig7_surface.global_min in
  Alcotest.(check bool) "min in range" true
    (g.Experiments.Fig7_surface.ratio >= (5. /. 7.) -. 1e-9
    && g.Experiments.Fig7_surface.ratio <= 1. +. 1e-9)

let test_fig18_tight_point () =
  let r = Experiments.Fig18_worst.compute ~epsilon:(1. /. 14.) in
  Helpers.close ~tol:1e-9 "sigma1 = 5/7" r.Experiments.Fig18_worst.sigma1 (5. /. 7.);
  Helpers.close ~tol:1e-9 "sigma2 = 5/7" r.Experiments.Fig18_worst.sigma2 (5. /. 7.);
  Helpers.close ~tol:1e-9 "ratio = 5/7" r.Experiments.Fig18_worst.ratio (5. /. 7.);
  Helpers.close ~tol:1e-9 "measured = closed"
    r.Experiments.Fig18_worst.sigma1_measured r.Experiments.Fig18_worst.sigma1

let test_thm63_data () =
  let r = Experiments.Thm63_family.compute ~k:1 in
  Helpers.close "cyclic 1" r.Experiments.Thm63_family.cyclic 1.;
  Alcotest.(check bool) "acyclic below bound" true
    (r.Experiments.Thm63_family.acyclic <= r.Experiments.Thm63_family.bound +. 1e-6);
  Alcotest.(check bool) "bound near limit" true
    (Float.abs (r.Experiments.Thm63_family.bound -. r.Experiments.Thm63_family.limit)
    < 0.01)

let test_fig19_cell () =
  let c =
    Experiments.Fig19_average.compute_cell ~dist:Prng.Dist.unif100 ~name:"Unif100"
      ~n:15 ~p:0.7 ~replicates:25 ~seed:5L
  in
  Alcotest.(check bool) "mean ratio in (0.7, 1]" true
    (c.Experiments.Fig19_average.acyclic_mean > 0.7
    && c.Experiments.Fig19_average.acyclic_mean <= 1. +. 1e-9);
  Alcotest.(check bool) "omega below acyclic mean + eps" true
    (c.Experiments.Fig19_average.omega_mean
    <= c.Experiments.Fig19_average.acyclic_mean +. 1e-6);
  Alcotest.(check bool) "boxplot ordered" true
    (let f = c.Experiments.Fig19_average.acyclic in
     f.Experiments.Stats.min <= f.Experiments.Stats.q25
     && f.Experiments.Stats.q25 <= f.Experiments.Stats.median
     && f.Experiments.Stats.median <= f.Experiments.Stats.q75
     && f.Experiments.Stats.q75 <= f.Experiments.Stats.max)

let test_massoulie_rows () =
  let rows = Experiments.Massoulie_validation.compute ~chunks:120 () in
  Alcotest.(check int) "three overlays" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "efficiency positive" true
        (r.Experiments.Massoulie_validation.efficiency > 0.3))
    rows

let test_lastmile_rows () =
  let r = Experiments.Lastmile_validation.compute ~nodes:20 ~noise:0. ~seed:3L () in
  Helpers.close ~tol:1e-6 "noise-free rmse 0" r.Experiments.Lastmile_validation.rmse 0.;
  Helpers.close ~tol:1e-6 "throughputs agree"
    r.Experiments.Lastmile_validation.throughput_fitted
    r.Experiments.Lastmile_validation.throughput_true

let test_registry () =
  Alcotest.(check int) "sixteen experiments" 16 (List.length Experiments.Registry.all);
  List.iter
    (fun e ->
      match Experiments.Registry.find e.Experiments.Registry.name with
      | Some found ->
        Alcotest.(check string) "found by name" e.Experiments.Registry.name
          found.Experiments.Registry.name
      | None -> Alcotest.failf "%s not found" e.Experiments.Registry.name)
    Experiments.Registry.all;
  Alcotest.(check bool) "unknown name" true (Experiments.Registry.find "nope" = None)

let test_cheap_experiments_run () =
  (* Smoke-run the cheap drivers end to end (output discarded). *)
  List.iter
    (fun name ->
      match Experiments.Registry.find name with
      | Some e -> e.Experiments.Registry.run null_formatter
      | None -> Alcotest.failf "missing experiment %s" name)
    [ "fig1"; "fig6"; "fig8"; "cyclic"; "fig18"; "thm63"; "churn"; "depth" ]

let test_cyclic_walkthrough_rows () =
  let rows = Experiments.Cyclic_walkthrough.examples () in
  List.iter
    (fun r ->
      Helpers.close ~tol:1e-6 "achieves 5" r.Experiments.Cyclic_walkthrough.throughput 5.;
      Alcotest.(check bool) "needed a cycle" false r.Experiments.Cyclic_walkthrough.acyclic;
      Alcotest.(check bool) "degree bound" true
        r.Experiments.Cyclic_walkthrough.degree_bound_ok)
    rows

let suites =
  [
    ( "stats+tab",
      [
        Alcotest.test_case "stats basics" `Quick test_stats_basics;
        Alcotest.test_case "stats errors" `Quick test_stats_errors;
        Alcotest.test_case "table rendering" `Quick test_tab_render;
      ] );
    ( "experiments",
      [
        Alcotest.test_case "E1 fig1 numbers" `Quick test_fig1_data;
        Alcotest.test_case "E4 fig6 numbers" `Quick test_fig6_data;
        Alcotest.test_case "E5 fig7 valley cell" `Quick test_fig7_cell;
        Alcotest.test_case "E5 fig7 surface" `Quick test_fig7_surface_summary;
        Alcotest.test_case "E8 fig18 tight point" `Quick test_fig18_tight_point;
        Alcotest.test_case "E9 thm63 numbers" `Quick test_thm63_data;
        Alcotest.test_case "E10 fig19 cell" `Quick test_fig19_cell;
        Alcotest.test_case "E11 massoulie rows" `Quick test_massoulie_rows;
        Alcotest.test_case "E12 lastmile rows" `Quick test_lastmile_rows;
        Alcotest.test_case "E7 cyclic walkthrough" `Quick test_cyclic_walkthrough_rows;
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "cheap drivers run" `Quick test_cheap_experiments_run;
      ] );
  ]

(* -- E13/E14 extension experiments -- *)

let test_churn_summary () =
  let s = Experiments.Churn_repair.run ~nodes:20 ~events:10 ~headroom:0.75 () in
  Alcotest.(check int) "events" 10 s.Experiments.Churn_repair.events;
  Alcotest.(check bool) "patch cheaper on average" true
    (s.Experiments.Churn_repair.patch_edges_mean
    <= s.Experiments.Churn_repair.rebuild_edges_mean);
  Alcotest.(check bool) "kept in [0, 1]" true
    (s.Experiments.Churn_repair.kept_mean >= 0.
    && s.Experiments.Churn_repair.kept_mean <= 1. +. 1e-9)

(* E13's table is pinned byte for byte: its "rebuild edges" column comes
   from [Repair.rebuild_distance], which must reproduce the count the
   repair used to compute on every event. *)
let test_churn_golden () =
  let e = Option.get (Experiments.Registry.find "churn") in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  e.Experiments.Registry.run fmt;
  Format.pp_print_flush fmt ();
  let ic = open_in_bin (Filename.concat (Filename.dirname Sys.executable_name) "golden/exp_churn.txt") in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "bmp exp churn" golden (Buffer.contents buf)

let test_churn_validation () =
  try
    ignore (Experiments.Churn_repair.run ~headroom:1.5 ());
    Alcotest.fail "headroom > 1 accepted"
  with Invalid_argument _ -> ()

let test_depth_ablation_rows () =
  let rows = Experiments.Depth_ablation.compute ~nodes:30 ~fractions:[ 1.0; 0.5 ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      let p = r.Experiments.Depth_ablation.point in
      Alcotest.(check bool) "depths positive" true
        (p.Broadcast.Depth.fifo_depth >= 1 && p.Broadcast.Depth.min_depth >= 1))
    rows

let extension_suites =
  [
    ( "extensions",
      [
        Alcotest.test_case "E13 churn summary" `Quick test_churn_summary;
        Alcotest.test_case "E13 churn validation" `Quick test_churn_validation;
        Alcotest.test_case "E13 golden table" `Quick test_churn_golden;
        Alcotest.test_case "E14 depth ablation" `Quick test_depth_ablation_rows;
      ] );
  ]

let suites = suites @ extension_suites

let test_selfcheck_all_pass () =
  let outcomes = Experiments.Selfcheck.run_all () in
  Alcotest.(check int) "nine checks" 9 (List.length outcomes);
  List.iter
    (fun o ->
      if not o.Experiments.Selfcheck.passed then
        Alcotest.failf "selfcheck %s failed: %s" o.Experiments.Selfcheck.name
          o.Experiments.Selfcheck.detail)
    outcomes

let suites =
  match List.rev suites with
  | (name, cases) :: rest ->
    List.rev
      (( name,
         cases @ [ Alcotest.test_case "selfcheck battery" `Quick test_selfcheck_all_pass ] )
      :: rest)
  | [] -> suites
