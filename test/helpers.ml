(* Shared QCheck generators and checking utilities for the broadcast test
   suites. *)

open Platform

let close ?(tol = 1e-9) what a b =
  if Float.abs (a -. b) > tol *. Float.max 1. (Float.abs b) then
    Alcotest.failf "%s: %g vs %g" what a b

(* A positive bandwidth with several orders of magnitude of spread, so
   generated instances cover both homogeneous and pathological shapes. *)
let bandwidth_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun x -> 1. +. (99. *. x)) (float_bound_inclusive 1.);
        map (fun x -> 0.1 +. x) (float_bound_inclusive 1.);
        map (fun x -> 100. +. (900. *. x)) (float_bound_inclusive 1.);
        return 1.;
      ])

(* Sorted instance with [n] open nodes, [m] guarded nodes, and a source at
   least as strong as needed to avoid the degenerate b0 = 0 corner. *)
let instance_gen ~max_open ~max_guarded =
  QCheck.Gen.(
    int_range 1 max_open >>= fun n ->
    int_range 0 max_guarded >>= fun m ->
    array_repeat (1 + n + m) bandwidth_gen >>= fun bandwidth ->
    let inst = Instance.create ~bandwidth ~n ~m () in
    return (fst (Instance.normalize inst)))

(* Shrink an instance by dropping one non-source node at a time (keeping
   at least one open node, the generator's invariant), so a failing
   property minimizes to the fewest nodes that still break it. *)
let instance_shrink inst yield =
  let b = inst.Instance.bandwidth in
  let n = inst.Instance.n and m = inst.Instance.m in
  let size = 1 + n + m in
  for v = size - 1 downto 1 do
    if (Instance.is_open inst v && n > 1) || Instance.is_guarded inst v then begin
      let b' = Array.init (size - 1) (fun i -> if i < v then b.(i) else b.(i + 1)) in
      let n' = if Instance.is_open inst v then n - 1 else n in
      let m' = if Instance.is_guarded inst v then m - 1 else m in
      yield (fst (Instance.normalize (Instance.create ~bandwidth:b' ~n:n' ~m:m' ())))
    end
  done

let instance_arb ~max_open ~max_guarded =
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a / %s" Instance.pp t (Instance.to_string t))
    ~shrink:instance_shrink
    (instance_gen ~max_open ~max_guarded)

let open_instance_arb ~max_open = instance_arb ~max_open ~max_guarded:0

(* The corners random draws rarely hit, each drawn with equal weight: a
   zero-bandwidth source (optimal rate 0), a single receiver of either
   class, many more guarded than open nodes (m >> n, down to no open node
   at all), and all-equal bandwidths. *)
let degenerate_instance_gen =
  QCheck.Gen.(
    let sorted bandwidth ~n ~m =
      fst (Instance.normalize (Instance.create ~bandwidth ~n ~m ()))
    in
    oneof
      [
        ( int_range 1 6 >>= fun n ->
          int_range 0 6 >>= fun m ->
          array_repeat (n + m) bandwidth_gen >>= fun rest ->
          return (sorted (Array.append [| 0. |] rest) ~n ~m) );
        ( bool >>= fun guarded ->
          array_repeat 2 bandwidth_gen >>= fun bandwidth ->
          let n, m = if guarded then (0, 1) else (1, 0) in
          return (sorted bandwidth ~n ~m) );
        ( int_range 0 2 >>= fun n ->
          int_range 20 60 >>= fun m ->
          array_repeat (1 + n + m) bandwidth_gen >>= fun bandwidth ->
          return (sorted bandwidth ~n ~m) );
        ( int_range 0 8 >>= fun n ->
          int_range (if n = 0 then 1 else 0) 8 >>= fun m ->
          bandwidth_gen >>= fun b ->
          return (sorted (Array.make (1 + n + m) b) ~n ~m) );
      ])

(* Shrinks like [instance_arb] but never below one receiver. *)
let degenerate_instance =
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a / %s" Instance.pp t (Instance.to_string t))
    ~shrink:(fun inst yield ->
      if Instance.size inst > 2 then instance_shrink inst yield)
    degenerate_instance_gen

(* {2 Churn-trace generation with real shrinking}

   [Churn.Trace.gen] draws whole traces from a seed, so shrinking the
   seed would jump to an unrelated trace. The arbitrary below shrinks
   structurally instead: drop half the events, drop single events, then
   shrink events in place (smaller picks, ungarded/cheaper joins,
   factors halved towards the no-op 1, batch/burst members dropped) —
   counterexamples minimize to the few events that actually matter. *)

let shrink_event e yield =
  let open Churn.Trace in
  match e with
  | Leave { pick } ->
    QCheck.Shrink.int pick (fun pick -> yield (Leave { pick }))
  | Join { bandwidth; guarded } ->
    if guarded then yield (Join { bandwidth; guarded = false });
    if bandwidth > 1. then
      yield (Join { bandwidth = Float.max 1. (bandwidth /. 2.); guarded })
  | Degrade { pick; factor } ->
    QCheck.Shrink.int pick (fun pick -> yield (Degrade { pick; factor }));
    let f = (factor +. 1.) /. 2. in
    if f > factor +. 1e-9 && f <= 1. then yield (Degrade { pick; factor = f })
  | Restore { pick; factor } ->
    QCheck.Shrink.int pick (fun pick -> yield (Restore { pick; factor }));
    let f = (factor +. 1.) /. 2. in
    if f > factor +. 1e-9 && f <= 1. then yield (Restore { pick; factor = f })
  | Fail_batch { picks } ->
    List.iteri
      (fun i _ ->
        let picks = List.filteri (fun j _ -> j <> i) picks in
        if picks <> [] then yield (Fail_batch { picks }))
      picks;
    QCheck.Shrink.list_elems QCheck.Shrink.int picks (fun picks ->
        yield (Fail_batch { picks }))
  | Flash_crowd { arrivals } ->
    List.iteri
      (fun i _ ->
        let arrivals = List.filteri (fun j _ -> j <> i) arrivals in
        if arrivals <> [] then yield (Flash_crowd { arrivals }))
      arrivals

let shrink_trace t yield =
  let evs = t.Churn.Trace.events in
  let n = Array.length evs in
  if n > 1 then begin
    (* big steps first: half the trace from either end *)
    yield { Churn.Trace.events = Array.sub evs 0 (n / 2) };
    yield { Churn.Trace.events = Array.sub evs (n / 2) (n - (n / 2)) }
  end;
  for i = 0 to n - 1 do
    yield
      {
        Churn.Trace.events =
          Array.init (n - 1) (fun j -> if j < i then evs.(j) else evs.(j + 1));
      }
  done;
  Array.iteri
    (fun i e ->
      shrink_event e (fun e' ->
          let evs' = Array.copy evs in
          evs'.(i) <- e';
          yield { Churn.Trace.events = evs' }))
    evs

let trace_gen ?mix ~events () =
  QCheck.Gen.(
    int_bound 1_000_000 >>= fun seed ->
    return
      (Churn.Trace.gen ?mix ~events
         (Prng.Splitmix.create (Int64.of_int (0x7ace + seed)))))

let trace_arb ?mix ~events () =
  QCheck.make ~print:Churn.Trace.to_json ~shrink:shrink_trace
    (trace_gen ?mix ~events ())

(* Check that a scheme delivers [rate] to every node, structurally. *)
let check_scheme ?(what = "scheme") inst scheme ~rate =
  let report = Broadcast.Verify.check inst scheme in
  if not report.Broadcast.Verify.bandwidth_ok then
    Alcotest.failf "%s: bandwidth constraint violated" what;
  if not report.Broadcast.Verify.firewall_ok then
    Alcotest.failf "%s: guarded-guarded edge" what;
  if not (Broadcast.Util.fge ~eps:1e-6 report.Broadcast.Verify.throughput rate) then
    Alcotest.failf "%s: throughput %g below target %g" what
      report.Broadcast.Verify.throughput rate;
  report

(* Same checks through a Scheme artifact's memoized report. *)
let check_artifact ?(what = "scheme") s ~rate =
  let report = Broadcast.Scheme.report s in
  if not report.Broadcast.Verify.bandwidth_ok then
    Alcotest.failf "%s: bandwidth constraint violated" what;
  if not report.Broadcast.Verify.firewall_ok then
    Alcotest.failf "%s: guarded-guarded edge" what;
  if not (Broadcast.Util.fge ~eps:1e-6 report.Broadcast.Verify.throughput rate) then
    Alcotest.failf "%s: throughput %g below target %g" what
      report.Broadcast.Verify.throughput rate;
  report
