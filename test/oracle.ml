(* Superseded implementations kept as test oracles: the production code
   must agree with them bit for bit.

   - [Greedy]: the recursive GreedyTest that steps {!Broadcast.Word.state}
     records through [choose] and [Word.step], and the dichotomic search
     over it, as they stood before the single-loop rewrite of
     [Broadcast.Greedy].
   - [edge_distance]: the two-pass hashtable diff of
     {!Flowgraph.Graph.t}s that [Overlay.edge_distance] replaced by a
     merge of CSR rows.
   - [rebuild_edges] / [patch_edges]: the churn counts [Repair] used to
     compute on every event by copying and diffing whole graphs. *)

open Platform
module G = Flowgraph.Graph
module Word = Broadcast.Word
module Util = Broadcast.Util

module Greedy = struct
  type decision = { letter : Instance.node_class; state : Word.state }

  (* Lines 4-15 of Algorithm 2: which class should the next node have?
     [None] means line 3 failed (total supply below T). *)
  let choose inst ~rate (st : Word.state) =
    let n = inst.Instance.n and m = inst.Instance.m in
    let b = inst.Instance.bandwidth in
    let i = st.Word.fed_open and j = st.Word.fed_guarded in
    let total = st.Word.avail_open +. st.Word.avail_guarded in
    if Util.flt total rate then None
    else if i = n then Some Instance.Guarded
    else if j = m then Some Instance.Open
    else begin
      let b_guard_next = b.(n + j + 1) and b_open_next = b.(i + 1) in
      let open_short = Util.flt st.Word.avail_open rate in
      if j = m - 1 then
        if open_short || b_guard_next < b_open_next then Some Instance.Open
        else Some Instance.Guarded
      else if open_short || Util.flt (total +. b_guard_next) (2. *. rate) then
        Some Instance.Open
      else Some Instance.Guarded
    end

  let run_algorithm inst ~rate =
    if not (Instance.sorted inst) then invalid_arg "Greedy: instance must be sorted";
    if rate <= 0. then invalid_arg "Greedy: rate must be positive";
    let total = inst.Instance.n + inst.Instance.m in
    let rec go st acc k =
      if k = total then (Some (List.rev acc), List.rev acc)
      else
        match choose inst ~rate st with
        | None -> (None, List.rev acc)
        | Some letter -> begin
          match Word.step inst ~rate st letter with
          | None -> (None, List.rev acc)
          | Some st' -> go st' ({ letter; state = st' } :: acc) (k + 1)
        end
    in
    go (Word.initial_state inst) [] 0

  let test_trace inst ~rate =
    match run_algorithm inst ~rate with
    | Some trace, full ->
      (Some (Array.of_list (List.map (fun d -> d.letter) trace)), full)
    | None, partial -> (None, partial)

  let test inst ~rate = fst (test_trace inst ~rate)

  let optimal_acyclic ?iterations inst =
    if not (Instance.sorted inst) then
      invalid_arg "Greedy.optimal_acyclic: instance must be sorted";
    if inst.Instance.n + inst.Instance.m < 1 then
      invalid_arg "Greedy.optimal_acyclic: no receiver";
    let all_classes () =
      Array.append
        (Array.make inst.Instance.n Instance.Open)
        (Array.make inst.Instance.m Instance.Guarded)
    in
    let hi = Broadcast.Bounds.cyclic_upper inst in
    if hi <= 0. then (0., all_classes ())
    else begin
      let feasible rate = rate <= 0. || test inst ~rate <> None in
      let search = Util.dichotomic_search ?iterations ~lo:0. ~hi feasible in
      assert search.Util.feasible;
      let t = search.Util.value in
      match test inst ~rate:t with
      | Some w -> (t, w)
      | None ->
        let rec retry rate k =
          if k = 0 || rate <= 0. then (0., all_classes ())
          else
            match test inst ~rate with
            | Some w -> (rate, w)
            | None -> retry (rate *. (1. -. 1e-9)) (k - 1)
        in
        retry t 8
    end
end

let edge_distance a b =
  let differs w w' = Float.abs (w -. w') > 1e-9 *. Float.max 1. (Float.max w w') in
  let count = ref 0 in
  G.iter_edges
    (fun ~src ~dst w -> if differs w (G.edge_weight b ~src ~dst) then incr count)
    a;
  G.iter_edges
    (fun ~src ~dst _w -> if G.edge_weight a ~src ~dst = 0. then incr count)
    b;
  !count

(* The pre-event graph of [before] renumbered through a repair's node map
   (departed nodes dropped), and the number of its edges that touched a
   departed node. *)
let remapped ~before ~size (stats : Broadcast.Repair.stats) =
  let map = stats.Broadcast.Repair.node_map in
  let g = G.create size and casualties = ref 0 in
  G.iter_edges
    (fun ~src ~dst w ->
      if map.(src) < 0 || map.(dst) < 0 then incr casualties
      else G.set_edge g ~src:map.(src) ~dst:map.(dst) w)
    (Broadcast.Overlay.graph before);
  (g, !casualties)

let patch_edges ~before patched stats =
  let size = Instance.size (Broadcast.Overlay.instance patched) in
  let g, casualties = remapped ~before ~size stats in
  casualties + edge_distance g (Broadcast.Overlay.graph patched)

let rebuild_edges ~before patched (stats : Broadcast.Repair.stats) =
  match Broadcast.Overlay.build (Broadcast.Overlay.instance patched) with
  | exception Invalid_argument _ -> stats.Broadcast.Repair.patch_edges
  | rebuilt ->
    let size = Instance.size (Broadcast.Overlay.instance patched) in
    let g, casualties = remapped ~before ~size stats in
    casualties + edge_distance g (Broadcast.Overlay.graph rebuilt)

let optimal_after inst =
  try Broadcast.Overlay.rate (Broadcast.Overlay.build inst)
  with Invalid_argument _ -> 0.
