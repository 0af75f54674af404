open Platform
module G = Flowgraph.Graph
module Csr = Flowgraph.Csr

type delta = {
  full : bool;
  identity : bool;
  touched : int array;
}

type stats = {
  patch_edges : int;
  rate_after : float;
  optimal_after : float;
  starved : int list;
  node_map : int array;
  delta : delta;
}

let full_delta = { full = true; identity = false; touched = [||] }

(* Mutable edge-modification log threaded through the repair primitives;
   folded into the structured [delta] once the operation commits. *)
type log = {
  mutable l_nodes : int list;
      (* post-event ids touched beyond logged edges; -1 = departed *)
  l_before : (int * int, float) Hashtbl.t;
      (* post-event ids: weight before the repair first touched the edge *)
}

let new_log () = { l_nodes = []; l_before = Hashtbl.create 16 }

(* Log a change to edge [src -> dst], whose weight is [w] just before it. *)
let log_edge log ~src ~dst w =
  if not (Hashtbl.mem log.l_before (src, dst)) then
    Hashtbl.add log.l_before (src, dst) w

let delta_of ~map log =
  let identity = ref true in
  Array.iteri (fun i v -> if v <> i then identity := false) map;
  let tbl = Hashtbl.create 16 in
  let touch v = if v >= 0 then Hashtbl.replace tbl v () in
  List.iter touch log.l_nodes;
  Hashtbl.iter
    (fun (u, v) _ ->
      touch u;
      touch v)
    log.l_before;
  let touched =
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []))
  in
  { full = false; identity = !identity; touched }

(* Provenance of a patched scheme: the original algorithm wrapped once in
   [Repaired] — repairs of repairs keep a single layer of wrapping. The
   target rate promise is kept; the degree promise is dropped (refill can
   grow outdegrees past any constructive bound). *)
let repaired_provenance o =
  let p = Scheme.provenance (Overlay.scheme o) in
  let algorithm =
    match p.Scheme.algorithm with Scheme.Repaired _ as a -> a | a -> Scheme.Repaired a
  in
  { Scheme.algorithm; rate = p.Scheme.rate; degree_bound = None }

let patched_overlay_of o ~inst ~graph ~order ~delta =
  let provenance = repaired_provenance o in
  let scheme =
    (* Identity fast case: no renumbering happened, so the base scheme's
       frozen snapshot stays warm — only the touched rows are re-frozen
       and re-validated. Renumbering repairs (and rebuilds) fall back to
       the full constructor. *)
    if delta.identity && not delta.full then
      Scheme.apply_delta ~base:(Overlay.scheme o) ~provenance inst
        ~rows:delta.touched graph
    else Scheme.create ~provenance inst graph
  in
  Overlay.of_scheme scheme ~order

let remap_graph old_graph ~size ~map ~keep =
  let g = G.create size in
  G.iter_edges
    (fun ~src ~dst w ->
      if keep src && keep dst then G.set_edge g ~src:(map src) ~dst:(map dst) w)
    old_graph;
  g

(* [G.out_weight] per row, memoized for one event: an entry is summed on
   first use and dropped when the repair adds to that row. *)
let new_memo size = Array.make size Float.nan

let out_weight memo graph u =
  if Float.is_nan memo.(u) then memo.(u) <- G.out_weight graph u;
  memo.(u)

(* Fill [deficit] units into [r], whose position in [order] is [limit],
   from the nodes placed before it: spare capacity only, guarded senders
   first when [r] is open (the conservative class preference). Each class
   is walked from the front of the order and the walk stops as soon as the
   deficit is filled. Returns the unfilled remainder. *)
let refill inst graph ~log ~memo ~order ~limit ~r ~deficit ~cut =
  let b = inst.Instance.bandwidth in
  let draw want_guarded remaining =
    let remaining = ref remaining and k = ref 0 in
    while !remaining > cut && !k < limit do
      let u = order.(!k) in
      incr k;
      if Instance.is_guarded inst u = want_guarded then begin
        let spare = b.(u) -. out_weight memo graph u in
        if spare > cut then begin
          let amount = Float.min spare !remaining in
          log_edge log ~src:u ~dst:r (G.edge_weight graph ~src:u ~dst:r);
          G.add_edge graph ~src:u ~dst:r amount;
          memo.(u) <- Float.nan;
          remaining := !remaining -. amount
        end
      end
    done;
    !remaining
  in
  let remaining =
    if Instance.is_guarded inst r then deficit else draw true deficit
  in
  draw false remaining

(* Refill every reception deficit in topological order, so earlier repairs
   can rely on upstream nodes being whole again. *)
let refill_all inst graph ~log ~order ~rate =
  let memo = new_memo (Array.length order) in
  let cut = 1e-7 *. rate in
  Array.iteri
    (fun limit r ->
      if r <> 0 then begin
        let deficit = rate -. G.in_weight graph r in
        if deficit > cut then
          ignore (refill inst graph ~log ~memo ~order ~limit ~r ~deficit ~cut)
      end)
    order

(* Non-source nodes still receiving below [rate] (beyond a 1e-6 relative
   slack) — read off the patched scheme's cached CSR snapshot. *)
let starved_of scheme =
  let rate = Scheme.rate scheme in
  let snap = Scheme.snapshot scheme in
  let slack = 1e-6 *. Float.max 1. rate in
  let starved = ref [] in
  for v = Csr.node_count snap - 1 downto 1 do
    if Csr.in_weight snap v < rate -. slack then starved := v :: !starved
  done;
  !starved

(* Edge changes performed by the repair: every casualty edge, plus each
   logged edge whose final weight differs from its pre-repair one. *)
let patch_edges ~casualties ~log graph =
  Hashtbl.fold
    (fun (src, dst) before count ->
      if Overlay.edge_changed before (G.edge_weight graph ~src ~dst) then count + 1
      else count)
    log.l_before casualties

let finish ~casualties ~log ~graph ~node_map ~delta patched =
  let patch_edges = patch_edges ~casualties ~log graph in
  (* [rate_after] comes from the patched scheme's memoized report — the CSR
     structured fast path on acyclic overlays, never a fresh max-flow. *)
  let rate_after = Overlay.verified_rate patched in
  let starved = starved_of (Overlay.scheme patched) in
  (* Churn can in principle leave an instance the Theorem 4.1 pipeline no
     longer accepts; the patch must still stand on its own, so the optimum
     then reads 0 ("no alternative") instead of raising. *)
  let optimal_after = Overlay.optimal_rate (Overlay.instance patched) in
  (patched, { patch_edges; rate_after; optimal_after; starved; node_map; delta })

(* Shared removal core: drop a set of nodes in one event, remap the
   survivors, and refill every reception deficit in topological order. *)
let remove_nodes o ~nodes ~op =
  let inst = Overlay.instance o in
  let size = Instance.size inst in
  if nodes = [] then invalid_arg (op ^ ": no node to remove");
  let drop = Array.make size false in
  List.iter
    (fun v ->
      if v <= 0 || v >= size then invalid_arg (op ^ ": bad node");
      if drop.(v) then invalid_arg (op ^ ": duplicate node");
      drop.(v) <- true)
    nodes;
  let k = List.length nodes in
  if size - k < 2 then invalid_arg (op ^ ": cannot remove the last receiver");
  let map = Array.make size (-1) in
  let next = ref 0 in
  for v = 0 to size - 1 do
    if not drop.(v) then begin
      map.(v) <- !next;
      incr next
    end
  done;
  let b = inst.Instance.bandwidth in
  let bandwidth = Array.make (size - k) 0. in
  for v = 0 to size - 1 do
    if not drop.(v) then bandwidth.(map.(v)) <- b.(v)
  done;
  let dropped_open = ref 0 in
  for v = 1 to inst.Instance.n do
    if drop.(v) then incr dropped_open
  done;
  let n = inst.Instance.n - !dropped_open in
  let m = inst.Instance.m - (k - !dropped_open) in
  let new_inst = Instance.create ~bandwidth ~n ~m () in
  let order =
    Array.of_list
      (Array.to_list (Overlay.order o)
      |> List.filter (fun v -> not drop.(v))
      |> List.map (fun v -> map.(v)))
  in
  let old_graph = Overlay.graph o in
  let log = new_log () in
  (* Every connection incident to a casualty is churn the survivors pay,
     and its surviving endpoint is touched. *)
  let casualties = ref 0 in
  G.iter_edges
    (fun ~src ~dst _w ->
      if drop.(src) || drop.(dst) then begin
        incr casualties;
        log.l_nodes <- map.(src) :: map.(dst) :: log.l_nodes
      end)
    old_graph;
  let graph =
    remap_graph old_graph ~size:(size - k) ~map:(fun v -> map.(v))
      ~keep:(fun v -> not drop.(v))
  in
  refill_all new_inst graph ~log ~order ~rate:(Overlay.rate o);
  let delta = delta_of ~map log in
  finish ~casualties:!casualties ~log ~graph ~node_map:map ~delta
    (patched_overlay_of o ~inst:new_inst ~graph ~order ~delta)

let leave o ~node = remove_nodes o ~nodes:[ node ] ~op:"Repair.leave"

let leave_batch o ~nodes =
  remove_nodes o ~nodes:(List.sort_uniq compare nodes) ~op:"Repair.leave_batch"

let sorted_insert_position inst ~cls ~bandwidth =
  let b = inst.Instance.bandwidth in
  let scan lo hi =
    let rec go i = if i > hi then hi + 1 else if b.(i) < bandwidth then i else go (i + 1) in
    go lo
  in
  match cls with
  | Instance.Open -> scan 1 inst.Instance.n
  | Instance.Guarded ->
    scan (inst.Instance.n + 1) (inst.Instance.n + inst.Instance.m)

let join o ~bandwidth ~cls =
  if bandwidth < 0. || not (Float.is_finite bandwidth) then
    invalid_arg "Repair.join: bad bandwidth";
  let inst = Overlay.instance o in
  let size = Instance.size inst in
  let p = sorted_insert_position inst ~cls ~bandwidth in
  let b = inst.Instance.bandwidth in
  let new_bandwidth =
    Array.init (size + 1) (fun i ->
        if i < p then b.(i) else if i = p then bandwidth else b.(i - 1))
  in
  let n = inst.Instance.n + (if cls = Instance.Open then 1 else 0) in
  let m = inst.Instance.m + (if cls = Instance.Guarded then 1 else 0) in
  let new_inst = Instance.create ~bandwidth:new_bandwidth ~n ~m () in
  let map u = if u < p then u else u + 1 in
  let graph =
    remap_graph (Overlay.graph o) ~size:(size + 1) ~map ~keep:(fun _ -> true)
  in
  let order = Array.append (Array.map map (Overlay.order o)) [| p |] in
  let rate = Overlay.rate o in
  let cut = 1e-7 *. rate in
  let log = new_log () in
  log.l_nodes <- [ p ];
  (* On a saturated overlay this fills nothing: the newcomer is admitted
     at rate 0 and lands in [stats.starved] — never an exception. *)
  ignore
    (refill new_inst graph ~log ~memo:(new_memo (size + 1)) ~order ~limit:size
       ~r:p ~deficit:rate ~cut);
  let node_map = Array.init size map in
  let delta = delta_of ~map:node_map log in
  finish ~casualties:0 ~log ~graph ~node_map ~delta
    (patched_overlay_of o ~inst:new_inst ~graph ~order ~delta)

(* Bandwidth change without membership change: move the node to its sorted
   position within its class (a label permutation — the topology and the
   topological order are untouched), clamp its outgoing edges to the new
   cap, then refill every reception deficit from spare capacity. *)
let set_bandwidth o ~node ~bandwidth ~op =
  let inst = Overlay.instance o in
  let size = Instance.size inst in
  if node < 0 || node >= size then invalid_arg (op ^ ": bad node");
  if not (Float.is_finite bandwidth) || bandwidth < 0. then
    invalid_arg (op ^ ": bad bandwidth");
  if node = 0 && bandwidth <= 0. then
    invalid_arg (op ^ ": source bandwidth must stay positive");
  let b = inst.Instance.bandwidth in
  let b' = Array.copy b in
  b'.(node) <- bandwidth;
  (* Stable re-sort of the node's class block under the new bandwidth;
     every other pair keeps its relative order, so the permutation is
     deterministic and [Instance.sorted] holds again. *)
  let lo, hi =
    if node = 0 then (0, 0)
    else if Instance.is_open inst node then (1, inst.Instance.n)
    else (inst.Instance.n + 1, inst.Instance.n + inst.Instance.m)
  in
  let block =
    List.stable_sort
      (fun i j -> compare b'.(j) b'.(i))
      (List.init (hi - lo + 1) (fun i -> lo + i))
  in
  let map = Array.init size (fun v -> v) in
  List.iteri (fun i old -> map.(old) <- lo + i) block;
  let bandwidth_sorted = Array.make size 0. in
  Array.iteri (fun old new_i -> bandwidth_sorted.(new_i) <- b'.(old)) map;
  let new_inst =
    Instance.create ~bandwidth:bandwidth_sorted ~n:inst.Instance.n
      ~m:inst.Instance.m ()
  in
  let identity = Array.for_all2 ( = ) map (Array.init size (fun v -> v)) in
  let graph =
    (* Identity fast case: the class re-sort kept every node in place, so
       the fresh copy [Overlay.graph] hands out already carries the
       post-event numbering — no hashtable remap pass. *)
    if identity then Overlay.graph o
    else
      remap_graph (Overlay.graph o) ~size ~map:(fun v -> map.(v))
        ~keep:(fun _ -> true)
  in
  let node' = map.(node) in
  let log = new_log () in
  log.l_nodes <- [ node' ];
  let out = G.out_weight graph node' in
  if out > bandwidth then begin
    List.iter (fun (dst, w) -> log_edge log ~src:node' ~dst w) (G.out_edges graph node');
    if bandwidth <= 0. then
      List.iter
        (fun (dst, _w) -> G.set_edge graph ~src:node' ~dst 0.)
        (G.out_edges graph node')
    else begin
      let s = bandwidth /. out in
      List.iter
        (fun (dst, w) -> G.set_edge graph ~src:node' ~dst (w *. s))
        (G.out_edges graph node')
    end
  end;
  let order =
    if identity then Array.copy (Overlay.order o)
    else Array.map (fun v -> map.(v)) (Overlay.order o)
  in
  refill_all new_inst graph ~log ~order ~rate:(Overlay.rate o);
  let delta = delta_of ~map log in
  finish ~casualties:0 ~log ~graph ~node_map:map ~delta
    (patched_overlay_of o ~inst:new_inst ~graph ~order ~delta)

let degrade o ~node ~bandwidth =
  let inst = Overlay.instance o in
  if node >= 0 && node < Instance.size inst
     && not (Util.fle bandwidth inst.Instance.bandwidth.(node))
  then invalid_arg "Repair.degrade: bandwidth increased";
  set_bandwidth o ~node ~bandwidth ~op:"Repair.degrade"

let restore o ~node ~bandwidth =
  let inst = Overlay.instance o in
  if node >= 0 && node < Instance.size inst
     && not (Util.fge bandwidth inst.Instance.bandwidth.(node))
  then invalid_arg "Repair.restore: bandwidth decreased";
  set_bandwidth o ~node ~bandwidth ~op:"Repair.restore"

let rebuild ?headroom o =
  let inst = Overlay.instance o in
  let rebuilt, optimal_after =
    match headroom with
    | None ->
      let rebuilt = Overlay.build inst in
      (rebuilt, Overlay.rate rebuilt)
    | Some h ->
      if not (h > 0. && h <= 1.) then
        invalid_arg "Repair.rebuild: headroom must lie in (0, 1]";
      let t, _ = Greedy.optimal_acyclic inst in
      (Overlay.build ~rate:(t *. h) inst, t)
  in
  ( rebuilt,
    {
      patch_edges =
        Overlay.edge_distance (Scheme.snapshot (Overlay.scheme o))
          (Scheme.snapshot (Overlay.scheme rebuilt));
      rate_after = Overlay.verified_rate rebuilt;
      optimal_after;
      starved = starved_of (Overlay.scheme rebuilt);
      node_map = Array.init (Instance.size inst) (fun v -> v);
      delta = full_delta;
    } )

let rebuild_distance ~before patched stats =
  match Overlay.build (Overlay.instance patched) with
  | exception Invalid_argument _ -> stats.patch_edges
  | rebuilt ->
    let map = stats.node_map in
    let casualties = ref 0 in
    let pre = Overlay.graph before in
    G.iter_edges
      (fun ~src ~dst _w -> if map.(src) < 0 || map.(dst) < 0 then incr casualties)
      pre;
    let remapped =
      remap_graph pre ~size:(Scheme.size (Overlay.scheme patched))
        ~map:(fun v -> map.(v))
        ~keep:(fun v -> map.(v) >= 0)
    in
    !casualties
    + Overlay.edge_distance (Csr.of_graph remapped)
        (Scheme.snapshot (Overlay.scheme rebuilt))
