type t = {
  scheme : Scheme.t;
  order : int array;
}

let scheme t = t.scheme
let instance t = Scheme.instance t.scheme
let rate t = Scheme.rate t.scheme
let graph t = Scheme.graph t.scheme
let order t = t.order

let of_word inst ~rate word =
  { scheme = Low_degree.build inst ~rate word; order = Word.to_order word inst }

(* The rate [build] targets at the optimum: the bisection optimum backed
   off by 4 eps, so the witness re-derived at it is safely feasible. *)
let back_off t = t *. (1. -. (4. *. Util.eps))

let build ?rate inst =
  match rate with
  | None ->
    let t, w = Greedy.optimal_acyclic inst in
    let rate = back_off t in
    (* Re-derive the witness at the backed-off rate so word and rate are
       mutually consistent. *)
    let word = match Greedy.test inst ~rate with Some w' -> w' | None -> w in
    of_word inst ~rate word
  | Some rate -> begin
    match Greedy.test inst ~rate with
    | None -> invalid_arg "Overlay.build: rate is not feasible"
    | Some word -> of_word inst ~rate word
  end

let optimal_rate inst =
  match Greedy.optimal_rate inst with
  | t -> back_off t
  | exception Invalid_argument _ -> 0.

let verified_rate t =
  if Scheme.size t.scheme <= 1 then infinity else Scheme.throughput t.scheme

let positions t =
  let pos = Array.make (Array.length t.order) (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) t.order;
  pos

let well_formed t =
  let size = Scheme.size t.scheme in
  Array.length t.order = size
  && t.order.(0) = 0
  && begin
    let seen = Array.make size false in
    Array.for_all
      (fun v ->
        v >= 0 && v < size
        &&
        if seen.(v) then false
        else begin
          seen.(v) <- true;
          true
        end)
      t.order
  end
  && begin
    let pos = positions t in
    Flowgraph.Graph.fold_edges
      (fun ~src ~dst _w ok -> ok && pos.(src) < pos.(dst))
      (Scheme.graph t.scheme) true
  end
  &&
  (* Structural validity is a [Scheme.create] invariant; the memoized
     report re-certifies it for free (and flags cap violations the same
     tolerant way the legacy [Verify.valid] check did). *)
  let rep = Scheme.report t.scheme in
  rep.Verify.bandwidth_ok && rep.Verify.firewall_ok && rep.Verify.bin_ok

let edge_changed w w' =
  if w = 0. then w' > 0.
  else Float.abs (w -. w') > 1e-9 *. Float.max 1. (Float.max w w')

(* One merge of the two snapshots' rows, which are sorted by destination. *)
let edge_distance (a : Flowgraph.Csr.t) (b : Flowgraph.Csr.t) =
  let count = ref 0 in
  for u = 0 to Int.max a.n b.n - 1 do
    let i = ref (if u < a.n then a.row_off.(u) else 0)
    and j = ref (if u < b.n then b.row_off.(u) else 0) in
    let i_end = if u < a.n then a.row_off.(u + 1) else 0
    and j_end = if u < b.n then b.row_off.(u + 1) else 0 in
    while !i < i_end || !j < j_end do
      let da = if !i < i_end then a.col.(!i) else max_int
      and db = if !j < j_end then b.col.(!j) else max_int in
      let wa = if da <= db then a.w.(!i) else 0.
      and wb = if db <= da then b.w.(!j) else 0. in
      if edge_changed wa wb then incr count;
      if da <= db then incr i;
      if db <= da then incr j
    done
  done;
  !count

let of_scheme scheme ~order =
  if Array.length order <> Scheme.size scheme then
    invalid_arg "Overlay.of_scheme: order length mismatch";
  if order.(0) <> 0 then invalid_arg "Overlay.of_scheme: order must start at the source";
  { scheme; order = Array.copy order }
