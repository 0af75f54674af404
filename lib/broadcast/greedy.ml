open Platform

type decision = {
  letter : Instance.node_class;
  state : Word.state;
}

(* [Util.flt] and [Util.fge] at the library tolerance, restated so the loop
   below compares its accumulators without boxing them. *)
let[@inline] scale a b = Float.max 1. (Float.max (Float.abs a) (Float.abs b))
let[@inline] flt a b = b -. a > Util.eps *. scale a b
let[@inline] fge a b = b -. a <= Util.eps *. scale b a

(* Algorithm 2 as one loop over unboxed accumulators: [o], [g], [w] are
   O(pi), G(pi), W(pi); [i], [j] count the open and guarded nodes fed.
   Line 3 fails when O + G < T. Lines 4-15 prefer □ unless it is
   unpayable (O < T) or would leave less than T of supply (O + G - T +
   b_next < T); with one □ left, the larger bandwidth goes next. The step
   is {!Word.step}'s conservative one, with its float operations in its
   order, so every answer is bit-identical to stepping [Word.state]
   records (the tests hold both to a recursive oracle).
   Line 17 (O < 0) is subsumed: □ needs O >= T and © keeps O >= 0.

   Returns the number of letters placed, [n + m] iff [rate] is feasible;
   [word] receives each letter and [trace] each decision. With neither, a
   probe allocates nothing. *)
let run inst ~rate ~word ~trace =
  let n = inst.Instance.n and m = inst.Instance.m in
  let b = inst.Instance.bandwidth in
  let o = ref b.(0) and g = ref 0. and w = ref 0. in
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !ok && !i + !j < n + m do
    let total = !o +. !g in
    if flt total rate then ok := false
    else begin
      let guarded =
        !i = n
        || !j < m
           && not
                (flt !o rate
                || if !j = m - 1 then b.(n + !j + 1) < b.(!i + 1)
                   else flt (total +. b.(n + !j + 1)) (2. *. rate))
      in
      if guarded then begin
        (* Fed from open bandwidth only (firewall). *)
        if not (fge !o rate) then ok := false
        else begin
          o := !o -. rate;
          g := !g +. b.(n + !j + 1);
          incr j
        end
      end
      else if not (fge total rate) then ok := false
      else begin
        (* Drain guarded supply first; the shortfall is waste (Lemma 4.3). *)
        let from_open = Float.max 0. (rate -. !g) in
        o := !o +. b.(!i + 1) -. from_open;
        g := Float.max 0. (!g -. rate);
        w := !w +. from_open;
        incr i
      end;
      if !ok then begin
        let letter = if guarded then Instance.Guarded else Instance.Open in
        (match word with Some a -> a.(!i + !j - 1) <- letter | None -> ());
        match trace with
        | None -> ()
        | Some t ->
          let state =
            { Word.avail_open = !o; avail_guarded = !g; waste = !w;
              fed_open = !i; fed_guarded = !j }
          in
          t := { letter; state } :: !t
      end
    end
  done;
  !i + !j

let receivers inst = inst.Instance.n + inst.Instance.m

let check inst ~rate =
  if not (Instance.sorted inst) then invalid_arg "Greedy: instance must be sorted";
  if rate <= 0. then invalid_arg "Greedy: rate must be positive"

let feasible inst ~rate =
  check inst ~rate;
  run inst ~rate ~word:None ~trace:None = receivers inst

let witness inst ~rate ~trace =
  check inst ~rate;
  let word = Array.make (receivers inst) Instance.Open in
  if run inst ~rate ~word:(Some word) ~trace = receivers inst then Some word
  else None

let test inst ~rate = witness inst ~rate ~trace:None

let test_trace inst ~rate =
  let trace = ref [] in
  let word = witness inst ~rate ~trace:(Some trace) in
  (word, List.rev !trace)

(* The dichotomic search of Theorem 4.1: [None] on a degenerate instance
   (e.g. a zero-bandwidth source), whose optimum is 0 without a probe. *)
let search ?iterations ~op inst =
  if not (Instance.sorted inst) then invalid_arg (op ^ ": instance must be sorted");
  if receivers inst < 1 then invalid_arg (op ^ ": no receiver");
  let hi = Bounds.cyclic_upper inst in
  if hi <= 0. then None
  else begin
    let s =
      Util.dichotomic_search ?iterations ~lo:0. ~hi (fun rate ->
          rate <= 0. || feasible inst ~rate)
    in
    (* lo = 0 is always feasible (the degenerate rate), so the search
       cannot report infeasibility here. *)
    assert s.Util.feasible;
    Some s.Util.value
  end

let optimal_rate inst =
  Option.value ~default:0. (search ~op:"Greedy.optimal_rate" inst)

let optimal_acyclic ?iterations inst =
  match search ?iterations ~op:"Greedy.optimal_acyclic" inst with
  | None ->
    (* Rate 0 still needs a complete word for this instance. *)
    ( 0.,
      Array.append
        (Array.make inst.Instance.n Instance.Open)
        (Array.make inst.Instance.m Instance.Guarded) )
  | Some t -> (
    (* The search's value is the last rate a probe accepted (or 0, which
       [test] rejects), so the witness run repeats that probe. *)
    match test inst ~rate:t with Some w -> (t, w) | None -> assert false)
