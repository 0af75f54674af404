let eps = 1e-9

let scale a b = Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let feq ?(eps = eps) a b = Float.abs (a -. b) <= eps *. scale a b
let fle ?(eps = eps) a b = a -. b <= eps *. scale a b
let flt ?(eps = eps) a b = b -. a > eps *. scale a b
let fge ?eps a b = fle ?eps b a
let fgt ?eps a b = flt ?eps b a
let is_zero ?eps x = feq ?eps x 0.

let ceil_ratio b t =
  if t <= 0. then invalid_arg "Util.ceil_ratio: rate must be positive";
  if b < 0. then invalid_arg "Util.ceil_ratio: bandwidth must be non-negative";
  let q = b /. t in
  int_of_float (Float.ceil (q -. (eps *. Float.max 1. q)))

let prefix_sums b =
  let k = Array.length b in
  let ps = Array.make (k + 1) 0. in
  for i = 0 to k - 1 do
    ps.(i + 1) <- ps.(i) +. b.(i)
  done;
  ps

type dichotomy = {
  value : float;
  feasible : bool;
  probes : int;
  converged : bool;
}

let dichotomic_search ?(iterations = 100) ?(epsilon = 1e-12) ~lo ~hi feasible =
  if hi < lo then invalid_arg "Util.dichotomic_search: empty interval";
  let width_done lo hi = hi -. lo <= epsilon *. scale lo hi in
  if feasible hi then { value = hi; feasible = true; probes = 1; converged = true }
  else if not (feasible lo) then
    { value = lo; feasible = false; probes = 2; converged = true }
  else begin
    (* Invariant: feasible lo, not (feasible hi). Each probe is typically
       an O(n + m) GreedyTest pass, so stop as soon as the bracket is
       below relative [epsilon] instead of always burning the full
       [iterations] budget. *)
    let lo = ref lo and hi = ref hi and probes = ref 2 and left = ref iterations in
    while !left > 0 && not (width_done !lo !hi) do
      let mid = 0.5 *. (!lo +. !hi) in
      incr probes;
      decr left;
      if feasible mid then lo := mid else hi := mid
    done;
    { value = !lo; feasible = true; probes = !probes;
      converged = width_done !lo !hi }
  end

let dichotomic_max ?iterations ?epsilon ~lo ~hi feasible =
  (dichotomic_search ?iterations ?epsilon ~lo ~hi feasible).value
