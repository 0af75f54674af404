(* Order statistics shared by the run, trace and compare paths. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). An empty
   sample reads 0: a layer the workload never exercised did no work. *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0. xs

(* [num / den], 0 when nothing was counted. *)
let ratio num den = if den = 0. then 0. else num /. den
