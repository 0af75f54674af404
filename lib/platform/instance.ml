type node_class = Open | Guarded

type t = {
  bandwidth : float array;
  n : int;
  m : int;
  bin : float array option;
}

let create ?bin ~bandwidth ~n ~m () =
  if n < 0 || m < 0 then invalid_arg "Instance.create: negative class size";
  let size = 1 + n + m in
  if Array.length bandwidth <> size then
    invalid_arg "Instance.create: bandwidth length must be 1 + n + m";
  Array.iter
    (fun b ->
      if b < 0. || Float.is_nan b then
        invalid_arg "Instance.create: bandwidths must be non-negative")
    bandwidth;
  (match bin with
  | Some caps when Array.length caps <> size ->
    invalid_arg "Instance.create: bin length must be 1 + n + m"
  | _ -> ());
  { bandwidth = Array.copy bandwidth; n; m; bin = Option.map Array.copy bin }

let size t = 1 + t.n + t.m

let node_class t i =
  if i < 0 || i >= size t then invalid_arg "Instance.node_class: out of range";
  if i <= t.n then Open else Guarded

let is_open t i = node_class t i = Open
let is_guarded t i = node_class t i = Guarded

let sum_range a lo hi =
  let acc = ref 0. in
  for i = lo to hi do
    acc := !acc +. a.(i)
  done;
  !acc

let open_sum t = sum_range t.bandwidth 1 t.n
let guarded_sum t = sum_range t.bandwidth (t.n + 1) (t.n + t.m)
let total_sum t = sum_range t.bandwidth 0 (t.n + t.m)

(* Monomorphic, so comparing bandwidths reads the float array unboxed. *)
let non_increasing (a : float array) lo hi =
  let ok = ref true in
  for i = lo to hi - 1 do
    if a.(i) < a.(i + 1) then ok := false
  done;
  !ok

let sorted t =
  non_increasing t.bandwidth 1 t.n
  && non_increasing t.bandwidth (t.n + 1) (t.n + t.m)

let normalize t =
  let size = size t in
  let perm = Array.init size Fun.id in
  (* Stable sort of an index range by non-increasing bandwidth. *)
  let sort_range lo hi =
    if hi > lo then begin
      let idx = Array.init (hi - lo + 1) (fun k -> perm.(lo + k)) in
      let cmp i j = Float.compare t.bandwidth.(j) t.bandwidth.(i) in
      let sorted = List.stable_sort cmp (Array.to_list idx) in
      List.iteri (fun k i -> perm.(lo + k) <- i) sorted
    end
  in
  sort_range 1 t.n;
  sort_range (t.n + 1) (t.n + t.m);
  let bandwidth = Array.map (fun i -> t.bandwidth.(i)) perm in
  let bin = Option.map (fun caps -> Array.map (fun i -> caps.(i)) perm) t.bin in
  ({ t with bandwidth; bin }, perm)

let fig1 =
  create ~bandwidth:[| 6.; 5.; 5.; 4.; 1.; 1. |] ~n:2 ~m:3 ()

let homogeneous ~n ~m ~b0 ~bopen ~bguarded =
  let bandwidth =
    Array.init (1 + n + m) (fun i ->
        if i = 0 then b0 else if i <= n then bopen else bguarded)
  in
  create ~bandwidth ~n ~m ()

let tight_homogeneous ~n ~m ~delta =
  if n < 1 || m < 1 then invalid_arg "Instance.tight_homogeneous: need n, m >= 1";
  if delta < 0. || delta > float_of_int n then
    invalid_arg "Instance.tight_homogeneous: delta must lie in [0, n]";
  let nf = float_of_int n and mf = float_of_int m in
  homogeneous ~n ~m ~b0:1.
    ~bopen:((mf -. 1. +. delta) /. nf)
    ~bguarded:((nf -. delta) /. mf)

let equal a b =
  a.n = b.n && a.m = b.m
  && Array.for_all2 (fun x y -> Float.equal x y) a.bandwidth b.bandwidth

let pp fmt t =
  Format.fprintf fmt "{n=%d m=%d b0=%g O=%g G=%g}" t.n t.m t.bandwidth.(0)
    (open_sum t) (guarded_sum t)

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "source %.17g\n" t.bandwidth.(0));
  for i = 1 to t.n do
    Buffer.add_string buf (Printf.sprintf "open %.17g\n" t.bandwidth.(i))
  done;
  for i = t.n + 1 to t.n + t.m do
    Buffer.add_string buf (Printf.sprintf "guarded %.17g\n" t.bandwidth.(i))
  done;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let source = ref None and opens = ref [] and guardeds = ref [] in
  let err = ref None in
  let parse_line ln line =
    let line =
      match String.index_opt line '#' with
      | Some k -> String.sub line 0 k
      | None -> line
    in
    let line = String.trim line in
    if line <> "" then
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ kind; value ] -> begin
        match (kind, float_of_string_opt value) with
        | _, None -> err := Some (Printf.sprintf "line %d: bad number %S" ln value)
        | "source", Some b ->
          if !source = None then source := Some b
          else err := Some (Printf.sprintf "line %d: duplicate source" ln)
        | "open", Some b -> opens := b :: !opens
        | "guarded", Some b -> guardeds := b :: !guardeds
        | _, Some _ -> err := Some (Printf.sprintf "line %d: unknown kind %S" ln kind)
      end
      | _ -> err := Some (Printf.sprintf "line %d: expected '<kind> <bandwidth>'" ln)
  in
  List.iteri (fun i line -> if !err = None then parse_line (i + 1) line) lines;
  match (!err, !source) with
  | Some e, _ -> Error e
  | None, None -> Error "missing 'source <b>' line"
  | None, Some b0 ->
    let opens = List.rev !opens and guardeds = List.rev !guardeds in
    let bandwidth = Array.of_list ((b0 :: opens) @ guardeds) in
    (try Ok (create ~bandwidth ~n:(List.length opens) ~m:(List.length guardeds) ())
     with Invalid_argument msg -> Error msg)
