(* What a tracker run leaves behind for the traced replay: the daemon's
   configuration, every acknowledged mutation with its response, and the
   daemon's final artifacts. *)

module Trace = Churn.Trace

type exchange = {
  epoch : int;  (** 0 for the first daemon, 1 for a restored one *)
  line : string;  (** the request line as sent *)
  event : Trace.event;
  resp : Client.response;
}

type t = {
  instance : Platform.Instance.t;
  config : Tracker.Session.config;
  journal : (Tracker.Journal.sync * int) option;
      (** fsync cadence and checkpoint period, when the daemon journals *)
  exchanges : exchange list;  (** in seq order, across both epochs *)
  state_out : string;  (** the daemon's --state-out bytes *)
  trace_out : string;  (** the daemon's --trace-out bytes *)
  crashed_journal : string option;
      (** copy of a killed writer's journal directory, for the
          recovery spans *)
}

(* The coalescing rule stated in session.mli: inside one batch, a run of
   two or more consecutive leaves becomes one Fail_batch and a run of two
   or more consecutive joins one Flash_crowd; every other event passes
   through alone. Returns each executed event with the requests it
   answers, in order. *)
let coalesce (xs : exchange list) : (exchange list * Trace.event) list =
  let kind (e : Trace.event) =
    match e with Trace.Leave _ -> `L | Trace.Join _ -> `J | _ -> `O
  in
  let close run acc =
    match List.rev run with
    | [] -> acc
    | [ x ] -> ([ x ], x.event) :: acc
    | x :: _ as members ->
      let event =
        match x.event with
        | Trace.Leave _ ->
          Trace.Fail_batch
            {
              picks =
                List.map
                  (fun m ->
                    match m.event with Trace.Leave { pick } -> pick | _ -> assert false)
                  members;
            }
        | _ ->
          Trace.Flash_crowd
            {
              arrivals =
                List.map
                  (fun m ->
                    match m.event with
                    | Trace.Join { bandwidth; guarded } -> (bandwidth, guarded)
                    | _ -> assert false)
                  members;
            }
      in
      (members, event) :: acc
  in
  let acc, run =
    List.fold_left
      (fun (acc, run) x ->
        match run with
        | y :: _ when kind x.event = kind y.event && kind x.event <> `O ->
          (acc, x :: run)
        | _ -> (close run acc, [ x ]))
      ([], []) xs
  in
  List.rev (close run acc)

(* Flushes in service order: maximal runs of exchanges answered by the
   same batch of the same daemon. *)
let batches xs =
  let same a b = a.epoch = b.epoch && a.resp.Client.batch = b.resp.Client.batch in
  let acc, cur =
    List.fold_left
      (fun (acc, cur) x ->
        match cur with
        | y :: _ when same x y -> (acc, x :: cur)
        | [] -> (acc, [ x ])
        | _ -> (List.rev cur :: acc, [ x ]))
      ([], []) xs
  in
  List.rev (if cur = [] then acc else List.rev cur :: acc)

let events_of xs = List.length (List.concat_map coalesce (batches xs))
