(* The load generator: one single-threaded client on one Unix-socket
   connection. It sends request lines on a schedule (open loop) or keeps
   a fixed number outstanding (closed loop), timestamps every send and
   every response line, and matches responses to requests by [seq]. *)

module Json = Flowgraph.Json

type response = {
  seq : int;
  ok : bool;
  batch : int;  (** [-1] on responses that carry none *)
  latency_us : int;  (** the daemon's own queue-to-answer time *)
  line : string;
  at : float;  (** when the client read it *)
}

type sample = {
  line : string;
  due : float;  (** scheduled send time; the send time in a closed loop *)
  mutable sent : float;  (** [nan] until sent *)
  mutable resp : response option;
}

type t = {
  fd : Unix.file_descr;
  first_seq : int;  (** seq the daemon gives the first line we send *)
  mutable samples : sample array;  (** indexed by [seq - first_seq] *)
  mutable count : int;
  mutable answered : int;
  partial : Buffer.t;
  mutable protocol_errors : string list;
}

let now = Unix.gettimeofday

let create ~first_seq fd =
  {
    fd;
    first_seq;
    samples = [||];
    count = 0;
    answered = 0;
    partial = Buffer.create 4096;
    protocol_errors = [];
  }

let protocol_error t msg = t.protocol_errors <- msg :: t.protocol_errors

let parse_response line ~at =
  match Json.parse line with
  | Error e -> Error e
  | Ok v -> (
    let int k =
      Option.bind (Json.member k v) (fun x -> Result.to_option (Json.to_int x))
    in
    let str k =
      Option.bind (Json.member k v) (fun x ->
          Result.to_option (Json.to_string_exn x))
    in
    match (int "seq", str "status", int "latency_us") with
    | Some seq, Some status, Some latency_us ->
      Ok
        {
          seq;
          ok = status = "ok";
          batch = Option.value (int "batch") ~default:(-1);
          latency_us;
          line;
          at;
        }
    | _ -> Error "missing seq/status/latency_us")

let deliver t line ~at =
  match parse_response line ~at with
  | Error e -> protocol_error t (Printf.sprintf "unparseable response (%s): %s" e line)
  | Ok r ->
    let i = r.seq - t.first_seq in
    if i < 0 || i >= t.count then
      protocol_error t (Printf.sprintf "response to unsent seq %d" r.seq)
    else begin
      let s = t.samples.(i) in
      match s.resp with
      | Some _ -> protocol_error t (Printf.sprintf "seq %d answered twice" r.seq)
      | None ->
        s.resp <- Some r;
        t.answered <- t.answered + 1
    end

let chunk = Bytes.create 65536

(* Read whatever the daemon has written and deliver every complete line.
   Raises [End_of_file] when the daemon closed the connection. *)
let drain t =
  let k =
    try Unix.read t.fd chunk 0 (Bytes.length chunk)
    with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  if k = 0 then raise End_of_file;
  let at = now () in
  let start = ref 0 in
  for i = 0 to k - 1 do
    if Bytes.get chunk i = '\n' then begin
      Buffer.add_subbytes t.partial chunk !start (i - !start);
      let line = Buffer.contents t.partial in
      Buffer.clear t.partial;
      start := i + 1;
      deliver t line ~at
    end
  done;
  Buffer.add_subbytes t.partial chunk !start (k - !start)

(* Wait at most [timeout] seconds for the daemon to write. *)
let await t timeout =
  match Unix.select [ t.fd ] [] [] (Float.max 0. timeout) with
  | [], _, _ -> ()
  | _ -> drain t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec write_all fd b off len =
  if len > 0 then begin
    let k =
      try Unix.write fd b off len
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise End_of_file
    in
    write_all fd b (off + k) (len - k)
  end

let send t ~due line =
  let s = { line; due; sent = nan; resp = None } in
  if t.count = Array.length t.samples then begin
    (* Slots past [count] are never read before being overwritten. *)
    let grown = Array.make (max 64 (2 * t.count)) s in
    Array.blit t.samples 0 grown 0 t.count;
    t.samples <- grown
  end;
  t.samples.(t.count) <- s;
  t.count <- t.count + 1;
  let b = Bytes.of_string (line ^ "\n") in
  write_all t.fd b 0 (Bytes.length b);
  s.sent <- now ()

let outstanding t = t.count - t.answered

(* Open loop: send [lines.(i)] at [due.(i)] whatever the daemon is doing,
   then wait for the stragglers until [deadline]. Returns the samples of
   this phase. *)
let paced t ~lines ~due ~deadline =
  let first = t.count in
  let n = Array.length lines in
  let next = ref 0 in
  let continue () =
    (!next < n || outstanding t > 0) && now () < deadline
  in
  (try
     while continue () do
       if !next < n && due.(!next) <= now () then begin
         send t ~due:due.(!next) lines.(!next);
         incr next
       end
       else
         let wake = if !next < n then due.(!next) else deadline in
         await t (wake -. now ())
     done
   with End_of_file -> protocol_error t "daemon closed the connection");
  Array.sub t.samples first (t.count - first)

(* Closed loop: keep [window] requests outstanding, taking lines from
   [next] until [limit] lines are sent or [until] passes; then wait for
   the stragglers until [deadline]. A daemon batch equal to the window
   answers a whole window at once, so every refill is one whole batch. *)
let closed t ~next ~window ?(limit = max_int) ~until ~deadline () =
  let first = t.count in
  let sent = ref 0 in
  let sending () = !sent < limit && now () < until in
  (try
     while (sending () || outstanding t > 0) && now () < deadline do
       if sending () && outstanding t < window then begin
         send t ~due:(now ()) (next ());
         incr sent
       end
       else await t (deadline -. now ())
     done
   with End_of_file -> protocol_error t "daemon closed the connection");
  Array.sub t.samples first (t.count - first)

(* One control request (query/shutdown), answered before [deadline]. *)
let call t line ~deadline =
  match closed t ~next:(fun () -> line) ~window:1 ~limit:1 ~until:infinity ~deadline () with
  | [| s |] -> s.resp
  | _ -> None

let unanswered samples =
  Array.fold_left (fun k s -> if s.resp = None then k + 1 else k) 0 samples

let errors samples =
  Array.fold_left
    (fun k s -> match s.resp with Some r when not r.ok -> k + 1 | _ -> k)
    0 samples
