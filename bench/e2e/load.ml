(* The load generator: inputs drawn deterministically from the seed, and the
   closed- and open-loop senders that send them.  Each generator connection
   runs on its own domain.  In a closed loop each connection owns half the
   keys, so every key's points reach the server in the order they were
   drawn — the order the end-of-run oracle replays. *)

module Rng = Sh_util.Rng
module Wk = Sh_gen.Workloads
module Wire = Sh_net.Wire
module Client = Sh_net.Client
module Codec = Sh_persist.Codec
module Q = Stream_histogram.Query_op

(* Child generators of the seed's root: key k's values at index k, then
   the two connections' key pickers and arrival clocks, the query
   generator, the gate's probe ranges, and the gate's per-key window
   tails. *)
let picker_ix spec c = Spec.keys spec + c
let arrivals_ix spec c = Spec.keys spec + 2 + c
let query_ix spec = Spec.keys spec + 4
let probe_ix spec = Spec.keys spec + 5
let tail_ix spec k = Spec.keys spec + 6 + k

let child ~seed ix = Rng.split_ix (Rng.create ~seed) ix
let network rng = Wk.network rng Wk.default_network

type keyspace = {
  sources : Sh_gen.Source.t array;  (** one value stream per key *)
  sent : int array;  (** points drawn from each stream so far *)
}

let keyspace spec ~seed =
  let keys = Spec.keys spec in
  { sources = Array.init keys (fun k -> network (child ~seed k)); sent = Array.make keys 0 }

let draw ks k len =
  ks.sent.(k) <- ks.sent.(k) + len;
  Array.init len (fun _ -> ks.sources.(k) ())

(* Connection [c]'s key picker. *)
let picker (spec : Spec.t) ~seed c =
  let rng = child ~seed (picker_ix spec c) in
  let keys = Spec.keys spec in
  match spec.loop with
  | Open _ when spec.zipf -> fun () -> Rng.zipf rng ~n:keys ~skew:1.1 - 1
  | Open _ -> fun () -> Rng.int rng keys
  | Closed _ ->
    assert (not spec.zipf);
    let own = Array.of_list (List.filter (fun k -> k mod 2 = c) (List.init keys Fun.id)) in
    fun () -> own.(Rng.int rng (Array.length own))

(* One ingest request: [batch] picks, grouped by key in first-pick order,
   each key's values drawn in stream order. *)
let request ks ~pick ~batch =
  let cnt = Array.make (Array.length ks.sources) 0 in
  let order = Array.make batch 0 in
  let distinct = ref 0 in
  for _ = 1 to batch do
    let k = pick () in
    if cnt.(k) = 0 then begin
      order.(!distinct) <- k;
      incr distinct
    end;
    cnt.(k) <- cnt.(k) + 1
  done;
  Array.init !distinct (fun i ->
      let k = order.(i) in
      (k, draw ks k cnt.(k)))

(* Set-up fills every key's window, keys ascending, in 4096-point
   requests. *)
let prefill (spec : Spec.t) ks =
  let cap = 4096 in
  let reqs = ref [] and cur = ref [] and fill = ref 0 in
  let flush () =
    if !cur <> [] then reqs := Array.of_list (List.rev !cur) :: !reqs;
    cur := [];
    fill := 0
  in
  for k = 0 to Spec.keys spec - 1 do
    let left = ref spec.window in
    while !left > 0 do
      let take = min !left (cap - !fill) in
      cur := (k, draw ks k take) :: !cur;
      left := !left - take;
      fill := !fill + take;
      if !fill = cap then flush ()
    done
  done;
  flush ();
  List.rev !reqs

(* Query batches: 64 [Key] ops in equal shares of Current_error / Herror /
   Range_sum / Point_estimate, or 4 [Global] ops, one of each. *)
let op rng (spec : Spec.t) i =
  let n = spec.window in
  match i mod 4 with
  | 0 -> Q.Current_error
  | 1 ->
    let k = 1 + Rng.int rng spec.buckets in
    Q.Herror { k; x = Rng.int rng (n + 1) }
  | 2 ->
    let lo = 1 + Rng.int rng n in
    Q.Range_sum { lo; hi = lo + Rng.int rng (n - lo + 1) }
  | _ -> Q.Point_estimate { index = 1 + Rng.int rng n }

type queries = {
  key_batch : unit -> (Q.scope * Q.t) array;
  global_batch : unit -> (Q.scope * Q.t) array;
}

let queries (spec : Spec.t) ~seed =
  let rng = child ~seed (query_ix spec) in
  let keys = Spec.keys spec in
  let pick =
    if spec.zipf then fun () -> Rng.zipf rng ~n:keys ~skew:1.1 - 1 else fun () -> Rng.int rng keys
  in
  {
    key_batch =
      (fun () ->
        Array.init 64 (fun i ->
            let k = pick () in
            (Q.Key k, op rng spec i)));
    global_batch = (fun () -> Array.init 4 (fun i -> (Q.Global, op rng spec i)));
  }

(* ---- senders ----------------------------------------------------------- *)

type window = { t_start : float; t_measure : float; t_end : float }

(* What one connection's sender saw.  Latencies in ms; [acked] counts the
   points whose ack arrived inside the measured window. *)
type lane = {
  ingest_ms : Stats.buf;
  query_ms : Stats.buf;
  global_ms : Stats.buf;
  late_ms : Stats.buf;
  mutable sent_points : int;
  mutable acked : int;
  mutable attempted : int;
  mutable failed : int;
  mutable error : string option;
}

let lane () =
  {
    ingest_ms = Stats.create ();
    query_ms = Stats.create ();
    global_ms = Stats.create ();
    late_ms = Stats.create ();
    sent_points = 0;
    acked = 0;
    attempted = 0;
    failed = 0;
    error = None;
  }

(* A transport or protocol failure ends the sender; the requests still
   outstanding count as attempted and failed. *)
let guard lane ~outstanding f =
  try f () with
  | (Client.Net_error _ | Unix.Unix_error _ | Codec.Corrupt _ | Codec.Version_mismatch _) as e ->
    let k = max 1 (outstanding ()) in
    lane.attempted <- lane.attempted + k;
    lane.failed <- lane.failed + k;
    lane.error <- Some (Printexc.to_string e)

let on_ack lane w ~due ~t ~points resp =
  lane.attempted <- lane.attempted + 1;
  match resp with
  | Wire.Ack n when n = points ->
    if due >= w.t_measure then Stats.add lane.ingest_ms ((t -. due) *. 1e3);
    if t >= w.t_measure && t < w.t_end then lane.acked <- lane.acked + n
  | _ -> lane.failed <- lane.failed + 1

(* How late an open-loop request left, against its due time. *)
let note_late lane w ~due ~sent =
  if due >= w.t_measure then Stats.add lane.late_ms (Float.max 0.0 (sent -. due) *. 1e3)

let on_answers lane w ~due ~t ~ops into resp =
  lane.attempted <- lane.attempted + 1;
  match resp with
  | Wire.Answers a when Array.length a = ops ->
    if due >= w.t_measure && due < w.t_end then Stats.add into ((t -. due) *. 1e3)
  | _ -> lane.failed <- lane.failed + 1

(* The [n]-th query batch of a stream (from 0): every [global_every]-th
   is a [Global] batch. *)
let query_batch queries ~global_every n =
  let global = (n + 1) mod global_every = 0 in
  ((if global then queries.global_batch () else queries.key_batch ()), global)

let record_answers lane w ~due ~t ~qs ~global resp =
  let into = if global then lane.global_ms else lane.query_ms in
  on_answers lane w ~due ~t ~ops:(Array.length qs) into resp

(* Closed loop: [depth] requests in flight; a request's latency counts from
   its send.  With [~queries:(q, every, global_every)], every [every]-th
   request is a query batch instead of an ingest request. *)
let closed ~client ~ks ~pick ~batch ~depth ?queries w lane =
  let inflight = Queue.create () in
  let sent = ref 0 and batches = ref 0 in
  let send () =
    incr sent;
    let req, kind =
      match queries with
      | Some (q, every, global_every) when !sent mod every = 0 ->
        let qs, global = query_batch q ~global_every !batches in
        incr batches;
        (Wire.Query qs, Some (qs, global))
      | _ ->
        lane.sent_points <- lane.sent_points + batch;
        (Wire.Ingest (request ks ~pick ~batch), None)
    in
    Queue.push (Stats.now (), kind) inflight;
    Client.send client req
  in
  guard lane ~outstanding:(fun () -> Queue.length inflight) @@ fun () ->
  for _ = 1 to depth do
    send ()
  done;
  while not (Queue.is_empty inflight) do
    let resp = Client.recv client in
    let t = Stats.now () in
    (match Queue.pop inflight with
    | due, None -> on_ack lane w ~due ~t ~points:batch resp
    | due, Some (qs, global) -> record_answers lane w ~due ~t ~qs ~global resp);
    if t < w.t_end then send ()
  done

(* Open loop: request i is due at a uniformly random instant of the i-th
   period of the schedule, whatever happened to the requests before it,
   and its latency counts from its due time, so a stall also counts
   against the requests queued behind it.  The jitter keeps the two
   connections' schedules from locking into one repeating pattern of
   collisions; the count per period stays exact.  A request is built
   before its due time, so generation never makes it late. *)
let open_loop ~arrivals ~interval w lane f =
  guard lane ~outstanding:(fun () -> 1) @@ fun () ->
  let i = ref 0 in
  let due () = w.t_start +. ((Float.of_int !i +. Rng.float arrivals 1.0) *. interval) in
  let d = ref (due ()) in
  while !d < w.t_end do
    f ~i:!i ~due:!d;
    incr i;
    d := due ()
  done

let open_ingest ~client ~ks ~pick ~arrivals ~batch ~points_per_s w lane =
  open_loop ~arrivals ~interval:(Float.of_int batch /. points_per_s) w lane (fun ~i:_ ~due ->
      let req = Wire.Ingest (request ks ~pick ~batch) in
      lane.sent_points <- lane.sent_points + batch;
      Stats.sleep_until due;
      note_late lane w ~due ~sent:(Stats.now ());
      let resp = Client.call client req in
      on_ack lane w ~due ~t:(Stats.now ()) ~points:batch resp)

let open_queries ~client ~queries ~arrivals ~batches_per_s ~global_every w lane =
  open_loop ~arrivals ~interval:(1.0 /. batches_per_s) w lane (fun ~i ~due ->
      let qs, global = query_batch queries ~global_every i in
      Stats.sleep_until due;
      note_late lane w ~due ~sent:(Stats.now ());
      let resp = Client.call client (Wire.Query qs) in
      record_answers lane w ~due ~t:(Stats.now ()) ~qs ~global resp)
