module Codec = Sh_persist.Codec
module Q = Stream_histogram.Query_op
module Wire = Sh_net.Wire
module Client = Sh_net.Client
module Conn = Sh_net.Conn
module Addr = Sh_net.Addr
module Obs = Sh_obs.Obs
module M = Sh_obs.Metric

exception Merge_incompatible of string

let merge_incompatiblef fmt =
  Printf.ksprintf (fun s -> raise (Merge_incompatible s)) fmt

(* One leaf `shist serve` process.  [shards] and [offset] are fixed at
   creation: the leaf owns global keys [offset .. offset + shards - 1].
   [client] is None while the leaf is down; every touch goes through
   [with_leaf], which reconnects on demand (zero retries, bounded by the
   aggregator timeout), re-probes the leaf's geometry, and marks the leaf
   down again on any transport or protocol failure — a dead leaf costs one
   fast failed connect per request, never a hang. *)
type leaf = {
  addr : Addr.t;
  shards : int;
  offset : int;
  mutable client : Client.t option;
}

type t = {
  leaves : leaf array;
  total_shards : int;
  window : int;
  buckets : int;
  timeout : float;
  c_fanouts : M.counter;
  c_leaf_failures : M.counter;
  c_partial : M.counter;
}

let total_shards t = t.total_shards
let leaf_count t = Array.length t.leaves
let window t = t.window
let buckets t = t.buckets

let leaf_addrs t = Array.map (fun l -> l.addr) t.leaves

let create ?(timeout = 5.0) addrs =
  if addrs = [] then invalid_arg "Aggregator.create: no leaves";
  let probed =
    List.map
      (fun addr ->
        let c = Client.connect ~timeout addr in
        let s = Client.stats c in
        (addr, c, s))
      addrs
  in
  (match probed with
  | [] -> assert false
  | (addr0, _, s0) :: rest ->
    List.iter
      (fun (addr, _, s) ->
        if s.Wire.window <> s0.Wire.window || s.Wire.buckets <> s0.Wire.buckets
        then
          merge_incompatiblef
            "aggregate: leaf %s geometry (window %d, buckets %d) differs \
             from leaf %s (window %d, buckets %d)"
            (Addr.to_string addr) s.Wire.window s.Wire.buckets
            (Addr.to_string addr0) s0.Wire.window s0.Wire.buckets)
      rest);
  let offset = ref 0 in
  let leaves =
    Array.of_list
      (List.map
         (fun (addr, c, s) ->
           let l = { addr; shards = s.Wire.shards; offset = !offset; client = Some c } in
           offset := !offset + s.Wire.shards;
           l)
         probed)
  in
  let _, _, s0 = List.hd probed in
  let labels = [ ("instance", Obs.instance "agg") ] in
  {
    leaves;
    total_shards = !offset;
    window = s0.Wire.window;
    buckets = s0.Wire.buckets;
    timeout;
    c_fanouts = Obs.counter ~labels "agg.fanouts";
    c_leaf_failures = Obs.counter ~labels "agg.leaf_failures";
    c_partial = Obs.counter ~labels "agg.partial_replies";
  }

let mark_down t l =
  (match l.client with Some c -> Client.close c | None -> ());
  l.client <- None;
  M.incr t.c_leaf_failures

let close t =
  Array.iter
    (fun l ->
      match l.client with
      | Some c ->
        Client.close c;
        l.client <- None
      | None -> ())
    t.leaves

(* Reconnect a down leaf and re-probe its layout.  A leaf restarted with
   a different shard count, window or bucket budget would shift the key
   space or add foreign geometry into [Global] answers, so it stays down
   until it matches the layout fixed at [create]. *)
let reconnect t l =
  let c = Client.connect ~timeout:t.timeout ~retries:0 l.addr in
  match Client.stats c with
  | s
    when s.Wire.shards = l.shards && s.Wire.window = t.window
         && s.Wire.buckets = t.buckets ->
    c
  | s ->
    Client.close c;
    merge_incompatiblef
      "aggregate: leaf %s came back with (shards %d, window %d, buckets %d), \
       expected (%d, %d, %d)"
      (Addr.to_string l.addr) s.Wire.shards s.Wire.window s.Wire.buckets l.shards
      t.window t.buckets
  | exception e ->
    Client.close c;
    raise e

let leaf_failure = function
  | Client.Net_error _ | Codec.Corrupt _ | Codec.Version_mismatch _
  | Merge_incompatible _ | Unix.Unix_error _ ->
    true
  | _ -> false

(* Run [f] against a leaf's client, reconnecting a down leaf on demand
   (one attempt, fail-fast).  Any transport error, protocol garbage, or
   layout change marks the leaf down and yields [None] — the caller
   degrades, never crashes, never hangs beyond the client timeout. *)
let with_leaf t l f =
  match
    let c =
      match l.client with
      | Some c -> c
      | None ->
        let c = reconnect t l in
        l.client <- Some c;
        c
    in
    f c
  with
  | v -> Some v
  | exception e when leaf_failure e ->
    mark_down t l;
    None

let check_key t k =
  if k < 0 || k >= t.total_shards then
    invalid_arg
      (Printf.sprintf "Aggregator: key %d out of range [0, %d)" k t.total_shards)

(* The leaf owning global key [k] (offsets are cumulative and ascending;
   leaf counts are tiny, so a linear scan beats bookkeeping). *)
let route t k =
  let li = ref 0 in
  while k >= t.leaves.(!li).offset + t.leaves.(!li).shards do
    incr li
  done;
  !li

(* A leaf's part in one query batch.  [Idle]: the batch asked nothing of
   it.  [Answered]: [out.(globals_at + g * shards + k)] is local key [k]'s
   answer to the batch's [g]-th [Global] op. *)
type leaf_reply =
  | Idle
  | Missing
  | Answered of { globals_at : int; out : float array }

(* Fan a scoped query batch out as one [Query] per leaf.  [Key] elements
   are routed to their owning leaf (rebased to the leaf's local key
   space); each [Global] op is expanded into [Key 0 .. shards - 1] on
   every leaf and folded here from [0.0], leaves in ascending offset
   order and each leaf's keys ascending — the exact association
   {!Query_op.scope} fixes and the single-process engine uses, so
   complete answers are bit-identical to a one-process oracle over the
   same per-key streams, and every answer comes from a published view.
   Elements whose leaf is down answer 0.0 (a [Global] drops that leaf's
   terms) and the leaf counts once toward [leaves_missing]. *)
let query t qs =
  M.incr t.c_fanouts;
  let answers = Array.make (Array.length qs) 0.0 in
  let keyed = Array.make (Array.length t.leaves) [] in
  let globals = ref [] in
  Array.iteri
    (fun i (scope, q) ->
      match scope with
      | Q.Key k ->
        check_key t k;
        let li = route t k in
        keyed.(li) <- (i, (Q.Key (k - t.leaves.(li).offset), q)) :: keyed.(li)
      | Q.Global -> globals := (i, q) :: !globals)
    qs;
  let globals = Array.of_list (List.rev !globals) in
  let replies =
    Array.mapi
      (fun li l ->
        let keyed = Array.of_list (List.rev keyed.(li)) in
        let expanded =
          Array.init (Array.length globals * l.shards) (fun j ->
              (Q.Key (j mod l.shards), snd globals.(j / l.shards)))
        in
        let sub = Array.append (Array.map snd keyed) expanded in
        if Array.length sub = 0 then Idle
        else
          match with_leaf t l (fun c -> Client.query c sub) with
          | Some out when Array.length out = Array.length sub ->
            Array.iteri (fun j (i, _) -> answers.(i) <- out.(j)) keyed;
            Answered { globals_at = Array.length keyed; out }
          | Some _ ->
            mark_down t l;
            Missing
          | None -> Missing)
      t.leaves
  in
  Array.iteri
    (fun g (i, _) ->
      let acc = ref 0.0 in
      Array.iteri
        (fun li reply ->
          match reply with
          | Answered { globals_at; out } ->
            let shards = t.leaves.(li).shards in
            let base = globals_at + (g * shards) in
            for k = 0 to shards - 1 do
              acc := !acc +. out.(base + k)
            done
          | Idle | Missing -> ())
        replies;
      answers.(i) <- !acc)
    globals;
  let lm =
    Array.fold_left
      (fun n r -> match r with Missing -> n + 1 | Idle | Answered _ -> n)
      0 replies
  in
  if lm > 0 then M.incr t.c_partial;
  (answers, lm)

(* Split an ingest batch across the owning leaves (rebasing keys) and
   forward each sub-batch.  Returns the points actually acked plus how
   many leaves were unreachable — their sub-batches are dropped, which
   the partial ack surfaces to the producer. *)
let ingest t groups =
  M.incr t.c_fanouts;
  Array.iter (fun (k, _) -> check_key t k) groups;
  let per_leaf = Array.make (Array.length t.leaves) [] in
  Array.iter
    (fun (k, vs) ->
      let li = route t k in
      per_leaf.(li) <- (k - t.leaves.(li).offset, vs) :: per_leaf.(li))
    groups;
  let acked = ref 0 in
  let missing = ref 0 in
  Array.iteri
    (fun li gs ->
      match gs with
      | [] -> ()
      | gs -> (
        let sub = Array.of_list (List.rev gs) in
        match with_leaf t t.leaves.(li) (fun c -> Client.ingest c sub) with
        | Some n -> acked := !acked + n
        | None -> incr missing))
    per_leaf;
  (!acked, !missing)

(* Aggregated stats: the tree's geometry plus the sum of the live
   leaves' cumulative counters (a down leaf contributes nothing). *)
let stats t =
  let acc =
    ref
      {
        Wire.shards = t.total_shards;
        window = t.window;
        buckets = t.buckets;
        total_points = 0;
        batches = 0;
        queries = 0;
        backpressure_waits = 0;
        lock_ops = 0;
        query_lock_ops = 0;
        snapshots_published = 0;
      }
  in
  let missing = ref 0 in
  Array.iter
    (fun l ->
      match with_leaf t l Client.stats with
      | Some s ->
        acc :=
          {
            !acc with
            Wire.total_points = !acc.Wire.total_points + s.Wire.total_points;
            batches = !acc.Wire.batches + s.Wire.batches;
            queries = !acc.Wire.queries + s.Wire.queries;
            backpressure_waits =
              !acc.Wire.backpressure_waits + s.Wire.backpressure_waits;
            lock_ops = !acc.Wire.lock_ops + s.Wire.lock_ops;
            query_lock_ops = !acc.Wire.query_lock_ops + s.Wire.query_lock_ops;
            snapshots_published =
              !acc.Wire.snapshots_published + s.Wire.snapshots_published;
          }
      | None -> incr missing)
    t.leaves;
  (!acc, !missing)

(* --- the root serve loop --------------------------------------------- *)

type report = {
  connections : int;
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  points_forwarded : int;
  queries_served : int;
  partial_replies : int;
  protocol_errors : int;
  idle_closes : int;
}

type client_conn = {
  conn : Conn.t;
  mutable preamble_ok : bool;
  mutable close_after_flush : bool;
}

let keys_ok t arr =
  Array.for_all (fun (k, _) -> k >= 0 && k < t.total_shards) arr

let scopes_ok t qs =
  Array.for_all
    (fun (scope, _) ->
      match scope with
      | Q.Key k -> k >= 0 && k < t.total_shards
      | Q.Global -> true)
    qs

(* Same select/accept/flush skeleton as {!Sh_net.Server.run}, minus the
   cross-connection ingest coalescing (the aggregator holds no engine):
   each request is answered inline by a blocking fan-out to the leaves,
   bounded by the aggregator timeout per leaf touch.  Degradation is in
   the reply, never the transport: a down leaf yields a partial ack or an
   [Answers_partial] frame, and the loop keeps serving. *)
let run ?(idle_timeout = 30.0) ?(stop = fun () -> false) ~listeners t () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let r_connections = ref 0 in
  let r_frames_in = ref 0 in
  let r_frames_out = ref 0 in
  let r_bytes_in = ref 0 in
  let r_bytes_out = ref 0 in
  let r_points = ref 0 in
  let r_queries = ref 0 in
  let r_partial = ref 0 in
  let r_proto_errors = ref 0 in
  let r_idle_closes = ref 0 in
  let clients = ref ([] : client_conn list) in
  let finishing = ref false in
  let send cl resp =
    Conn.send cl.conn (Wire.encode_response resp);
    incr r_frames_out
  in
  let protocol_error cl msg =
    incr r_proto_errors;
    send cl (Wire.Error_reply msg);
    cl.close_after_flush <- true
  in
  let handle cl req =
    match req with
    | Wire.Ingest gs ->
      if not (keys_ok t gs) then
        send cl
          (Wire.Error_reply
             (Printf.sprintf "key out of range [0, %d)" t.total_shards))
      else begin
        let acked, _missing = ingest t gs in
        r_points := !r_points + acked;
        send cl (Wire.Ack acked)
      end
    | Wire.Query qs ->
      if not (scopes_ok t qs) then
        send cl
          (Wire.Error_reply
             (Printf.sprintf "key out of range [0, %d)" t.total_shards))
      else begin
        let answers, leaves_missing = query t qs in
        r_queries := !r_queries + Array.length qs;
        if leaves_missing = 0 then send cl (Wire.Answers answers)
        else begin
          incr r_partial;
          send cl (Wire.Answers_partial { answers; leaves_missing })
        end
      end
    | Wire.Stats ->
      let s, _missing = stats t in
      send cl (Wire.Stats_reply s)
    | Wire.Metrics -> send cl (Wire.Metrics_reply (Obs.render Obs.Prom))
    | Wire.Checkpoint ->
      send cl (Wire.Error_reply "aggregator holds no state to checkpoint")
    | Wire.Ping -> send cl Wire.Pong
    | Wire.Shutdown ->
      finishing := true;
      send cl Wire.Shutting_down
  in
  let accept_all lfd =
    let continue = ref true in
    while !continue do
      match Unix.accept lfd with
      | fd, _ ->
        let cl =
          { conn = Conn.create fd; preamble_ok = false; close_after_flush = false }
        in
        Conn.send cl.conn Wire.preamble;
        incr r_connections;
        clients := cl :: !clients
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        continue := false
    done
  in
  let drain_client cl =
    try
      if not cl.preamble_ok then begin
        match Conn.peek cl.conn Wire.preamble_len with
        | None -> ()
        | Some s ->
          Wire.check_preamble s;
          Conn.consume cl.conn Wire.preamble_len;
          cl.preamble_ok <- true
      end;
      if cl.preamble_ok then begin
        let continue = ref true in
        while !continue do
          match Conn.next_frame ~max_len:Wire.max_frame_payload cl.conn with
          | None -> continue := false
          | Some payload ->
            incr r_frames_in;
            handle cl (Wire.decode_request payload)
        done
      end
    with
    | Codec.Corrupt msg -> protocol_error cl ("corrupt frame: " ^ msg)
    | Codec.Version_mismatch { found; expected } ->
      protocol_error cl
        (Printf.sprintf "protocol version %d, this aggregator speaks %d" found
           expected)
  in
  let running = ref true in
  while !running do
    let read_fds =
      if !finishing then []
      else
        List.rev_append listeners
          (List.filter_map
             (fun cl ->
               if cl.close_after_flush || Conn.closed cl.conn then None
               else Some (Conn.fd cl.conn))
             !clients)
    in
    let write_fds =
      List.filter_map
        (fun cl ->
          if Conn.pending_out cl.conn && not (Conn.closed cl.conn) then
            Some (Conn.fd cl.conn)
          else None)
        !clients
    in
    let readable, _, _ =
      try Unix.select read_fds write_fds [] 0.05
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if List.memq fd listeners then accept_all fd
        else
          match
            List.find_opt
              (fun cl -> (not (Conn.closed cl.conn)) && Conn.fd cl.conn == fd)
              !clients
          with
          | None -> ()
          | Some cl -> (
            match Conn.read_into cl.conn with
            | `Data n ->
              r_bytes_in := !r_bytes_in + n;
              drain_client cl
            | `Again -> ()
            | `Eof -> Conn.close cl.conn))
      readable;
    List.iter
      (fun cl ->
        if Conn.pending_out cl.conn && not (Conn.closed cl.conn) then begin
          let before = Conn.bytes_out cl.conn in
          (match Conn.flush cl.conn with
          | `Flushed | `Blocked -> ()
          | `Closed -> Conn.close cl.conn);
          r_bytes_out := !r_bytes_out + (Conn.bytes_out cl.conn - before)
        end)
      !clients;
    clients :=
      List.filter
        (fun cl ->
          let gone = Conn.closed cl.conn in
          let flushed_goodbye =
            cl.close_after_flush && not (Conn.pending_out cl.conn)
          in
          let idle_kill =
            idle_timeout > 0.
            && Conn.idle_for cl.conn > idle_timeout
            && ((not cl.preamble_ok) || Conn.buffered cl.conn > 0)
          in
          if idle_kill && not gone then incr r_idle_closes;
          if gone || flushed_goodbye || idle_kill then begin
            Conn.close cl.conn;
            false
          end
          else true)
        !clients;
    if stop () then running := false
    else if
      !finishing
      && List.for_all (fun cl -> not (Conn.pending_out cl.conn)) !clients
    then running := false
  done;
  List.iter (fun cl -> Conn.close cl.conn) !clients;
  {
    connections = !r_connections;
    frames_in = !r_frames_in;
    frames_out = !r_frames_out;
    bytes_in = !r_bytes_in;
    bytes_out = !r_bytes_out;
    points_forwarded = !r_points;
    queries_served = !r_queries;
    partial_replies = !r_partial;
    protocol_errors = !r_proto_errors;
    idle_closes = !r_idle_closes;
  }
