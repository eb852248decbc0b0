module Codec = Sh_persist.Codec
module SE = Sh_par.Shard_engine
module Q = Stream_histogram.Query_op
module FW = Stream_histogram.Fixed_window
module M = Sh_obs.Metric
module Obs = Sh_obs.Obs

type config = {
  idle_timeout : float;
  checkpoint : string option;
  checkpoint_every : int option;
}

let default_config = { idle_timeout = 30.0; checkpoint = None; checkpoint_every = None }
let max_coalesce_points = 65536
let read_watermark = 1 lsl 20

type backend = {
  shards : int;
  ingest : Wire.Batch.t -> int array;
  query : (Q.scope * Q.t) array -> float array * int;
  stats : unit -> Wire.stats;
  checkpoint : (string -> unit) option;
}

let engine eng =
  (* Geometry is fixed at engine creation; capture it once for Stats. *)
  let shards = SE.shard_count eng in
  let window, buckets =
    SE.fold eng ~init:(0, 0) ~f:(fun (w, b) _ fw ->
        (max w (FW.window fw), max b (FW.buckets fw)))
  in
  {
    shards;
    ingest =
      (fun b ->
        SE.ingest_columns eng ~keys:b.Wire.Batch.keys ~values:b.values ~len:b.points;
        Array.sub b.counts 0 b.requests);
    query = (fun qs -> (SE.query_many eng qs, 0));
    stats =
      (fun () ->
        {
          Wire.shards = shards;
          window;
          buckets;
          total_points = SE.total_points eng;
          batches = SE.batches eng;
          queries = SE.queries eng;
          backpressure_waits = 0;
          snapshots_published = SE.snapshots_published eng;
        });
    checkpoint = Some (fun file -> SE.checkpoint eng ~file);
  }

type report = {
  connections : int;
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  points : int;
  ingest_rounds : int;
  queries_served : int;
  partial_replies : int;
  protocol_errors : int;
  idle_closes : int;
  checkpoints_written : int;
}

let listen addr =
  (match addr with
  | Addr.Unix_sock path when Sys.file_exists path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let fd = Addr.socket_for addr in
  (try
     Unix.bind fd (Addr.to_sockaddr addr);
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.set_nonblock fd;
  fd

(* One decoded request, tagged for in-order response generation.  Ingest
   requests are pulled out for cross-connection coalescing; [Op_bad] is a
   rejection: semantic (the connection stays open) or, after a protocol
   error, the connection's last reply. *)
type op =
  | Op_ingest of int (* this request's index in the round's batch *)
  | Op_query of (Q.scope * Q.t) array
  | Op_stats
  | Op_metrics
  | Op_checkpoint
  | Op_ping
  | Op_shutdown
  | Op_bad of string

type client = {
  conn : Conn.t;
  mutable preamble_ok : bool;
  mutable ops : op list; (* this iteration's requests, reversed *)
  mutable close_after_flush : bool;
  mutable partial_head : bool;
      (* the last decode left only an incomplete frame, whose declared
         length passed the [Wire.max_frame_payload] check *)
}

(* The net.* families: process-wide sums over every [run], which exposes
   them. *)
let c_conns = M.counter "net.connections"
let c_frames_in = M.counter "net.frames_in"
let c_frames_out = M.counter "net.frames_out"
let c_bytes_in = M.counter "net.bytes_in"
let c_bytes_out = M.counter "net.bytes_out"
let c_points = M.counter "net.points"
let c_queries = M.counter "net.queries"
let c_proto_errors = M.counter "net.protocol_errors"
let c_idle_closes = M.counter "net.idle_closes"

let exposed =
  List.map
    (fun c -> Obs.Counter c)
    [ c_conns; c_frames_in; c_frames_out; c_bytes_in; c_bytes_out; c_points; c_queries;
      c_proto_errors; c_idle_closes ]

let scopes_ok shards qs =
  Array.for_all
    (fun (scope, _) ->
      match scope with Q.Key k -> k >= 0 && k < shards | Q.Global -> true)
    qs

let run ?(config = default_config) ?(stop = fun () -> false) ?max_points
    ~backend ~listeners () =
  if not (Float.is_finite config.idle_timeout && config.idle_timeout > 0.) then
    invalid_arg "Server.run: idle_timeout must be finite and > 0";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Obs.expose exposed;
  let shards = backend.shards in
  let bad_key = Op_bad (Printf.sprintf "key out of range [0, %d)" shards) in
  let r_connections = ref 0 in
  let r_frames_in = ref 0 in
  let r_frames_out = ref 0 in
  let r_bytes_in = ref 0 in
  let r_bytes_out = ref 0 in
  let r_points = ref 0 in
  let r_rounds = ref 0 in
  let r_queries = ref 0 in
  let r_partial = ref 0 in
  let r_proto_errors = ref 0 in
  let r_idle_closes = ref 0 in
  let r_checkpoints = ref 0 in
  let clients = ref ([] : client list) in
  let finishing = ref false in
  let write_checkpoint () =
    match (backend.checkpoint, config.checkpoint) with
    | None, _ -> Error "this server holds no state to checkpoint"
    | Some _, None -> Error "no checkpoint path configured"
    | Some save, Some file ->
      save file;
      incr r_checkpoints;
      Ok file
  in
  (* Responses are encoded into one scratch payload buffer and framed
     straight into the connection's output buffer. *)
  let payload = Buffer.create 256 in
  let send cl resp =
    Buffer.clear payload;
    Wire.add_response payload resp;
    Conn.send_frame cl.conn payload;
    incr r_frames_out;
    M.incr c_frames_out
  in
  (* The error reply is the connection's last op, so it follows the
     replies to the requests decoded before the bad frame. *)
  let protocol_error cl msg =
    incr r_proto_errors;
    M.incr c_proto_errors;
    cl.ops <- Op_bad msg :: cl.ops;
    cl.close_after_flush <- true
  in
  let accept_all lfd =
    let continue = ref true in
    while !continue do
      match Unix.accept lfd with
      | fd, _ ->
        let cl =
          {
            conn = Conn.create fd;
            preamble_ok = false;
            ops = [];
            close_after_flush = false;
            partial_head = false;
          }
        in
        Conn.send cl.conn Wire.preamble;
        incr r_connections;
        M.incr c_conns;
        clients := cl :: !clients
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        continue := false
    done
  in
  (* The round's ingest requests, decoded in place into columns. *)
  let batch = Wire.Batch.create () in
  (* Decode the complete frames [cl] has buffered into [cl.ops], stopping
     once the iteration's coalescing [budget] (in points) is spent.
     Appends ingest requests to [batch] in arrival order; returns the
     points taken from the budget.  Each payload is decoded before the
     next read, which may move the bytes it reads. *)
  let decode_client cl ~budget =
    let budget_left = ref budget in
    (try
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
         while !continue && !budget_left > 0 do
           match Conn.next_frame ~max_len:Wire.max_frame_payload cl.conn with
           | None ->
             cl.partial_head <- Conn.buffered cl.conn > 0;
             continue := false
           | Some payload -> (
             cl.partial_head <- false;
             incr r_frames_in;
             M.incr c_frames_in;
             match Wire.decode_request_into batch ~shards payload with
             | Wire.Ingested ->
               let i = batch.requests - 1 in
               budget_left := !budget_left - batch.counts.(i);
               cl.ops <- Op_ingest i :: cl.ops
             | Wire.Bad_key -> cl.ops <- bad_key :: cl.ops
             | Wire.Request (Wire.Query qs) ->
               cl.ops <- (if scopes_ok shards qs then Op_query qs else bad_key) :: cl.ops
             | Wire.Request Wire.Stats -> cl.ops <- Op_stats :: cl.ops
             | Wire.Request Wire.Metrics -> cl.ops <- Op_metrics :: cl.ops
             | Wire.Request Wire.Checkpoint -> cl.ops <- Op_checkpoint :: cl.ops
             | Wire.Request Wire.Ping -> cl.ops <- Op_ping :: cl.ops
             | Wire.Request Wire.Shutdown -> cl.ops <- Op_shutdown :: cl.ops
             | Wire.Request (Wire.Ingest _) ->
               (* decode_request_into appends ingest rows to the batch *)
               assert false)
         done
       end
     with
    | Codec.Corrupt msg -> protocol_error cl ("corrupt frame: " ^ msg)
    | Codec.Version_mismatch { found; expected } ->
      protocol_error cl
        (Printf.sprintf "protocol version %d, this server speaks %d" found
           expected));
    budget - !budget_left
  in
  let reply cl acks = function
    | Op_ingest i -> send cl (Wire.Ack acks.(i))
    | Op_query qs ->
      let answers, leaves_missing = backend.query qs in
      r_queries := !r_queries + Array.length qs;
      M.add c_queries (Array.length qs);
      if leaves_missing = 0 then send cl (Wire.Answers answers)
      else begin
        incr r_partial;
        send cl (Wire.Answers_partial { answers; leaves_missing })
      end
    | Op_stats -> send cl (Wire.Stats_reply (backend.stats ()))
    | Op_metrics -> send cl (Wire.Metrics_reply (Obs.render ()))
    | Op_checkpoint -> (
      match write_checkpoint () with
      | Ok file -> send cl (Wire.Checkpointed file)
      | Error msg -> send cl (Wire.Error_reply msg))
    | Op_ping -> send cl Wire.Pong
    | Op_shutdown ->
      finishing := true;
      send cl Wire.Shutting_down
    | Op_bad msg -> send cl (Wire.Error_reply msg)
  in
  let rec reply_all cl acks = function
    | [] -> ()
    | op :: rest ->
      reply cl acks op;
      reply_all cl acks rest
  in
  (* A connection stops being read once [read_watermark] bytes are
     buffered — unless the last decode found them all to be one incomplete
     frame within [Wire.max_frame_payload], which must arrive whole before
     the buffer can drain.  Every read clears that finding until a decode
     confirms it again, so a connection whose decode is deferred by the
     coalescing budget is read at most one chunk past its frame. *)
  let wants_input cl =
    Conn.buffered cl.conn < read_watermark || cl.partial_head
  in
  let points_done () =
    match max_points with None -> false | Some n -> !r_points >= n
  in
  (* The loop's steps, as closures made once, and list walks that build
     no list ([reply_all], [reap_all]): rounds are small (about 25
     points at wire-bound), so a few words per round are a word per
     point.  An iteration allocates little beyond its requests,
     [select]'s lists and its replies. *)
  let add_read_fd fds cl =
    if cl.close_after_flush || Conn.closed cl.conn || not (wants_input cl) then fds
    else Conn.fd cl.conn :: fds
  in
  let add_write_fd fds cl =
    if Conn.pending_out cl.conn && not (Conn.closed cl.conn) then Conn.fd cl.conn :: fds
    else fds
  in
  let rec read_from fd = function
    | [] -> ()
    | cl :: rest ->
      if Conn.closed cl.conn || Conn.fd cl.conn != fd then read_from fd rest
      else begin
        match Conn.read_into cl.conn with
        | `Data n ->
          cl.partial_head <- false;
          r_bytes_in := !r_bytes_in + n;
          M.add c_bytes_in n
        | `Again -> ()
        | `Eof -> Conn.close cl.conn
      end
  in
  let on_readable fd =
    if List.memq fd listeners then accept_all fd else read_from fd !clients
  in
  let budget = ref max_coalesce_points in
  let decode cl =
    if !budget > 0 && not (cl.close_after_flush || Conn.closed cl.conn) then
      budget := !budget - decode_client cl ~budget:!budget
  in
  let acks = ref [||] in
  let respond cl =
    if cl.ops <> [] && not (Conn.closed cl.conn) then begin
      reply_all cl !acks (List.rev cl.ops);
      cl.ops <- []
    end
  in
  let flush cl =
    if Conn.pending_out cl.conn && not (Conn.closed cl.conn) then begin
      let before = Conn.bytes_out cl.conn in
      (match Conn.flush cl.conn with
      | `Flushed | `Blocked -> ()
      | `Closed -> Conn.close cl.conn);
      let n = Conn.bytes_out cl.conn - before in
      r_bytes_out := !r_bytes_out + n;
      M.add c_bytes_out n
    end
  in
  (* Close [cl] if it is done with; true if it was. *)
  let reap cl =
    let gone = Conn.closed cl.conn in
    let flushed_goodbye = cl.close_after_flush && not (Conn.pending_out cl.conn) in
    let idle_kill =
      ((not cl.preamble_ok) || Conn.buffered cl.conn > 0)
      && Conn.idle_for cl.conn > config.idle_timeout
    in
    if idle_kill && not gone then begin
      incr r_idle_closes;
      M.incr c_idle_closes
    end;
    if gone || flushed_goodbye || idle_kill then begin
      Conn.close cl.conn;
      true
    end
    else false
  in
  (* The live clients, sharing the old list's cells when none is reaped. *)
  let rec reap_all = function
    | [] -> []
    | cl :: rest as l ->
      let rest' = reap_all rest in
      if reap cl then rest' else if rest' == rest then l else cl :: rest'
  in
  let drained cl = not (Conn.pending_out cl.conn) in
  let running = ref true in
  while !running do
    (* -- build fd sets ------------------------------------------------ *)
    let read_fds =
      if !finishing then [] else List.fold_left add_read_fd listeners !clients
    in
    let write_fds = List.fold_left add_write_fd [] !clients in
    let readable, _writable, _ =
      try Unix.select read_fds write_fds [] 0.05
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    (* -- accept + read ------------------------------------------------ *)
    List.iter on_readable readable;
    (* -- decode + coalesce + apply ------------------------------------ *)
    Wire.Batch.clear batch;
    budget := max_coalesce_points;
    List.iter decode !clients;
    acks := [||];
    if batch.requests > 0 then begin
      acks := backend.ingest batch;
      let pts = Array.fold_left ( + ) 0 !acks in
      incr r_rounds;
      r_points := !r_points + pts;
      M.add c_points pts;
      match config.checkpoint_every with
      | Some k when !r_rounds mod k = 0 -> ignore (write_checkpoint ())
      | _ -> ()
    end;
    (* -- respond in per-connection request order ---------------------- *)
    List.iter respond !clients;
    (* -- flush + reap ------------------------------------------------- *)
    List.iter flush !clients;
    clients := reap_all !clients;
    (* -- termination -------------------------------------------------- *)
    if stop () || points_done () then running := false
    else if !finishing && List.for_all drained !clients then running := false
  done;
  List.iter (fun cl -> Conn.close cl.conn) !clients;
  {
    connections = !r_connections;
    frames_in = !r_frames_in;
    frames_out = !r_frames_out;
    bytes_in = !r_bytes_in;
    bytes_out = !r_bytes_out;
    points = !r_points;
    ingest_rounds = !r_rounds;
    queries_served = !r_queries;
    partial_replies = !r_partial;
    protocol_errors = !r_proto_errors;
    idle_closes = !r_idle_closes;
    checkpoints_written = !r_checkpoints;
  }
