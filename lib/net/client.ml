module Codec = Sh_persist.Codec

exception Net_error of string

let net_errorf fmt = Printf.ksprintf (fun s -> raise (Net_error s)) fmt

type t = {
  conn : Conn.t;
  timeout : float;
  payload : Buffer.t; (* the request being framed, reused across sends *)
}

let close t = Conn.close t.conn
let bytes_in t = Conn.bytes_in t.conn
let bytes_out t = Conn.bytes_out t.conn

(* Wait until the socket is ready in the direction given, at most
   [timeout] seconds. *)
let wait t ~reading =
  let fd = [ Conn.fd t.conn ] in
  let r, w = if reading then (fd, []) else ([], fd) in
  match Unix.select r w [] t.timeout with
  | [], [], _ when reading -> net_errorf "timeout after %gs waiting for the server" t.timeout
  | [], [], _ -> net_errorf "timeout after %gs writing to the server" t.timeout
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* Write everything queued, waiting for room while the peer reads. *)
let rec flush t =
  match Conn.flush t.conn with
  | `Flushed -> ()
  | `Blocked ->
    wait t ~reading:false;
    flush t
  | `Closed -> net_errorf "connection reset by server"

(* [take] from the input buffer, reading more until it succeeds. *)
let rec await t take =
  match take t.conn with
  | Some x -> x
  | None ->
    wait t ~reading:true;
    (match Conn.read_into t.conn with
    | `Data _ | `Again -> ()
    | `Eof -> net_errorf "connection closed by server mid-message");
    await t take

let take_frame = Conn.next_frame ~max_len:Wire.max_frame_payload

let take_preamble conn =
  let p = Conn.peek conn Wire.preamble_len in
  if Option.is_some p then Conn.consume conn Wire.preamble_len;
  p

let connect_once ~timeout addr =
  let sock = Addr.socket_for addr in
  match
    Unix.connect sock (Addr.to_sockaddr addr);
    Conn.create sock
  with
  | conn ->
    let t = { conn; timeout; payload = Buffer.create 64 } in
    (try
       Conn.send t.conn Wire.preamble;
       flush t;
       Wire.check_preamble (await t take_preamble)
     with e ->
       close t;
       raise e);
    t
  | exception e ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    raise e

let connect ?(timeout = 30.) ?(retries = 0) ?(retry_delay = 0.2) addr =
  (* [Unix.select] waits forever on a negative timeout *)
  if not (Float.is_finite timeout && timeout > 0.) then
    invalid_arg "Client.connect: timeout must be finite and > 0";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rec go attempt =
    match connect_once ~timeout addr with
    | t -> t
    | exception
        ( Unix.Unix_error
            ((ECONNREFUSED | ENOENT | ECONNRESET | EPIPE | ETIMEDOUT), _, _)
        | Net_error _ )
      when attempt < retries ->
      Unix.sleepf retry_delay;
      go (attempt + 1)
    | exception Unix.Unix_error (e, _, _) ->
      net_errorf "connect %s: %s" (Addr.to_string addr) (Unix.error_message e)
  in
  go 0

let send t req =
  Buffer.clear t.payload;
  Wire.add_request t.payload req;
  Conn.send_frame t.conn t.payload;
  flush t

let recv t = Wire.decode_response (await t take_frame)

let call t req =
  send t req;
  recv t

let unexpected what resp =
  match resp with
  | Wire.Error_reply msg -> net_errorf "server rejected %s: %s" what msg
  | _ -> Codec.corruptf "unexpected response to %s" what

let ingest t groups =
  match call t (Wire.Ingest groups) with
  | Wire.Ack n -> n
  | resp -> unexpected "ingest" resp

let query t qs =
  match call t (Wire.Query qs) with
  | Wire.Answers a -> a
  | resp -> unexpected "query" resp

let query_partial t qs =
  match call t (Wire.Query qs) with
  | Wire.Answers a -> (a, 0)
  | Wire.Answers_partial { answers; leaves_missing } -> (answers, leaves_missing)
  | resp -> unexpected "query" resp

let stats t =
  match call t Wire.Stats with
  | Wire.Stats_reply s -> s
  | resp -> unexpected "stats" resp

let metrics t =
  match call t Wire.Metrics with
  | Wire.Metrics_reply s -> s
  | resp -> unexpected "metrics" resp

let checkpoint t =
  match call t Wire.Checkpoint with
  | Wire.Checkpointed path -> path
  | resp -> unexpected "checkpoint" resp

let ping t =
  match call t Wire.Ping with
  | Wire.Pong -> ()
  | resp -> unexpected "ping" resp

let shutdown t =
  match call t Wire.Shutdown with
  | Wire.Shutting_down -> ()
  | resp -> unexpected "shutdown" resp
