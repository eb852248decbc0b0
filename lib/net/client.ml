module Codec = Sh_persist.Codec
module Frame = Sh_persist.Frame

exception Net_error of string

let net_errorf fmt = Printf.ksprintf (fun s -> raise (Net_error s)) fmt

type t = {
  sock : Unix.file_descr;
  timeout : float;
  mutable inbuf : Buffer.t; (* bytes read, not yet consumed by a frame *)
  mutable in_pos : int; (* consumed prefix of [inbuf] *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable closed : bool;
}

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.sock with Unix.Unix_error _ -> ())
  end

let bytes_in t = t.bytes_in
let bytes_out t = t.bytes_out

let wait_readable t =
  match Unix.select [ t.sock ] [] [] t.timeout with
  | [], _, _ -> net_errorf "timeout after %gs waiting for the server" t.timeout
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* Read until [inbuf] holds at least [n] unconsumed bytes. *)
let fill t n =
  let buf = Bytes.create 65536 in
  while Buffer.length t.inbuf - t.in_pos < n do
    wait_readable t;
    match Unix.read t.sock buf 0 (Bytes.length buf) with
    | 0 -> net_errorf "connection closed by server mid-message"
    | got ->
      Buffer.add_subbytes t.inbuf buf 0 got;
      t.bytes_in <- t.bytes_in + got
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
      net_errorf "connection reset by server"
  done

let compact t =
  if t.in_pos > 0 && t.in_pos = Buffer.length t.inbuf then begin
    Buffer.clear t.inbuf;
    t.in_pos <- 0
  end
  else if t.in_pos > 65536 then begin
    let rest =
      Buffer.sub t.inbuf t.in_pos (Buffer.length t.inbuf - t.in_pos)
    in
    Buffer.clear t.inbuf;
    Buffer.add_string t.inbuf rest;
    t.in_pos <- 0
  end

let take t n =
  fill t n;
  let s = Buffer.sub t.inbuf t.in_pos n in
  t.in_pos <- t.in_pos + n;
  compact t;
  s

let next_frame t =
  let rec go () =
    let s = Buffer.contents t.inbuf in
    match
      Frame.scan_frame ~max_len:Wire.max_frame_payload s ~pos:t.in_pos
        ~len:(String.length s - t.in_pos)
    with
    | Frame.Frame { payload; consumed } ->
      t.in_pos <- t.in_pos + consumed;
      compact t;
      payload
    | Frame.Incomplete ->
      fill t (Buffer.length t.inbuf - t.in_pos + 1);
      go ()
  in
  go ()

let write_all t s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring t.sock s !off (len - !off) with
    | n ->
      off := !off + n;
      t.bytes_out <- t.bytes_out + n
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      (* the socket's SO_SNDTIMEO expired with the peer not reading *)
      net_errorf "timeout after %gs writing to the server" t.timeout
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
      net_errorf "connection reset by server"
  done

let connect_once ~timeout addr =
  let sock = Addr.socket_for addr in
  match
    Unix.connect sock (Addr.to_sockaddr addr);
    Unix.setsockopt_float sock SO_SNDTIMEO timeout;
    sock
  with
  | sock ->
    let t =
      {
        sock;
        timeout;
        inbuf = Buffer.create 65536;
        in_pos = 0;
        bytes_in = 0;
        bytes_out = 0;
        closed = false;
      }
    in
    (try
       write_all t Wire.preamble;
       Wire.check_preamble (take t Wire.preamble_len)
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

let send t req = write_all t (Wire.encode_request req)
let recv t = Wire.decode_response (next_frame t)

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
