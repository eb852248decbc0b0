module Codec = Sh_persist.Codec
module Frame = Sh_persist.Frame

let chunk = 64 * 1024

type t = {
  sock : Unix.file_descr;
  mutable inbuf : bytes;
  mutable in_start : int; (* first live byte *)
  mutable in_len : int; (* live bytes from in_start *)
  mutable content_gen : int; (* bumped when buffer bytes move or grow *)
  mutable cache : string; (* snapshot of the live region, for scanning *)
  mutable cache_gen : int; (* content_gen the snapshot was taken at *)
  mutable cache_start : int; (* in_start the snapshot was taken at *)
  outq : string Queue.t;
  mutable out_off : int; (* bytes of the queue head already written *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable last_activity : float;
  mutable closed : bool;
}

let create sock =
  Unix.set_nonblock sock;
  {
    sock;
    inbuf = Bytes.create chunk;
    in_start = 0;
    in_len = 0;
    content_gen = 0;
    cache = "";
    cache_gen = -1;
    cache_start = 0;
    outq = Queue.create ();
    out_off = 0;
    bytes_in = 0;
    bytes_out = 0;
    last_activity = Clock.now ();
    closed = false;
  }

let fd t = t.sock
let buffered t = t.in_len
let bytes_in t = t.bytes_in
let bytes_out t = t.bytes_out
let touch t = t.last_activity <- Clock.now ()
let idle_for t = Clock.now () -. t.last_activity

let closed t = t.closed

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.sock with Unix.Unix_error _ -> ())
  end

(* Make room for at least [n] more input bytes: slide the live region to
   the front, doubling the buffer if it is simply too small. *)
let reserve t n =
  let cap = Bytes.length t.inbuf in
  if t.in_start + t.in_len + n > cap then begin
    if t.in_len + n > cap then begin
      let cap' = max (cap * 2) (t.in_len + n) in
      let b = Bytes.create cap' in
      Bytes.blit t.inbuf t.in_start b 0 t.in_len;
      t.inbuf <- b
    end
    else Bytes.blit t.inbuf t.in_start t.inbuf 0 t.in_len;
    t.in_start <- 0;
    t.content_gen <- t.content_gen + 1
  end

let read_into t =
  if t.closed then `Eof
  else begin
    reserve t chunk;
    match Unix.read t.sock t.inbuf (t.in_start + t.in_len) chunk with
    | 0 -> `Eof
    | n ->
      t.in_len <- t.in_len + n;
      t.content_gen <- t.content_gen + 1;
      t.bytes_in <- t.bytes_in + n;
      touch t;
      `Data n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      `Again
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> `Eof
  end

(* The live region as [(snapshot, offset)]: the snapshot string holds the
   region as of the last content change, and consuming frames only moves
   the offset, so draining a buffer of many frames copies its bytes once,
   not once per frame. *)
let live t =
  if t.cache_gen <> t.content_gen then begin
    t.cache <- Bytes.sub_string t.inbuf t.in_start t.in_len;
    t.cache_gen <- t.content_gen;
    t.cache_start <- t.in_start
  end;
  (t.cache, t.in_start - t.cache_start)

let consume t n =
  if n < 0 || n > t.in_len then invalid_arg "Conn.consume";
  t.in_start <- t.in_start + n;
  t.in_len <- t.in_len - n;
  if t.in_len = 0 then begin
    (* Restart at the buffer front; the stale snapshot mapping is fine
       because [live] is never consulted on an empty buffer, and the next
       read bumps [content_gen]. *)
    t.in_start <- 0;
    t.content_gen <- t.content_gen + 1
  end

let peek t n =
  if t.in_len < n then None
  else Some (Bytes.sub_string t.inbuf t.in_start n)

let next_frame ?max_len t =
  if t.in_len = 0 then None
  else begin
    let s, pos = live t in
    match Frame.scan_frame ?max_len s ~pos ~len:t.in_len with
    | Frame.Incomplete -> None
    | Frame.Frame { payload; consumed } ->
      (* The payload reader aliases the immutable snapshot string, so it
         stays valid after the bytes are consumed here. *)
      consume t consumed;
      Some payload
  end

let send t frame =
  if not t.closed then Queue.push frame t.outq

let pending_out t = not (Queue.is_empty t.outq)

let rec flush t =
  if t.closed then `Closed
  else
    match Queue.peek_opt t.outq with
    | None -> `Flushed
    | Some s -> (
      let len = String.length s - t.out_off in
      match Unix.write_substring t.sock s t.out_off len with
      | n ->
        t.bytes_out <- t.bytes_out + n;
        touch t;
        if n = len then begin
          ignore (Queue.pop t.outq);
          t.out_off <- 0;
          flush t
        end
        else begin
          t.out_off <- t.out_off + n;
          `Blocked
        end
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        `Blocked
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> `Closed)
