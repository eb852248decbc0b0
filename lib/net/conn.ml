module Frame = Sh_persist.Frame

let chunk = 64 * 1024

type t = {
  sock : Unix.file_descr;
  mutable inbuf : bytes;
  mutable in_start : int; (* first live byte *)
  mutable in_len : int; (* live bytes from in_start *)
  mutable outbuf : bytes;
  mutable out_start : int; (* first unwritten byte *)
  mutable out_len : int; (* unwritten bytes from out_start *)
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
    outbuf = Bytes.create chunk;
    out_start = 0;
    out_len = 0;
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

(* Room for [n] more bytes after the live region [start, start + len) of
   [buf]: slide the region to the front, or move it into a buffer of
   twice the size if it is simply too small.  Returns the buffer to use;
   the region now starts at 0. *)
let make_room buf ~start ~len n =
  let cap = Bytes.length buf in
  if start + len + n <= cap then buf
  else if len + n > cap then begin
    let b = Bytes.create (max (cap * 2) (len + n)) in
    Bytes.blit buf start b 0 len;
    b
  end
  else begin
    Bytes.blit buf start buf 0 len;
    buf
  end

(* Moves (and may replace) the input bytes, so it runs only in [read_into]:
   a payload reader from [next_frame] stays valid until then. *)
let reserve t n =
  if t.in_start + t.in_len + n > Bytes.length t.inbuf then begin
    t.inbuf <- make_room t.inbuf ~start:t.in_start ~len:t.in_len n;
    t.in_start <- 0
  end

let read_into t =
  if t.closed then `Eof
  else begin
    (* Up to one chunk, in the room the buffer has once its live bytes
       slide to the front; it doubles only when they fill it. *)
    let cap = Bytes.length t.inbuf in
    reserve t (if t.in_len < cap then min chunk (cap - t.in_len) else chunk);
    let off = t.in_start + t.in_len in
    match Unix.read t.sock t.inbuf off (min chunk (Bytes.length t.inbuf - off)) with
    | 0 -> `Eof
    | n ->
      t.in_len <- t.in_len + n;
      t.bytes_in <- t.bytes_in + n;
      touch t;
      `Data n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      `Again
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> `Eof
  end

let consume t n =
  if n < 0 || n > t.in_len then invalid_arg "Conn.consume";
  t.in_start <- t.in_start + n;
  t.in_len <- t.in_len - n;
  if t.in_len = 0 then t.in_start <- 0

let peek t n =
  if t.in_len < n then None
  else Some (Bytes.sub_string t.inbuf t.in_start n)

let next_frame ~max_len t =
  if t.in_len = 0 then None
  else
    match Frame.scan_bytes ~max_len t.inbuf ~pos:t.in_start ~len:t.in_len with
    | Frame.Incomplete -> None
    | Frame.Frame { payload; consumed } ->
      (* Consuming moves only the offsets: the payload's bytes stay put
         until the next [read_into]. *)
      consume t consumed;
      Some payload

(* Room for [n] more output bytes, sliding or growing as the input side
   does. *)
let reserve_out t n =
  if t.out_start + t.out_len + n > Bytes.length t.outbuf then begin
    t.outbuf <- make_room t.outbuf ~start:t.out_start ~len:t.out_len n;
    t.out_start <- 0
  end

let send t s =
  if not t.closed then begin
    let n = String.length s in
    reserve_out t n;
    Bytes.blit_string s 0 t.outbuf (t.out_start + t.out_len) n;
    t.out_len <- t.out_len + n
  end

let send_frame t payload =
  if not t.closed then begin
    reserve_out t (Frame.framed_size (Buffer.length payload));
    let stop = Frame.blit_frame payload t.outbuf (t.out_start + t.out_len) in
    t.out_len <- stop - t.out_start
  end

let pending_out t = t.out_len > 0

let flush t =
  if t.closed then `Closed
  else if t.out_len = 0 then `Flushed
  else
    (* [Unix.write] keeps writing until the socket would block, so one
       call drains whatever the socket accepts. *)
    match Unix.write t.sock t.outbuf t.out_start t.out_len with
    | n ->
      t.bytes_out <- t.bytes_out + n;
      touch t;
      t.out_start <- t.out_start + n;
      t.out_len <- t.out_len - n;
      if t.out_len = 0 then begin
        t.out_start <- 0;
        `Flushed
      end
      else `Blocked
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      `Blocked
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> `Closed
