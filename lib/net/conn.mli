(** One buffered, non-blocking connection: byte buffers on both sides of a
    socket, with incremental frame extraction on the read side.  Both ends
    of the wire use it: the serve loop multiplexes many, and
    {!Client} wraps one in blocking [select] waits.

    The read path accumulates whatever [read] returns and hands out complete
    frames via {!next_frame}, scanned in place in the input buffer
    ({!Sh_persist.Frame.scan_bytes}): no copy of the buffered bytes is
    ever made.  A frame split across any number of TCP segments — or
    trickled in a byte at a time by a slow-loris client — is reassembled
    without blocking the serve loop.  The write path frames responses
    straight into one output buffer and drains it with one [write] per
    {!flush}, as far as the socket accepts; {!flush} never blocks.  Both
    buffers start at 64 KiB and neither shrinks.  A read takes at most
    64 KiB, into the room left once the live bytes slide to the front, so
    the input buffer doubles only when unconsumed bytes fill it: a frame
    larger than the buffer.  The output buffer slides or doubles to fit
    what is queued. *)

type t

val create : Unix.file_descr -> t
(** Takes ownership of [fd] and switches it to non-blocking mode. *)

val fd : t -> Unix.file_descr

val read_into : t -> [ `Data of int | `Eof | `Again ]
(** Pull once from the socket into the input buffer. [`Again] means the
    socket had nothing right now ([EAGAIN]/[EINTR]); [`Eof] covers both an
    orderly shutdown and a connection reset. *)

val buffered : t -> int
(** Bytes sitting in the input buffer not yet consumed. *)

val peek : t -> int -> string option
(** [peek t n] is the first [n] buffered bytes, without consuming them;
    [None] if fewer than [n] are buffered. *)

val consume : t -> int -> unit
(** Drop the first [n] buffered bytes (e.g. a validated preamble). *)

val next_frame : max_len:int -> t -> Sh_persist.Codec.reader option
(** Extract the next complete frame, consuming its bytes. [None] when the
    buffer holds only a partial frame.  Raises {!Sh_persist.Codec.Corrupt}
    on a CRC mismatch, malformed length or a payload longer than
    [max_len].

    The payload reader reads the input buffer itself, and the next
    {!read_into} may move or overwrite those bytes: decode the payload
    before reading again, and keep nothing that aliases it. *)

val send : t -> string -> unit
(** Queue raw bytes (the preamble, or an encoded frame) for writing. *)

val send_frame : t -> Buffer.t -> unit
(** Queue the frame wrapping the buffer's contents (a message payload),
    framed and CRC'd straight into the output buffer. *)

val pending_out : t -> bool

val flush : t -> [ `Flushed | `Blocked | `Closed ]
(** One [write] of everything queued: [`Flushed] if the socket took it
    all, [`Blocked] if it took part or none.  [`Closed] when the peer is
    gone ([EPIPE]/[ECONNRESET]). *)

val bytes_in : t -> int
val bytes_out : t -> int

val touch : t -> unit
(** Record activity now (see {!idle_for}). *)

val idle_for : t -> float
(** Seconds since the last {!touch} / successful read or write, on the
    monotonic {!Clock}, so a wall-clock step neither keeps a stalled
    connection alive nor reaps a healthy one. *)

val close : t -> unit
(** Close the socket; idempotent. *)

val closed : t -> bool
