(** One buffered, non-blocking connection: byte buffers on both sides of a
    socket, with incremental frame extraction on the read side.

    The read path accumulates whatever [read] returns and hands out complete
    frames via {!next_frame} ({!Sh_persist.Frame.scan_frame} under the hood),
    so a frame split across any number of TCP segments — or trickled in a
    byte at a time by a slow-loris client — is reassembled without blocking
    the serve loop.  The write path queues whole encoded frames and drains
    them as the socket accepts bytes; {!flush} never blocks. *)

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

val next_frame : ?max_len:int -> t -> Sh_persist.Codec.reader option
(** Extract the next complete frame, consuming its bytes. [None] when the
    buffer holds only a partial frame.  Raises {!Sh_persist.Codec.Corrupt}
    on a CRC mismatch, malformed length or a payload longer than
    [max_len]. *)

val send : t -> string -> unit
(** Queue an encoded frame (or preamble) for writing. *)

val pending_out : t -> bool

val flush : t -> [ `Flushed | `Blocked | `Closed ]
(** Write queued bytes until done or the socket blocks. [`Closed] when the
    peer is gone ([EPIPE]/[ECONNRESET]). *)

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
