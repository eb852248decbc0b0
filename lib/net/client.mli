(** Blocking client for the wire protocol, with optional connect retries —
    the substrate of [shist loadgen], the network tests and the micro-net
    bench.

    A client owns one connection.  {!send} and {!recv} are split so a
    caller can pipeline: queue several requests onto the socket, then
    collect the responses in order (the server's per-connection ordering
    guarantee makes this sound).  {!call} is the one-shot convenience.

    The connection is a {!Conn.t}, the serve loop's framed buffers, with
    every wait a [select] bounded by the connect [timeout].

    Every transport-level failure — refused/absent peer after the retry
    budget, timeout, mid-frame EOF, reset — raises {!Net_error} with a
    human-readable reason.  Protocol-level garbage from the peer raises
    the usual {!Sh_persist.Codec.Corrupt} / [Version_mismatch]. *)

exception Net_error of string

type t

val connect :
  ?timeout:float ->
  ?retries:int ->
  ?retry_delay:float ->
  Addr.t ->
  t
(** Connect, send our preamble and validate the server's.  [timeout]
    (default 30 s) bounds every subsequent socket wait, reads and writes
    alike: a write to a peer that stops reading raises {!Net_error}
    once [select] has waited [timeout] seconds for room.  [retries]
    (default 0) extra attempts are made on refused / missing / reset
    peers, [retry_delay] (default 0.2 s) apart — the reconnect story for
    a server that is restarting from a checkpoint.
    Raises [Invalid_argument], before opening a socket, unless [timeout]
    is finite and > 0. *)

val send : t -> Wire.request -> unit
(** Write one request frame: blocks until the kernel has all of it, and
    raises {!Net_error} if the socket takes no bytes for [timeout]
    seconds. *)

val recv : t -> Wire.response
(** Read the next response frame, blocking up to the connect [timeout]. *)

val call : t -> Wire.request -> Wire.response
(** [send] then [recv]. *)

(** {2 Typed conveniences}

    Each performs one {!call} and unwraps the expected arm; an
    [Error_reply] raises {!Net_error}, any other mismatched response is
    protocol corruption. *)

val ingest : t -> (int * float array) array -> int
(** Returns the acked point count. *)

val query :
  t ->
  (Stream_histogram.Query_op.scope * Stream_histogram.Query_op.t) array ->
  float array
(** Strict form: an {!Wire.response.Answers_partial} degraded reply is
    protocol corruption here — use {!query_partial} when talking to an
    aggregator that may be missing leaves. *)

val query_partial :
  t ->
  (Stream_histogram.Query_op.scope * Stream_histogram.Query_op.t) array ->
  float array * int
(** Like {!query} but accepting degraded replies: returns the positional
    answers and the number of leaves the answering peer could not reach
    ([0] for a complete {!Wire.response.Answers}). *)

val stats : t -> Wire.stats
val metrics : t -> string
val checkpoint : t -> string
val ping : t -> unit
val shutdown : t -> unit

val bytes_in : t -> int
val bytes_out : t -> int

val close : t -> unit
(** Idempotent. *)
