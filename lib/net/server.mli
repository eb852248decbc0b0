(** The serve loop: a single-threaded, [select]-driven event loop that
    serves any number of client connections on behalf of one {!backend}.
    A leaf's backend is its {!Sh_par.Shard_engine} ({!engine}); an
    aggregating root's forwards to its leaves
    ([Sh_agg.Aggregator.backend]).  Both speak the same protocol through
    this one loop, so transport behaviour and [net.*] telemetry are the
    same at every tier.

    Single-threaded is not a simplification here — it is the concurrency
    model the engine demands: ingest is single-producer, so the loop {e is}
    the producer, and the wire protocol's batching becomes the backend's
    batching.  Each iteration drains every readable socket, decodes the
    complete frames each connection has buffered — in place in the
    connection's input buffer, every ingest request's points appended to
    one reusable column batch ({!Wire.Batch}) — hands {e all}
    connections' ingest requests to one [backend.ingest] call (capped at
    65536 points per iteration), and only then encodes each
    connection's responses, in its request order, straight into its
    output buffer, which one [write] per iteration drains.  An [Ack] is
    therefore a durability-in-window statement: the points it covers are
    in the backend before the ack bytes exist.  Once the batch's columns
    have grown to the largest round, nothing on the ingest path is
    allocated per point.

    Backpressure is propagated, not absorbed: an iteration applies at
    most 65536 points (frames past that budget wait in their
    connection's buffer for the next iteration), and any connection
    holding more than {!read_watermark} undecoded bytes is excluded from
    the read set until it drains — kernel socket buffers fill and the TCP
    window closes back to the sender.  The one exception is a buffer the
    last decode found to be a single incomplete frame whose declared
    length passed the {!Wire.max_frame_payload} check: it keeps reading
    until that frame is whole, since nothing else can drain it.  Nothing
    acknowledged is ever dropped; no connection buffers more than
    [max read_watermark Wire.max_frame_payload] plus framing and one
    64 KiB read.

    Malformed input (bad magic, foreign version, CRC mismatch, oversized
    length prefix, non-finite value, trailing bytes) earns the connection
    a final [Error_reply] and a close: the reply follows the replies to
    every request decoded before the bad frame, and a half-decoded
    ingest request's points are dropped from the batch; a connection that trickles a partial frame
    and then stalls is reaped after [idle_timeout].  Either way the loop
    and the other connections are unaffected.  A semantically bad request
    (a key outside [\[0, backend.shards)], a [Checkpoint] the backend
    cannot serve) earns an [Error_reply] and the connection stays open. *)

module SE := Sh_par.Shard_engine
module Q := Stream_histogram.Query_op

type config = {
  idle_timeout : float;  (** seconds before a half-frame conn is reaped *)
  checkpoint : string option;  (** path served to [Checkpoint] requests *)
  checkpoint_every : int option;  (** also checkpoint every k ingest rounds *)
}

val default_config : config
(** 30 s idle timeout, no checkpoint. *)

val read_watermark : int
(** Undecoded bytes buffered per connection before it stops being read,
    unless they are one incomplete frame (1 MiB; see above).  Exported
    for test_net's "frame above read watermark acked", which builds a
    frame just past it. *)

type backend = {
  shards : int;  (** keys are [\[0, shards)]; others are refused *)
  ingest : Wire.Batch.t -> int array;
      (** Called once per iteration that decoded an ingest request, with
          the round's batch: every such request's rows, in arrival order
          across connections.  Returns each request's ack.  The batch is
          reused by the next iteration, so the backend keeps nothing
          that aliases it. *)
  query : (Q.scope * Q.t) array -> float array * int;
      (** Positional answers and the number of leaves that could not
          contribute: [0] sends [Answers], more sends [Answers_partial]. *)
  stats : unit -> Wire.stats;
  checkpoint : (string -> unit) option;
      (** Write state to the given path; [None]: the backend holds no
          state, and [Checkpoint] is refused. *)
}

val engine : SE.t -> backend
(** The leaf: the round's batch goes to the engine in one
    {!SE.ingest_columns} call (so ingest order matches arrival order),
    each request is acked with its point count, and queries answer
    through {!SE.query_many}.  Its [Stats] report
    [backpressure_waits = 0]. *)

type report = {
  connections : int;  (** accepted over the run *)
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  points : int;  (** the sum of every [Ack] sent *)
  ingest_rounds : int;  (** [backend.ingest] calls *)
  queries_served : int;  (** individual query elements answered *)
  partial_replies : int;  (** [Answers_partial] frames sent *)
  protocol_errors : int;
  idle_closes : int;
  checkpoints_written : int;
}

val listen : Addr.t -> Unix.file_descr
(** Bind + listen (backlog 64) a non-blocking listener.  A Unix-socket
    path is unlinked first if present, so restarts rebind cleanly. *)

val run :
  ?config:config ->
  ?stop:(unit -> bool) ->
  ?max_points:int ->
  backend:backend ->
  listeners:Unix.file_descr list ->
  unit ->
  report
(** Serve until a client sends [Shutdown] (the loop then drains and closes
    every connection), [stop ()] turns true, or [max_points] have been
    acked over the wire.  Closes the accepted connections but leaves the
    listener fds to the caller.  [SIGPIPE] is ignored for the process.
    Raises [Invalid_argument] unless [config.idle_timeout] is finite and
    > 0. *)
