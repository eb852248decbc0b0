(** The serve loop: a single-threaded, [select]-driven event loop that owns
    one {!Sh_par.Shard_engine} and any number of client connections.

    Single-threaded is not a simplification here — it is the concurrency
    model the engine demands: ingest is single-producer, so the loop {e is}
    the producer, and the wire protocol's batching becomes the engine's
    batching.  Each iteration drains every readable socket, decodes the
    complete frames each connection has buffered, coalesces {e all}
    connections' ingest groups into one {!Sh_par.Shard_engine.ingest_groups}
    call (capped at [max_coalesce_points] per iteration), and only then
    queues each connection's responses in its request order.  An [Ack] is
    therefore a durability-in-window statement: the points it covers are in
    the engine before the ack bytes exist.

    Backpressure is propagated, not absorbed: when an ingest round reports
    new [engine.backpressure_waits], the next iteration reads from no
    socket (one stall, counted), and any connection holding more than
    [read_watermark] undecoded bytes is excluded from the read set until it
    drains — kernel socket buffers fill and the TCP window closes back to
    the sender.  The one exception is a buffer the last decode found to be
    a single incomplete frame whose declared length passed the
    [max_frame_payload] check: it keeps reading until that frame is whole,
    since nothing else can drain it.  Nothing acknowledged is ever dropped;
    no connection buffers more than [max read_watermark max_frame_payload]
    plus framing and one 64 KiB read.

    Malformed input (bad magic, foreign version, CRC mismatch, oversized
    length prefix, trailing bytes) earns the connection a final
    [Error_reply] and a close; a connection that trickles a partial frame
    and then stalls is reaped after [idle_timeout].  Either way the loop
    and the other connections are unaffected. *)

module SE := Sh_par.Shard_engine

type config = {
  max_coalesce_points : int;  (** per-iteration ingest coalescing cap *)
  max_frame_payload : int;  (** reject larger declared payloads *)
  idle_timeout : float;  (** seconds before a half-frame conn is reaped *)
  read_watermark : int;
      (** undecoded bytes buffered per conn before it stops being read,
          unless they are one incomplete frame (see above) *)
  checkpoint : string option;  (** path served to [Checkpoint] requests *)
  checkpoint_every : int option;  (** also checkpoint every k ingest rounds *)
}

val default_config : config
(** 65536 points, {!Wire.max_frame_payload}, 30 s, 1 MiB, no checkpoint. *)

type report = {
  connections : int;  (** accepted over the run *)
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  points : int;  (** ingested (and acked) over the run *)
  ingest_rounds : int;  (** coalesced {!SE.ingest_groups} calls *)
  queries_served : int;  (** individual query elements answered *)
  protocol_errors : int;
  idle_closes : int;
  backpressure_stalls : int;
  checkpoints_written : int;
}

val listen : Addr.t -> Unix.file_descr
(** Bind + listen (backlog 64) a non-blocking listener.  A Unix-socket
    path is unlinked first if present, so restarts rebind cleanly. *)

val run :
  ?config:config ->
  ?stop:(unit -> bool) ->
  ?max_points:int ->
  engine:SE.t ->
  listeners:Unix.file_descr list ->
  unit ->
  report
(** Serve until a client sends [Shutdown] (the loop then drains and closes
    every connection), [stop ()] turns true, or [max_points] have been
    ingested over the wire.  Closes the accepted connections but leaves
    the listener fds to the caller.  [SIGPIPE] is ignored for the
    process. *)
