(** The binary wire protocol: message types and their frame codec.

    A connection opens with a fixed 5-byte preamble in each direction
    ({!preamble}: magic ["SHNW"] + one version byte), then carries a
    sequence of {!Sh_persist.Frame} frames — the same length-prefixed,
    CRC-32-guarded layout as the snapshot files, so the persistence
    layer's incremental scanner ({!Sh_persist.Frame.scan_frame}) is the
    socket decoder.  Each frame wraps exactly one message: a one-byte tag
    followed by {!Sh_persist.Codec} primitives.  See DESIGN.md section 15
    for the grammar and the version-bump policy (shared with the snapshot
    codec: any layout change bumps the preamble's version byte, peers reject
    foreign versions with a typed error).  Version 2 added scoped queries
    ({!Stream_histogram.Query_op.scope}) and partial answers — the
    aggregation-plane vocabulary.  Version 3 drops v2's [Snapshot]
    request and reply: an aggregator answers [Global] from its leaves'
    per-key answers and never needs a leaf's engine state.  Version 4
    drops [lock_ops] and [query_lock_ops] from {!stats}: no engine
    counted either since the last lock left the engine.

    Every decoding failure raises {!Sh_persist.Codec.Corrupt} (or
    [Version_mismatch] for a foreign preamble) — the typed errors the
    server answers with an error frame and a closed connection, never a
    crash. *)

module Q := Stream_histogram.Query_op

val magic : string
(** ["SHNW"] — stream-histogram network wire. *)

val preamble : string
(** The 5 bytes each side must send first. *)

val preamble_len : int

val check_preamble : string -> unit
(** Validate a received preamble.  Raises {!Sh_persist.Codec.Corrupt} on a
    bad magic or length, {!Sh_persist.Codec.Version_mismatch} on a foreign
    version byte. *)

val max_frame_payload : int
(** Upper bound (16 MiB) every peer imposes on a declared frame payload
    length; a larger length prefix is rejected as {!Sh_persist.Codec.Corrupt}
    before any buffering happens. *)

(** {2 Messages} *)

type request =
  | Ingest of (int * float array) array
      (** Batched arrivals as [(key, values)] runs — decoded straight into
          {!Sh_par.Shard_engine.ingest_groups} without per-point pairs.
          Values must be finite (enforced at decode time). *)
  | Query of (Q.scope * Q.t) array
      (** Batched scoped estimation queries, answered positionally with
          one float each ({!Stream_histogram.Query_op}'s clamping
          contract; a [Global] scope folds over every key behind the
          answering peer). *)
  | Stats  (** Engine geometry + cumulative counters. *)
  | Metrics  (** Prometheus text exposition of the metric registry. *)
  | Checkpoint  (** Write the server's configured checkpoint file now. *)
  | Ping
  | Shutdown  (** Ask the server to flush, close and exit its serve loop. *)

type stats = {
  shards : int;
  window : int;
  buckets : int;
  total_points : int;
  batches : int;
  queries : int;
  backpressure_waits : int;
      (** Always [0]: the engine applies every batch whole, so there is
          nothing to count.  Kept so the stats format, and older peers,
          decode unchanged. *)
  snapshots_published : int;
}

type response =
  | Ack of int  (** Ingest applied; the count of points now in the engine. *)
  | Answers of float array
  | Answers_partial of { answers : float array; leaves_missing : int }
      (** An aggregator's degraded reply: positional answers computed from
          the leaves that responded, plus how many leaves were
          unreachable.  Never sent with [leaves_missing = 0]. *)
  | Stats_reply of stats
  | Metrics_reply of string
  | Checkpointed of string  (** The path the checkpoint was published to. *)
  | Pong
  | Shutting_down
  | Error_reply of string
      (** Semantic rejection (bad key, no checkpoint configured) or the last frame before the server
          closes a misbehaving connection. *)

val points_in_groups : (int * float array) array -> int

(** {2 Ingest batches}

    The serve loop decodes every ingest request of a round straight into
    one reusable column batch: row [i] is the point [values.(i)] for key
    [keys.(i)], in arrival order, and request [j] owns the next
    [counts.(j)] rows.  Nothing per point is allocated once the columns
    have grown to the largest round. *)

module Batch : sig
  type t = private {
    mutable keys : int array;  (** rows [\[0, points)] are live *)
    mutable values : float array;
    mutable points : int;
    mutable counts : int array;  (** rows per request; [\[0, requests)] live *)
    mutable requests : int;
  }

  val create : unit -> t

  val clear : t -> unit
  (** Empty the batch, keeping its columns for the next round. *)
end

(** {2 Codec}

    [encode_*] return one complete wire frame (ready to write to the
    socket); [decode_*] consume a frame payload reader as returned by
    {!Sh_persist.Frame.scan_frame} and verify it is exactly one message. *)

val encode_request : request -> string
val decode_request : Sh_persist.Codec.reader -> request
(** An [Ingest] payload goes through the same validator as
    {!decode_request_into}'s: group count and run lengths bounded by the
    bytes left, every value finite, no trailing bytes. *)

type decoded =
  | Ingested  (** an ingest request, appended to the batch as its last request *)
  | Bad_key
      (** an ingest request naming a key outside [\[0, shards)]: well
          formed, but nothing was appended *)
  | Request of request  (** any other request (never [Ingest]) *)

val decode_request_into :
  Batch.t -> shards:int -> Sh_persist.Codec.reader -> decoded
(** {!decode_request}, with an ingest request's rows appended to the batch
    instead of returned.  A payload that fails validation raises
    {!Sh_persist.Codec.Corrupt} with its rows already rolled back, so the
    batch holds exactly the requests decoded before it. *)

val encode_response : response -> string

val add_response : Buffer.t -> response -> unit
(** Append the response's payload (no framing) — what {!encode_response}
    frames; the serve loop frames it in place
    ({!Sh_persist.Frame.blit_frame}). *)

val decode_response : Sh_persist.Codec.reader -> response
