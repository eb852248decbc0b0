(** The [shist serve] and [shist aggregate] runners.

    [serve] sets up a {!Sh_par.Shard_engine} (fresh or restored from a
    checkpoint) over a domain pool, then either generates its own
    {!Traffic} in process or serves the wire protocol on [listen] until a
    client sends shutdown.  Both modes end with one report on stdout:
    [checkpoint:], [serve:], [pinned:], [queries:], the elapsed time and
    throughput, and the latency quantiles.  The in-process mode adds its
    per-key [key …:] lines and a [total:] line.

    Run durations read {!Sh_net.Clock.now}; the latency trackers are
    switched on and timed with the same clock. *)

module Addr := Sh_net.Addr

type config = {
  shards : int;  (** keys of a fresh engine *)
  domains : int;  (** pool size; 1 runs every shard inline *)
  count : int;  (** in-process: points to generate *)
  batch : int;  (** in-process: arrivals per ingest batch (>= 1) *)
  window : int;
  buckets : int;
  epsilon : float;
  policy : Stream_histogram.Params.refresh_policy;  (** not [Lazy] when listening *)
  dist : Traffic.dist;  (** in-process: the key chooser *)
  seed : int;
  checkpoint : string option;
      (** written at the end of the run (in-process mode refreshes every shard first) *)
  checkpoint_every : int option;  (** also every k batches (ingest rounds when listening) *)
  restore : string option;  (** start from this checkpoint; geometry flags are ignored *)
  record : string option;  (** in-process only: {!Recorder} output *)
  record_every : int;  (** in-process: sample every k batches (>= 1) *)
  query_mix : float;  (** in-process only: reader-domain queries per ingested point *)
  listen : Addr.t list;  (** non-empty: serve the wire protocol instead of generating *)
  max_points : int option;  (** listening: stop after this many acked points *)
  idle_timeout : float;  (** listening: the slow-loris reaper's limit, seconds *)
}

val check : config -> unit
(** Raises [Invalid_argument], naming the flag, on a bad [domains],
    [batch], [record_every], [query_mix] or [checkpoint_every], on a bad
    [shards], [window], [buckets] or [epsilon] unless restoring, and on
    a non-empty [listen] with the [Lazy] policy (no view would ever be
    published for clients to read), a [record] file or a positive
    [query_mix] (both drive the in-process stream only). *)

val serve : config -> unit
(** Runs {!check} first, so it raises before any work or binding. *)

val aggregate :
  leaves:Addr.t list -> listen:Addr.t list -> timeout:float -> idle_timeout:float -> unit
(** Serve an {!Sh_agg.Aggregator} over [leaves] on [listen] until a client
    sends shutdown, then print its report. *)
