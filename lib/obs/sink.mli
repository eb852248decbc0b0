(** Exposition sinks: render the current registry contents (counters and
    gauges) and the latency trackers into a caller-supplied [Buffer.t].

    All sinks render series in {!Registry.snapshot} order followed by
    {!Latency.snapshot} order, so two dumps of the same state are
    byte-identical and diffs across runs line up.

    Zero-sample latency trackers (nothing recorded, or every sample aged
    out of the batch window) render with quantiles {e absent} in every
    format — no [p..=] fields in {!text}, an empty [quantiles] object in
    {!json_lines}, no [{quantile="..."}] samples in {!prometheus} — while
    [count] and [sum] are always emitted.  Never [0], [NaN] or an
    exception: {!Latency.quantile}'s [None] is the only empty signal the
    sinks consume. *)

val text : Buffer.t -> unit
(** Aligned human-readable dump: counters, gauges, latency quantiles. *)

val json_lines : Buffer.t -> unit
(** One JSON object per line per series.  Counters/gauges carry [value];
    latency trackers carry [type:"summary"] with [count], [sum] and a
    [quantiles] object keyed by phi. *)

val prometheus : Buffer.t -> unit
(** Prometheus text exposition format.  Dots in registry names become
    underscores, counter families get a [_total] suffix, and latency
    trackers emit [summary] families: one [{quantile="..."}] sample per
    exposed percentile plus [_sum]/[_count]. *)

val prom_name : string -> string
(** The name sanitisation used by {!prometheus} (dots to underscores). *)

val phi_label : float -> string
(** Conventional percentile label: [0.5 -> "p50"], [0.99 -> "p99"],
    [0.999 -> "p999"]. *)
