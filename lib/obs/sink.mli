(** Exposition: render the current registry contents (counters and
    gauges) and the latency trackers into a caller-supplied [Buffer.t]
    as Prometheus text.

    Series render in {!Registry.snapshot} order followed by
    {!Latency.snapshot} order, so two dumps of the same state are
    byte-identical and diffs across runs line up.

    A latency tracker with nothing recorded renders with its quantile
    samples {e absent} — no [{quantile="..."}] samples — while [_count]
    and [_sum] are always emitted.  Never [0], [NaN] or an exception:
    {!Latency.quantile}'s [None] is the only empty signal consumed. *)

val prometheus : Buffer.t -> unit
(** Prometheus text exposition format.  Dots in registry names become
    underscores, counter families get a [_total] suffix, and latency
    trackers emit [summary] families: one [{quantile="..."}] sample per
    exposed percentile plus [_sum]/[_count].  Every series is one
    process-wide family, so [quantile] is the only label ever
    rendered. *)

val prom_name : string -> string
(** The name sanitisation used by {!prometheus} (dots to underscores). *)

val phi_label : float -> string
(** Conventional percentile name: [0.5 -> "p50"], [0.99 -> "p99"],
    [0.999 -> "p999"]. *)
