(** Exposition: render the exposed counters and latency trackers into a
    caller-supplied [Buffer.t] as Prometheus text.

    Families render in {!Registry.snapshot} order (sorted by family
    name), so two dumps of the same state are byte-identical and diffs
    across runs line up.

    A latency tracker with nothing recorded renders with its quantile
    samples {e absent} — no [{quantile="..."}] samples — while [_count]
    and [_sum] are always emitted.  Never [0], [NaN] or an exception:
    {!Latency.quantile}'s [None] is the only empty signal consumed. *)

val prometheus : Buffer.t -> unit
(** Prometheus text exposition format.  Each handle renders under its
    {!Registry.family}: a counter as one [counter] sample, a latency
    tracker as a [summary] family with one [{quantile="..."}] sample per
    exposed percentile plus [_sum]/[_count].  Every series is one
    process-wide family, so [quantile] is the only label ever
    rendered. *)

val phi_label : float -> string
(** Conventional percentile name: [0.5 -> "p50"], [0.99 -> "p99"],
    [0.999 -> "p999"]. *)
