(** Self-hosted latency quantiles: duration distributions tracked in
    Greenwald-Khanna summaries ({!Sh_gk.Gk} — the same structure the
    paper uses for streaming order statistics).

    A tracker holds one all-time summary, count and sum behind its own
    mutex; {!record} and every read take it.  Reads are therefore exact
    at any moment, and a {!quantile} is one {!Sh_gk.Gk.quantile} with
    GK's own bound: the answer's rank is within [0.001 * n] of the
    target (every tracker's epsilon is 0.001).  Timed sections
    are whole batches, tasks or queries, never single points, so the
    mutex is taken a few times per batch at most.

    Trackers are the one duration mechanism in the telemetry subsystem.
    Like counters they are built free-standing and exported once handed
    to {!Registry.expose}.  They have their own switch ({!set_tracking},
    off by default): a GK insert per timed section is cheap but not
    free, while counters are always live. *)

type t

(** {2 Switch and clock} *)

val set_tracking : bool -> unit
(** Turn duration recording on or off for every tracker.  Atomic, so
    parallel domains observe a toggle without a data race. *)

val tracking : unit -> bool

val set_clock : (unit -> float) -> unit
(** Inject the clock {!time} reads, in seconds.  Defaults to [Sys.time]
    (CPU seconds); binaries should inject a monotonic clock
    (CLOCK_MONOTONIC), not the wall clock, whose steps make a duration
    negative (dropped by {!record}) or huge.  Not synchronised:
    set it at startup, before any domains are spawned. *)

val now : unit -> float

(** {2 Trackers} *)

val tracker : string -> t
(** A fresh, empty tracker.  Raises [Invalid_argument] when the name is
    malformed (the {!Metric.validate_name} rule).  Two calls make two
    trackers: a module builds each of its trackers once, at module
    level. *)

val record : t -> float -> unit
(** Record one duration in seconds.  No-op while latency tracking is
    disabled; negative and non-finite values are ignored. *)

val time : t -> (unit -> 'a) -> 'a
(** Time [f] with the {!set_clock} clock and record the elapsed seconds.
    One boolean load when disabled; exceptions propagate after the
    duration is recorded. *)

val name : t -> string

val count : t -> int
(** All-time recorded durations (the Prometheus [_count]). *)

val sum : t -> float
(** All-time summed durations in seconds (the Prometheus [_sum]). *)

val quantile : t -> float -> float option
(** The all-time quantile.  [None] when nothing is recorded; raises
    [Invalid_argument] when phi is outside [\[0, 1\]] and something is. *)

val percentiles : float list
(** The quantiles the exposition and the run reports show: 0.5, 0.9, 0.99,
    0.999. *)

val reset : t -> unit
(** Forget every recorded duration; used by {!Registry.reset}. *)
