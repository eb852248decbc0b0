(** Telemetry facade: metric registry, latency switch, exposition.

    Instrumented modules register one series per metric family at module
    initialisation ({!counter} / {!gauge} are get-or-create) and then
    record through the returned {!Metric} handles — one atomic update,
    with no name lookup.  A family is a process-wide total: a structure
    never registers series of its own, so the exposition's size does not
    grow with the number of structures (keys, shards, leaves) a process
    creates.

    {b Who owns a count.}  A structure whose API reports its own work
    ([Fixed_window.work_counters], [Shard_engine.total_points], the
    engine's checkpoint totals) keeps
    those counts in its own fields and adds the same deltas to the
    families; the registry only sums them across the process.

    {b Overhead model.}  Counters and gauges are always live.
    A record is not free: under the dev profile's [-opaque] each
    {!Metric.incr} / {!Metric.add} is a real cross-module call and an
    atomic [fetch_and_add], about 5 ns against 0.8 ns for a mutable int
    field (2-vCPU Xeon, one domain, best of 5 x 50M calls).  So a hot
    kernel tallies in plain int fields of its own scratch and adds them to
    its counters once per entry point, as [Fixed_window] does per refresh
    and per live read; a scrape between calls then reads every count.
    Durations live only in {!Latency} trackers behind their own switch
    ({!set_latency_enabled}), whose disabled path is a single atomic load.
    Latency tracking starts disabled. *)

(** {2 Latency switch and clock} *)

val set_latency_enabled : bool -> unit
(** {!Latency.set_tracking}: turn duration recording on or off for every
    tracker — a GK insert per timed section while on. *)

val latency_enabled : unit -> bool

val set_clock : (unit -> float) -> unit
(** {!Latency.set_clock}: the clock trackers time with, in seconds.
    Defaults to [Sys.time] (CPU seconds).  Binaries inject a monotonic
    clock (CLOCK_MONOTONIC, e.g. [Sh_net.Clock.now]), never the wall
    clock: a wall clock can step, and a step makes a duration negative
    (dropped) or huge.  Tests inject a
    fake. *)

val now : unit -> float

(** {2 Registration} *)

val counter : string -> Metric.counter
val gauge : string -> Metric.gauge

(** {2 Exposition} *)

val render : unit -> string
(** The current registry contents and latency trackers as Prometheus
    text ({!Sink.prometheus}): the [Metrics] reply and the [--metrics]
    dump. *)

(** {2 Lifecycle} *)

val reset : unit -> unit
(** Zero all metric values and recorded durations; registrations and the
    handles modules hold survive.  Structure state is untouched: answers,
    checkpoints and per-structure counts such as
    [Fixed_window.work_counters] or [Shard_engine.total_points] read the
    same before and after. *)

val clear : unit -> unit
(** Drop all metric and tracker registrations.  Handles modules hold
    keep counting but are no longer exported; for test isolation. *)
