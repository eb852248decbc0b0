(** Metric primitives: named counters and gauges, one atomic cell each.

    Values are created through {!Registry} (get-or-create by name).  A
    counter is an [int Atomic.t] bumped with [fetch_and_add]; a gauge is
    a [float Atomic.t] that [set] overwrites and [gadd] updates with a
    compare-and-set loop.  Every read is exact: no write is ever lost,
    from any number of domains.

    One shared cell is enough because no hot path records per point: a
    kernel tallies in plain int fields of its own scratch and adds them
    here once per entry point (see [Fixed_window]'s flush).

    Counters and gauges have no on/off switch, so a series counts from
    process start.  They are process-wide sums for the exposition; a
    structure that reports its own work keeps the counts in its own
    fields, which {!Registry.reset} never touches.  Durations are not
    metrics; they live in {!Latency} trackers. *)

type counter = {
  c_name : string;
  c_cell : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_cell : float Atomic.t;
}

(** {2 Counters} — monotone non-negative int *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment. *)

val value : counter -> int

(** {2 Gauges} — arbitrary float *)

val set : gauge -> float -> unit
(** {!gvalue} reads exactly the given value until the next write. *)

val gadd : gauge -> float -> unit
val gincr : gauge -> unit
val gvalue : gauge -> float

(** {2 Reset} — used by {!Registry.reset} *)

val reset_counter : counter -> unit
val reset_gauge : gauge -> unit
