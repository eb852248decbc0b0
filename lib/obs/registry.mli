(** Global metric registry: get-or-create of named metric series.

    A series is identified by its metric name alone: one series per
    family, a process-wide total.  Instrumented modules register their
    families once, at module initialisation (or server start), and then
    record through the returned handles directly ({!Metric}), keeping
    the hot paths O(1) with no lookups.  The series count is therefore
    fixed by the code linked into the process, never by how many
    structures it creates. *)

type metric = Counter of Metric.counter | Gauge of Metric.gauge

val counter : string -> Metric.counter
(** Get-or-create.  Raises [Invalid_argument] when the name is malformed
    (allowed: [[a-zA-Z0-9_.]], starting with a letter) or the series
    exists with a different type. *)

val gauge : string -> Metric.gauge

val validate_name : string -> unit
(** Raises [Invalid_argument] unless the name is non-empty, uses only
    [[a-zA-Z0-9_.]] and starts with a letter or [_].  {!Latency.tracker}
    applies the same rule. *)

val snapshot : unit -> metric list
(** All series sorted by name — the stable order the exposition uses.
    The returned metrics are live handles, not copies. *)

val metric_name : metric -> string

val series_count : unit -> int

val reset : unit -> unit
(** Zero every value; registrations (and the handles modules hold)
    survive.  Structure state is never a registry value, so a reset
    changes no answer, checkpoint or [work_counters] reading. *)

val clear : unit -> unit
(** Drop all registrations.  Handles already held by modules keep
    counting but are no longer exported; intended for test isolation. *)
