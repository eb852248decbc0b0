(** Global metric registry: get-or-create of named metric series.

    A series is identified by a metric name plus a label set (e.g.
    [("instance", "fw0")]); labels are canonically sorted on registration
    so label order never distinguishes series.  Registration costs one
    hashtable lookup and happens at structure-creation time; the returned
    handles are then recorded through directly ({!Metric}), keeping the
    hot paths O(1) with no lookups. *)

type metric = Counter of Metric.counter | Gauge of Metric.gauge

val counter : ?labels:Metric.labels -> string -> Metric.counter
(** Get-or-create.  Raises [Invalid_argument] when the name is malformed
    (allowed: [[a-zA-Z0-9_.]], starting with a letter) or the series
    exists with a different type. *)

val gauge : ?labels:Metric.labels -> string -> Metric.gauge

val validate_name : string -> unit
(** Raises [Invalid_argument] unless the name is non-empty, uses only
    [[a-zA-Z0-9_.]] and starts with a letter or [_].  {!Latency.tracker}
    applies the same rule. *)

val canonical : Metric.labels -> Metric.labels
(** Labels in the canonical (sorted) order series are registered under. *)

val key : string -> Metric.labels -> string
(** The table key of a (name, canonical labels) series; distinct label
    sets never collide.  {!Latency} keys its trackers the same way. *)

val find : ?labels:Metric.labels -> string -> metric option

val iter : (metric -> unit) -> unit
(** Unordered iteration over all registered series. *)

val snapshot : unit -> metric list
(** All series sorted by (name, labels) — the stable order used by every
    sink.  The returned metrics are live handles, not copies. *)

val metric_name : metric -> string
val metric_labels : metric -> Metric.labels

val series_count : unit -> int

val reset : unit -> unit
(** Zero every value; registrations (and handles held by structures)
    survive.  Note this also zeroes the work-accounting counters backing
    e.g. [Fixed_window.work_counters]. *)

val clear : unit -> unit
(** Drop all registrations.  Handles already held by live structures keep
    counting but are no longer exported; intended for test isolation. *)
