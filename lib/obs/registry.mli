(** The exposition table: the counters and latency trackers a process
    exports, one per Prometheus family.

    Handles are built free-standing ({!Metric.counter},
    {!Latency.tracker}) and held at module level, so the hot paths record
    through them with no lookup.  A structure hands its module's handles
    to {!expose} when it is built (or, for a family only one operation
    moves, when that operation runs), so a process exports exactly the
    families its own structures can move.  The series count is fixed by
    the modules whose structures a process builds, never by how many of
    them it builds. *)

type handle = Counter of Metric.counter | Tracker of Latency.t

val name : handle -> string

val family : handle -> string
(** The Prometheus family the handle renders as: dots become underscores,
    and a counter's family ends in [_total] (added unless the name
    already ends so). *)

val expose : handle list -> unit
(** Add each handle to the table.  Idempotent: exposing a handle again
    is a no-op.  Raises [Invalid_argument] when the handle's family is
    already taken by a different handle ([a.b] and [a_b], [x] and
    [x_total]), since the two would render as one series name. *)

val snapshot : unit -> handle list
(** The exposed handles sorted by family — the order the exposition
    uses.  The handles are live, not copies. *)

val reset : unit -> unit
(** Zero every exposed counter and forget every exposed tracker's
    durations; the table is kept.  Structure state is never a handle's
    value, so a reset changes no answer, checkpoint or [work_counters]
    reading. *)

val clear : unit -> unit
(** Empty the table.  Handles keep counting and are exported again the
    next time a structure exposes them; for test isolation. *)
