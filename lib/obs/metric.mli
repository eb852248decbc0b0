(** Metric counters: named monotone counts, one atomic cell each.

    A counter is built free-standing by {!counter} and is exported only
    once the structure that moves it hands it to {!Registry.expose}.  It
    is an [int Atomic.t] bumped with [fetch_and_add], so every read is
    exact: no increment is ever lost, from any number of domains.

    One shared cell is enough because no hot path records per point: a
    kernel tallies in plain int fields of its own scratch and adds them
    here once per entry point (see [Fixed_window]'s flush).

    Counters have no on/off switch, so a series counts from process
    start.  They are process-wide sums for the exposition; a structure
    that reports its own work keeps the counts in its own fields, which
    {!Registry.reset} never touches.  Durations are not metrics; they
    live in {!Latency} trackers. *)

type counter

val validate_name : string -> unit
(** Raises [Invalid_argument] unless the name is non-empty, uses only
    [[a-zA-Z0-9_.]] and starts with a letter or [_].  {!Latency.tracker}
    applies the same rule. *)

val counter : string -> counter
(** A fresh counter at 0.  Raises [Invalid_argument] on a malformed name
    ({!validate_name}).  Two calls make two counters: a module builds
    each of its counters once, at module level. *)

val name : counter -> string
val incr : counter -> unit

val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment. *)

val value : counter -> int

val reset : counter -> unit
(** Zero the count; used by {!Registry.reset}. *)
