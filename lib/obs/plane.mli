(** Per-domain plane slots: the foundation of contention-free telemetry.

    Every plane-backed structure (counters, gauges, latency summaries)
    keeps one padded row per {e slot}; a slot is a small integer owned by
    exactly one live domain.  Writers only ever touch their own slot's
    row, so the steady-state recording paths perform zero shared-cacheline
    writes; readers aggregate across all rows at snapshot time.

    Slots are claimed lazily on a domain's first recording operation (via
    a [Domain.DLS]-cached lookup — one array read on the hot path) and
    recycled through [Domain.at_exit] when the domain terminates, so
    short-lived pool domains (lib/par spawns them per run) never exhaust
    the slot space.  A recycled slot's rows keep their accumulated values:
    counters are cumulative sums over everything every owner ever wrote.

    When more than {!max_slots} domains are alive at once, the extra
    domains fall back to shared overflow cells; each such write is counted
    by the [obs.plane_collisions] witness counter (see {!Metric}), which
    stays flat whenever the per-domain fast path is actually taken. *)

val max_slots : int
(** Number of per-domain slots (16).  Index range of every plane's row
    array; overflow writers use index [-1]. *)

val slot : unit -> int
(** This domain's slot in [0 .. max_slots - 1], or [-1] when all slots
    were taken by other live domains (overflow).  First call on a domain
    claims a slot; subsequent calls are one domain-local array read. *)
