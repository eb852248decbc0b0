(** Metric primitives: named counters and gauges, backed by per-domain
    {!Plane} rows.

    Values are created through {!Registry} (get-or-create by name and
    label set).  Each handle holds one padded row per plane slot; a
    recording operation writes only the calling domain's own row with a
    plain store, so the hot paths perform {e zero shared-cacheline
    writes} — no atomic RMW, no false sharing between domains — and the
    aggregating readers ([value], [gvalue]) sum the rows at snapshot
    time.  Totals are exact once writers are quiescent
    (domain joins / pool awaits establish the ordering); a snapshot taken
    mid-flight is memory-safe and at worst slightly stale.

    Domains beyond {!Plane.max_slots} fall back to shared atomic overflow
    cells; every such miss bumps the [obs.plane_collisions] witness
    counter, which stays flat whenever the contention-free fast path is
    actually in use.

    Counters and gauges have no on/off switch: they double as the
    algorithms' work-accounting state, which must always count.
    Durations are not metrics; they live in {!Latency} trackers. *)

type labels = (string * string) list
(** Label pairs, canonically sorted by {!Registry} on registration. *)

type counter = {
  c_name : string;
  c_labels : labels;
  c_rows : int array Atomic.t array;
  c_ov : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_labels : labels;
  g_rows : float array Atomic.t array;
  g_base : float Atomic.t;
}

val row_pad : int
(** Words per plane row (8 = one 64-byte cacheline of payload). *)

val no_irow : int array
val no_frow : float array
(** Absent-row sentinels, compared physically: a plane row equal to one of
    these has not been claimed by its slot's owner yet. *)

val make_rows : 'a -> 'a Atomic.t array
(** A fresh plane of {!Plane.max_slots} unpublished rows holding the given
    absent-sentinel — used by {!Registry} and the {!Latency} plane. *)

val plane_collisions_cell : int Atomic.t
(** The cell behind the [obs.plane_collisions] counter ({!Registry} wires
    it in as that counter's overflow cell).  Exposed so the witness can be
    read even before the counter is registered. *)

(** {2 Counters} — monotone non-negative int, per-domain plane *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment. *)

val value : counter -> int
(** Sum over all plane rows plus the overflow cell. *)

(** {2 Gauges} — arbitrary float, per-domain plane *)

val set : gauge -> float -> unit
(** Rebase so {!gvalue} reads exactly the given value.  Not atomic against
    concurrent {!gadd}s; in-tree setters run at structure creation or on
    rare state changes, never on recording hot paths. *)

val gadd : gauge -> float -> unit
val gincr : gauge -> unit
val gvalue : gauge -> float

(** {2 Reset} — used by {!Registry.reset}; quiesce writers for exactness *)

val reset_counter : counter -> unit
val reset_gauge : gauge -> unit
