(** Sliding-window prefix sums — the paper's SUM' / SQSUM' structure
    (Section 4.5).

    The structure ingests a stream one point at a time and supports O(1)
    range-sum, range-square-sum and SQERROR queries over the window of the
    most recent [capacity] points.  Internally it keeps cumulative sums from
    a past origin in a ring of [capacity + 1] slots; differences of
    cumulative values are origin-independent, and the origin is shifted
    ("rebased") every [capacity] insertions so magnitudes stay bounded —
    exactly the amortised-O(1) trick described in the paper.

    Window-relative indices are 1-based: index 1 is the oldest point
    currently in the window, [length t] the newest. *)

type t

val create : capacity:int -> t
(** Window over the last [capacity] points, rebased every [capacity]
    insertions.  [capacity >= 1]. *)

val create_rebasing : rebase_every:int -> capacity:int -> t
(** Like {!create} with an explicit rebase period: larger periods trade
    fewer O(capacity) rebase passes for more floating-point drift in the
    stored cumulative sums (exposed for the rebase-period ablation
    benchmark).  Both arguments [>= 1]. *)

val capacity : t -> int

val length : t -> int
(** Number of points currently held, [<= capacity]. *)

val push : t -> float -> unit
(** Append the next stream value; evicts the oldest once full.  Amortised
    O(1), worst case O(capacity) on rebase ticks. *)

val push_slice : t -> float array -> pos:int -> len:int -> unit
(** [push] of [vs.(pos)] .. [vs.(pos + len - 1)] in order, allocating
    nothing (a [push] called from another module boxes its float).  The
    slice must lie inside [vs]. *)

val range_sum : t -> lo:int -> hi:int -> float
(** Sum of window points [lo .. hi] inclusive; empty ranges sum to [0.].
    Requires [1 <= lo] and [hi <= length t] when non-empty. *)

val range_sqsum : t -> lo:int -> hi:int -> float

val sqerror : t -> lo:int -> hi:int -> float
(** SQERROR(lo, hi) over the current window, clamped non-negative. *)

val range_mean : t -> lo:int -> hi:int -> float

val blit_into : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s state: the same ring slots, cursor and
    rebase period, so every query on [dst] returns exactly what [src]
    returned at the blit, bit for bit, whatever [src] ingests afterwards.
    Allocates nothing; O(capacity).  Raises [Invalid_argument] unless both
    have the same capacity. *)

(** {2 Raw ring access}

    For the fixed-window CreateList candidate scan only, which evaluates
    SQERROR(b+1, x) for many b against one x.  Under the dev profile's
    [-opaque] a cross-module {!sqerror} call is not inlined and boxes its
    result, so the scan reads the ring directly: the cumulative value of
    window-relative index [i] (0 = the sentinel before the oldest point,
    valid for [0 <= i <= length t]) sits at slot [s = ring_base t + i],
    plus [Array.length (ring_sum t)] when [s < 0].  SQERROR(lo, hi) is
    then the arithmetic of {!sqerror}: with [ds] and [dq] the differences
    of the [hi] and [lo - 1] cells of {!ring_sum} and {!ring_sqsum},
    [max 0 (dq - ds * ds / (hi - lo + 1))].

    The arrays are the structure's own storage, not copies: callers must
    not write to them, and must re-read all three after any {!push}
    (which moves the base and may rebase every cell). *)

val ring_sum : t -> float array
(** The ring of [capacity + 1] cumulative sums. *)

val ring_sqsum : t -> float array
(** The ring of cumulative sums of squares, slot for slot with
    {!ring_sum}. *)

val ring_base : t -> int
(** The unwrapped slot of window index 0, in [\[-capacity, capacity\]]. *)

(** {2 Persistence} *)

val encode : Buffer.t -> t -> unit
(** Append the full structure state (capacity, rebase period, cursor, and
    both cumulative rings) to a snapshot payload.  Read-only: encoding
    never perturbs the structure. *)

val decode : Sh_persist.Codec.reader -> t
(** Rebuild a structure from {!encode}'s bytes.  The round trip is
    bit-identical — every stored cumulative sum is restored verbatim, so
    subsequent queries and rebase ticks behave exactly as if the process
    had never stopped.  Raises {!Sh_persist.Codec.Corrupt} on truncated
    input, non-finite entries, or inconsistent geometry. *)
