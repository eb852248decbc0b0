(** Greenwald-Khanna epsilon-approximate quantile summary \[GK01\]
    (cited by the paper as the state of the art for streaming order
    statistics).

    Maintains, in one pass and O((1/epsilon) log(epsilon n)) space, a
    summary from which any quantile can be answered with rank error at most
    [epsilon * n]: for a query phi the returned value's true rank r
    satisfies |r - ceil(phi * n)| <= epsilon * n.

    Layout: the tuples (v, g, delta) live in three flat columns, and
    inserts go to a float buffer of ceil(1/(2 epsilon)) slots.  A full
    buffer is sorted in place, merged into the columns and compressed, so
    an insert allocates nothing once the columns have grown (by doubling)
    to the summary's size.

    Ownership: {!insert}, {!reset}, {!quantile}, {!rank_bounds} and
    {!iter_values} may mutate the summary (the last three flush the
    buffer first), so they belong to one owner at a time.
    {!merged_quantile} only reads: it may run on another domain while the
    owner inserts. *)

type t

val create : epsilon:float -> t
(** [epsilon] in (0, 1). *)

val reset : t -> unit
(** Forget every inserted value, keeping the buffer and the columns'
    capacity: the summary is then equal to a fresh one of the same
    epsilon, without the allocation. *)

val epsilon : t -> float

val count : t -> int
(** Values inserted so far. *)

val size : t -> int
(** Tuples currently stored plus buffered values (the space bound under
    test). *)

val insert : t -> float -> unit

val quantile : t -> float -> float
(** [quantile t phi] for phi in [\[0, 1\]].  Raises [Invalid_argument] when
    empty or phi out of range. *)

val rank_bounds : t -> float -> int * int
(** [rank_bounds t v] is a (min, max) enclosure of the rank of [v] among
    the inserted values, derived from the summary. *)

val iter_values : t -> (float -> unit) -> unit
(** Stored tuple values in non-decreasing order — the candidate set for
    cross-summary quantile queries. *)

val merged_quantile : t list -> float -> float
(** [merged_quantile ts phi] answers a quantile over the union of the
    streams behind [ts] without structurally merging them: rank enclosures
    are summed per stored value (ranks are additive over disjoint streams)
    and the candidate with the closest enclosure midpoint wins.  Each
    summary's unflushed buffer counts as an exact sub-stream (every value
    a tuple with g = 1, delta = 0), so nothing is flushed and no summary
    is written.  The true rank lies within [sum_i (epsilon_i * n_i)] of the
    chosen candidate's enclosure midpoint, but that midpoint can itself
    miss the target rank (the midpoints move in steps of up to a tuple's
    g + delta), so unlike {!quantile} the total rank error is not bounded
    by [sum_i (epsilon_i * n_i)]: random streams of distinct values show
    up to about 1.75 times that.  Raises [Invalid_argument] when all
    summaries are empty or phi is out of range.

    Racing an owner's {!insert} is memory-safe but may be stale or
    inconsistent mid-flight: each summary's columns and buffer are copied
    without synchronisation, so a copy taken during a flush can miss,
    repeat or misorder values and sum the wrong g.  The answer is then a
    finite value read from the summary's arrays (a stored, buffered or
    stale cell) with no rank guarantee, and if the copy holds no values
    the call raises as for empty summaries.  Once the owners are
    quiescent the answer carries the guarantee again. *)
