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

    Ownership: every operation may mutate the summary ({!quantile} and
    {!rank_bounds} flush the buffer first), so a summary belongs to one
    owner at a time; a summary shared across domains needs the caller's
    lock, as the latency trackers hold theirs. *)

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
