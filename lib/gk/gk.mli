(** Greenwald-Khanna epsilon-approximate quantile summary \[GK01\]
    (cited by the paper as the state of the art for streaming order
    statistics).

    Maintains, in one pass and O((1/epsilon) log(epsilon n)) space, a
    summary from which any quantile can be answered with rank error at most
    [epsilon * n]: for a query phi the returned value's true rank r
    satisfies |r - ceil(phi * n)| <= epsilon * n. *)

type t

val create : epsilon:float -> t
(** [epsilon] in (0, 1). *)

val epsilon : t -> float

val count : t -> int
(** Values inserted so far. *)

val size : t -> int
(** Tuples currently stored (the space bound under test). *)

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
    and the candidate with the closest enclosure midpoint wins.  Rank error
    is at most [sum_i (epsilon_i * n_i)].  Raises [Invalid_argument] when
    all summaries are empty or phi is out of range. *)
