(** Agglomerative data-stream histograms — Algorithm AgglomerativeHistogram
    (Figure 3 of the paper, from Guha, Koudas & Shim \[GKS01\]).

    Maintains an epsilon-approximate B-bucket V-optimal histogram of the
    {e entire} stream seen so far, in one pass and small space:
    O((B^2 / epsilon) log n) stored interval entries, O((B^2 / epsilon)
    log n) amortised work per point.

    Per level k = 1 .. B-1 the algorithm keeps a queue of intervals over
    the stream indices; within an interval the prefix-error HERROR\[., k\]
    grows by at most a (1 + delta) factor (delta = epsilon / 2B).  Each
    queue entry stores the running prefix sums at its endpoint, so bucket
    errors between endpoints cost O(1) — the structure never retains the
    data itself. *)

type t

val create : buckets:int -> epsilon:float -> t
(** Whole-stream maintainer with delta = epsilon / 2B. *)

val buckets : t -> int
val epsilon : t -> float

val count : t -> int
(** Number of stream points ingested so far (the paper's N). *)

val push : t -> float -> unit
(** Process the next stream point: lines 1-11 of Figure 3. *)

val current_error : t -> float
(** Approximate HERROR\[N, B\]: within (1 + epsilon) of the optimal
    B-bucket SSE of the whole stream so far.  O(queue length).  Returns
    [0.] before any point arrives. *)

val current_histogram : t -> Sh_histogram.Histogram.t
(** The epsilon-approximate histogram of the stream so far, indices
    1..{!count}.  Bucket values are exact range means recovered from the
    prefix sums stored at interval endpoints.  Raises [Invalid_argument]
    when empty. *)

val space_in_entries : t -> int
(** Total interval entries across all queues — the space-bound check for
    the O((B^2 / epsilon) log n) claim. *)

val interval_counts : t -> int array
(** Entries per level k = 1 .. B-1. *)
