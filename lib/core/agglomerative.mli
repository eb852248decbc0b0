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
(** Whole-stream maintainer: no window bound ({!window} reports
    [max_int]). *)

val create_with_delta : buckets:int -> epsilon:float -> delta:float -> t

val create_windowed : window:int -> buckets:int -> epsilon:float -> t
(** {!Summary_intf.S}-shaped constructor: records [window] as the nominal
    horizon reported by {!window}.  The GKS01 algorithm itself is
    inherently whole-stream — the horizon is parameter parity, not an
    eviction policy.  [window >= 1]. *)

val buckets : t -> int
val epsilon : t -> float

val window : t -> int
(** Nominal horizon: the [window] given to {!create_windowed}, [max_int]
    for summaries from {!create}. *)

val count : t -> int
(** Number of stream points ingested so far (the paper's N). *)

val length : t -> int
(** Alias of {!count} ({!Summary_intf.S} parity). *)

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

(** {2 Introspection} *)

type work_counters = {
  pushes : int;  (** stream points ingested *)
  candidate_evaluations : int;
      (** level-(k-1) queue entries examined across all per-push HERROR
          minimisations — the algorithm's dominant cost term *)
  intervals_built : int;  (** queue entries created *)
  intervals_extended : int;
      (** pushes absorbed by extending an existing interval in place *)
}

val work_counters : t -> work_counters
(** Cumulative per-instance work accounting, backed by the shared
    {!Sh_obs} registry (series [ag.*{instance="ag<i>"}]) — the
    agglomerative counterpart of [Fixed_window.work_counters]. *)

(** {2 Persistence} *)

val name : string
(** ["agglomerative"] — the {!Summary_intf.S} family name. *)

val encode : Buffer.t -> t -> unit
(** Append the snapshot payload: params, horizon, running prefix sums, and
    every queue entry verbatim (the [herr] per-push scratch is rebuilt by
    the next push).  Read-only. *)

val decode : Sh_persist.Codec.reader -> t
(** Rebuild a summary from {!encode}'s bytes, bit-identical: subsequent
    pushes, errors, and histograms match an uninterrupted run exactly.
    Raises {!Sh_persist.Codec.Corrupt} on malformed input (non-finite
    sums, out-of-order queue entries, bad params). *)

module Summary : Summary_intf.S with type t = t
(** The {!Summary_intf.S} view: [Summary.create] is {!create_windowed},
    [Summary.length] is {!count}; everything else is the primary API. *)
