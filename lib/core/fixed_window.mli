(** Fixed-window data-stream histograms — Algorithm FixedWindowHistogram
    (Figure 5 of the paper), the paper's primary contribution.

    The structure maintains, over the window of the most recent [window]
    stream points, an epsilon-approximate B-bucket V-optimal histogram:
    the SSE of the produced histogram is within a (1 + epsilon) factor of
    the optimum for that window (Theorem 1), at
    O((B^3 / epsilon^2) log^3 n) work per data point.

    Per arrival the algorithm rebuilds, level by level, B - 1 lists of
    intervals that cover the window and approximate the prefix-error
    function HERROR\[., k\] to within a (1 + delta) factor per interval
    (delta = epsilon / 2B).  Each list is built by the [CreateList]
    binary-search procedure, touching only O((B / epsilon) log^2 n) window
    positions rather than all n — the paper's key idea.  Sliding prefix
    sums (SUM', SQSUM' of Section 4.5) make every SQERROR evaluation O(1).

    {2 Maintenance modes}

    {!push} honours the {!Params.refresh_policy} the maintainer was created
    with: [Lazy] (the default) only advances the window and its prefix
    sums, leaving the interval lists to the first query; [Eager] rebuilds
    them on every arrival (the paper's cost model); [Every k] rebuilds on
    every k-th arrival, amortising bulk loads.  {!refresh} /
    {!push_and_refresh} rebuild unconditionally.

    {2 Warm-start rebuilds}

    Between consecutive arrivals the window shifts by at most one point, so
    the previous lists' interval boundaries are near-perfect predictors of
    the new ones.  {!refresh} therefore builds every level into a fresh
    target list set (see the ownership rule below) and seeds each
    CreateList boundary search from the corresponding right endpoint of
    the current set (shifted by the window slide), using a
    gallop-then-bisect search bracketed around the hint.  Because HERROR is
    non-decreasing in x, the search result is independent of the seed: warm
    and cold rebuilds produce identical lists, and [refresh ~cold:true]
    stays available as the correctness oracle (see DESIGN.md section 7).

    A search with no previous boundary to start from (the first refresh of
    a fresh or restored summary, or past the end of the previous list)
    gallops from its start plus the width of the interval just built.
    Each HERROR evaluation's candidate scan first evaluates the list row
    that won the previous scan at the same level, which tightens its
    pruning bound; the minimum, and so every HERROR value, is unchanged.

    {2 Allocation-free kernel}

    The hot path is (amortised) allocation-free: each interval list is two
    flat columns — right endpoints and HERROR at each; left endpoints are
    derived, a{_0} = 1 and a{_r} = b{_r-1} + 1 — rather than a boxed-record
    vector, rebuild targets are list sets recycled through a small
    per-domain pool, float out-param slots are owned by [t] and reused
    across refreshes, and
    HERROR evaluations are deduplicated through a memo table indexed
    directly by (x, k).  The table is one per domain, not one per summary,
    sized
    (window + 1) * (buckets + 1) for the largest summary that has claimed
    it ({!memo_arena_words}): a rebuild takes a fresh owner stamp and
    claims its domain's table, clearing it in O(1) when another stamp
    owned it, and {!herror} / {!current_error} claim it the same way, so
    they hit what the rebuild cached unless another summary's rebuild ran
    on that domain in between.  Once the backing arrays reach steady
    capacity, a push + warm refresh allocates ~zero minor-heap words
    (pinned by the allocation-budget test; see DESIGN.md section 10).
    [refresh ~memo:false] disables the memo for one rebuild — with it, the
    probe sequence is identical to the pre-memo kernel, which the golden
    step-count tests rely on.

    Work counters are tallied in the summary's scratch and moved to the
    summary's own totals once at the end of every entry point that
    evaluates; the same deltas go to the process-wide [fw.*] metric
    families, so {!work_counters} and a metrics scrape between calls see
    every count. *)

type t

val create : window:int -> buckets:int -> epsilon:float -> t
(** A maintainer for the last [window] points with [buckets] buckets and
    precision [epsilon], under the default [Lazy] refresh policy
    ({!set_refresh_policy} changes it).  Raises [Invalid_argument] on
    non-positive arguments. *)

val create_with_delta : window:int -> buckets:int -> epsilon:float -> delta:float -> t
(** Like {!create} with an explicit interval slack (ablation hook). *)

val window : t -> int
val buckets : t -> int
val epsilon : t -> float
val length : t -> int
(** Points currently in the window ([<= window]). *)

val generation : t -> int
(** Refresh generation: starts at 0 and increments once per interval-list
    rebuild (so any freshly created or decoded summary, both of which
    refresh, is at generation [>= 1]).  The epoch stamp of the published
    read views. *)

val points_seen : t -> int
(** Total points pushed since creation — a monotone watermark ([>=]
    {!length}; it keeps counting after the window fills).  Restored
    summaries restart at the recovered window length. *)

val refresh_policy : t -> Params.refresh_policy

val set_refresh_policy : t -> Params.refresh_policy -> unit
(** Change the arrival-time rebuild policy; takes effect from the next
    {!push}.  Raises [Invalid_argument] on [Every k] with [k < 1]. *)

val push : t -> float -> unit
(** Ingest the next stream point (evicting the oldest once the window is
    full), then rebuild the interval lists if the refresh policy calls for
    it. *)

val push_many : t -> float array -> unit
(** Batched arrivals (footnote 2 of the paper): append every point to the
    sliding prefix first, then rebuild at most once, per the refresh
    policy — the batch cost is O(batch) plus one refresh, and the
    warm-start machinery amortises across the whole batch.  Bookkeeping
    counts each batched point exactly like a single arrival ([Every k]
    periods include them); a batch that crosses a refresh boundary
    rebuilds once at the batch end rather than mid-batch, so query results
    are identical to repeated {!push} while arrival-time work is not.
    Raises [Invalid_argument] on non-finite values, before ingesting
    anything. *)

val push_slice : t -> float array -> pos:int -> len:int -> unit
(** {!push_many} over the sub-array [\[pos, pos + len)] without copying it
    out — the zero-allocation batch entry point (used by the sharded
    engine to feed per-shard slices from a pooled buffer).  Raises
    [Invalid_argument] on a slice out of bounds or a non-finite value in
    the slice (before ingesting anything). *)

val refresh : ?cold:bool -> ?memo:bool -> t -> unit
(** Rebuild the interval lists for the current window contents; no-op when
    they are already current.  [~cold:true] is the unassisted rebuild: it
    ignores the previous lists, the width of the interval just built and
    the previous scan winners, and runs the paper's full-range binary
    searches — the correctness oracle for the default seeded rebuild, which
    produces identical lists in fewer HERROR evaluations (including a
    summary's first refresh, which has no previous lists).  [~memo] overrides the
    {!set_memoisation} setting for this one rebuild: [~memo:false] is the
    second oracle, re-evaluating every HERROR probe so step counters match
    the pre-memo kernel exactly.  A memoised rebuild borrows the calling
    domain's memo table for its duration and runs wholly on that domain. *)

val set_memoisation : t -> bool -> unit
(** Enable / disable HERROR memoisation (default on) for this summary's
    rebuilds and live {!herror} / {!current_error} reads.  The memo table
    itself belongs to the calling domain, not to the summary (see the
    allocation-free kernel notes above).  Purely a performance toggle:
    results are bit-identical either way. *)

val memoisation : t -> bool
(** Current {!set_memoisation} setting.  The only view of the flag a
    checkpoint carries: test_persist's restore checks compare it. *)

val push_and_refresh : t -> float -> unit
(** [push] then [refresh]: the paper's per-point maintenance. *)

val current_error : t -> float
(** The approximate HERROR\[n, B\] for the current window: an upper bound
    on the SSE of {!current_histogram} target that is within (1 + epsilon)
    of the optimal B-bucket SSE.  Refreshes if needed. *)

val current_histogram : t -> Sh_histogram.Histogram.t
(** The epsilon-approximate histogram of the current window, with indices
    1..{!length} (1 = oldest point in the window).  Bucket values are exact
    range means.  Refreshes if needed.  Raises [Invalid_argument] on an
    empty window. *)

val herror : t -> k:int -> x:int -> float
(** Approximate HERROR\[x, k\]: the error of summarising the oldest [x]
    window points with [k] buckets.  Requires [1 <= k <= buckets] and
    [0 <= x <= length]; levels below [buckets] read the interval lists,
    which are refreshed if needed.  Exposed for validation against the
    exact dynamic program. *)

(** {2 Published read views}

    A {!View.t} is a snapshot of a refreshed summary: a copy of the
    sliding prefix ring, the summary's current interval lists, shared
    read-only rather than copied, and precomputed whole-window answers,
    plus the {!generation} / {!points_seen} stamps of the moment it was
    filled.  Views hold no reference to the live summary itself and
    nothing it writes, so they may be handed to other domains and read
    without locks — the RCU payload of the sharded engine's query plane.

    {b Ownership.}  A summary's lists are one set, written only while a
    refresh builds it.  A refresh builds into a target set that no view
    can reach — one its domain's pool returns, or a fresh one
    ({!target_allocations}) — and then swaps it in as the current set.
    {!view} and {!view_into} lend the current set to the view.  A set has
    up to two kinds of holder: the summary, until a refresh swaps the set
    out, and each view it is lent to, until that view is refilled.  Only
    when the last holder lets go does the set go back to the pool of the
    domain that let go, to be rebuilt by a later refresh there.  A view
    that is never refilled keeps its set for good.

    A view is immutable while it is published or held: {!view} returns a
    view nobody else refills, and only {!view_into} writes one.
    {!view_into} is the publisher's primitive: it refills a view that has
    left publication and that no reader holds any more, so steady-state
    publication copies the ring without allocating a new view.  Making sure
    no reader holds the view is the publisher's job (the sharded engine
    pins views while it evaluates them).

    A view is evaluated by the same HERROR kernel as the live summary, over
    a verbatim copy of the ring and the same lists, so every view answer is
    bit-identical to the corresponding live query against the (quiesced)
    summary at the same generation.  Views never touch telemetry: reads
    cost no counter stores. *)

module View : sig
  type t

  val generation : t -> int
  (** {!Fixed_window.generation} of the source at capture. *)

  val points_seen : t -> int
  (** {!Fixed_window.points_seen} of the source at capture — compare with
      the live watermark for a staleness bound in points. *)

  val length : t -> int
  val buckets : t -> int
  val epsilon : t -> float

  val current_error : t -> float
  (** Precomputed at capture: O(1). *)

  val current_histogram : t -> Sh_histogram.Histogram.t
  (** Precomputed at capture: O(1).  Raises [Invalid_argument] on an
      empty window, like the live query. *)

  val histogram : t -> Sh_histogram.Histogram.t option
  (** {!current_histogram} without the exception: [None] iff empty. *)

  val herror : t -> k:int -> x:int -> float
  (** Approximate HERROR\[x, k\] evaluated against the view's arrays; same
      domain ([1 <= k <= buckets], [0 <= x <= length]) and same answers as
      the live {!Fixed_window.herror} at the view's generation.  Each call
      runs the candidate scan: views carry no memo table. *)

  val intervals : t -> k:int -> (int * float * int * float) array
  (** The view's level-k list, as {!Fixed_window.intervals}
      reports it (same rows and values at the view's generation; each
      [a_herror] is one candidate scan).  Requires
      [1 <= k <= buckets - 1]. *)
end

val view : t -> View.t
(** A new view of the current window, refreshing first if stale (so the
    view is always at the latest generation): an empty view filled by
    {!view_into}.  O(window) ring copy and O(B log ...) precompute work,
    paid by the maintainer — the FEH trade: a little more at update time
    for O(1)-ish reads; the lists are lent, not copied.  The caller owns
    publication; the summary keeps no reference to the view. *)

val view_into : t -> View.t -> unit
(** Refill an existing view in place with what {!view} would return now:
    blit the prefix ring, lend the summary's current list set to the view
    and let go of the set the view held (see the ownership rule above),
    recompute {!View.current_error}, and attach a freshly built histogram
    (a histogram taken from the view earlier stays valid).  With equal
    window capacity nothing else is allocated.  Refreshes first if stale.
    The caller must guarantee that no other domain reads the view
    meanwhile. *)

(** {2 Introspection} *)

type work_counters = {
  herror_evaluations : int; (** HERROR evaluations since creation (all modes) *)
  cold_evaluations : int;   (** evaluations spent in cold list rebuilds *)
  warm_evaluations : int;   (** evaluations spent in warm-start list rebuilds *)
  intervals_built : int;    (** interval-list entries created since creation *)
  refreshes : int;          (** list rebuilds performed *)
  cold_refreshes : int;     (** rebuilds that ignored the previous lists *)
  warm_refreshes : int;     (** rebuilds seeded from the previous lists *)
  search_steps : int;       (** probe steps across all binary / gallop searches
                                actually executed (memo hits skip their steps) *)
  scan_steps : int;         (** the subset of [search_steps] spent inside the
                                candidate-scan binary searches *)
  scan_candidates : int;    (** candidates the scans evaluated (one SQERROR
                                each): the walk between those searches *)
  hint_hits : int;          (** boundary searches where the hinted boundary was exact *)
  hint_misses : int;        (** hinted boundary searches that had to move *)
  memo_probes : int;        (** HERROR evaluations that consulted the memo table *)
  memo_hits : int;          (** memo probes answered from the table (scan skipped) *)
}

val work_counters : t -> work_counters
(** This summary's cumulative work counters, used by the complexity
    benchmarks to check the per-point cost grows polylogarithmically in
    the window length and by the regression tests pinning the warm-start
    speedup.  The summary owns them: {!Sh_obs.Obs.reset} does not change
    them.  Each call that evaluates HERROR ends by adding its counts to
    the process-wide families ([fw.herror_evals], ...), so between calls
    every family has grown by exactly these values since {!create}. *)

val memo_arena_words : unit -> int
(** Words reachable from the calling domain's HERROR memo table: about
    2 * (n + 1) * (B + 1) for the largest window n and bucket count B
    claimed on this domain, a few words before any claim.  The table is
    per-domain state, so it is not reachable from any summary or engine. *)

val pending_pushes : t -> int
(** Points ingested since the last refresh — the count an [Every k] policy
    compares against [k].  Introspection for the batch-bookkeeping tests. *)

val slide_since_refresh : t -> int
(** Evictions since the last refresh: how far the previous lists'
    coordinates have shifted (the warm-start hint offset).  Introspection
    for test_par's "push_many Every-k bookkeeping". *)

val needs_refresh : t -> bool
(** Whether the interval lists are stale relative to the window. *)

val list_growths : unit -> int
(** Backing-array growths of interval-list columns across every list set
    in the process, pooled ones included.  Once the sets a domain recycles
    reach steady capacity, sliding and refreshing grow none (pinned by
    test_core's "slide reuses memory"). *)

val target_allocations : unit -> int
(** List sets allocated as refresh targets because the calling domain's
    pool held none of the right level count, across the process. *)

val pool_words : unit -> int
(** Words reachable from the calling domain's pool of released list sets
    (at most a few sets, a few words when empty).  Like the memo table,
    the pool is per-domain state, reachable from no summary or engine. *)

val interval_counts : t -> int array
(** Number of intervals currently held per level k = 1 .. B-1; the paper
    bounds each by O((B / epsilon) log n).  Refreshes if needed. *)

val intervals : t -> k:int -> (int * float * int * float) array
(** The level-k interval list as [(a_idx, a_herror, b_idx, b_herror)]
    tuples, oldest-first.  Requires [1 <= k <= buckets - 1].  Refreshes if
    needed.  Validation hook for the warm-vs-cold equivalence tests.

    Lists store right endpoints and their HERROR only: [a_idx] is derived
    (1 for the first row, the previous [b_idx + 1] after it), and
    [a_herror] is evaluated again, bit-identical to HERROR\[a_idx, k\] as
    the rebuild computed it.  Those evaluations count in
    {!work_counters} like any live {!herror} read (and probe the memo
    under {!set_memoisation}), but leave the next rebuild's scan seeds
    untouched. *)

(** {2 Persistence}

    The per-shard payload of a [Shard_engine] checkpoint.  It carries only
    parameters and the sliding prefix sums — O(window) bytes; {!decode}
    rebuilds the interval lists with one default (seeded) refresh, so the
    restored summary answers every query bit-identically to one that never
    stopped (pinned by the round-trip property tests). *)

val encode : Buffer.t -> t -> unit
(** Append the shard payload (tag, params, policy, memoisation flag,
    arrival cadence, prefix-sum state).  Read-only; O(window) bytes. *)

val decode : Sh_persist.Codec.reader -> t
(** Rebuild a summary from {!encode}'s bytes: restores params and window
    state verbatim, performs one eager first refresh (the default seeded
    rebuild; the lists equal a cold rebuild's), then restores the
    [Every k] arrival cadence.  Raises {!Sh_persist.Codec.Corrupt} on
    malformed input (bad tag, invalid params, inconsistent window). *)
