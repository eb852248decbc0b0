(** Two-tier distributed aggregation: a root that owns client
    connections to N leaf [shist serve] processes and answers the same
    wire protocol they do.

    {2 Key space}

    Each leaf owns a contiguous slice of the global key space in the
    order its address was given: leaf [i] with [s_i] shards owns global
    keys [offset_i .. offset_i + s_i - 1] where
    [offset_i = s_0 + ... + s_{i-1}].  [Key k] requests are routed to
    the owning leaf with the key rebased into the leaf's local space.

    {2 Global answers}

    A [Global] op is the fold of per-key view answers.  The root expands
    it into [Key 0 .. shards - 1] on every leaf, in the same single
    [Query] that carries the leaf's routed [Key] elements, and folds the
    replies from [0.0]: leaves in ascending offset order, each leaf's
    keys ascending.  That is the association
    {!Stream_histogram.Query_op.scope} fixes and the single-process
    engine's [query_many] uses for a [Global] element, so a complete
    answer is bit-identical to a one-process oracle fed the same per-key
    streams.  A [Global] costs each leaf 8 bytes per key on the wire and
    no root-side state.

    Staleness: a [Global] answer reflects the leaves' {e published views},
    the same contract as [Key] queries and as a single-process [Global]
    element.  Points a leaf has acked but not yet published (under a
    deferred refresh policy) are not in the answer until that leaf's next
    publication.

    {2 Layout}

    The key-space layout is fixed at {!create}.  When a down leaf is
    reconnected, its geometry is re-probed with [Stats]; a leaf that comes
    back with a different [(shards, window, buckets)] stays down and
    counts in ["agg.leaf_failures"], so replies touching it are typed
    partials instead of silently shifted or foreign answers.

    {2 Degradation}

    A leaf failure is never a hang and never an exception out of
    {!query} / {!ingest} / {!stats}: every leaf touch is bounded by the
    aggregator timeout, a failed touch marks the leaf down (one cheap
    reconnect attempt per subsequent request), and the caller sees a
    typed partial result — [leaves_missing > 0] with the unreachable
    leaves' contributions answered as [0.0] (queries) or dropped from
    the ack (ingest).  Only {!create} requires every leaf up, because
    that is where the key-space layout is fixed. *)

type t

exception Merge_incompatible of string
(** The leaves disagree on layout: raised by {!create} when their
    [(window, buckets)] differ, and caught internally when a reconnected
    leaf comes back with a different [(shards, window, buckets)]. *)

val create : ?timeout:float -> Sh_net.Addr.t list -> t
(** Connect to every leaf (all must be reachable), probe geometry via
    [Stats] and fix the key-space layout.  Raises {!Merge_incompatible}
    if the leaves disagree on [(window, buckets)],
    {!Sh_net.Client.Net_error} if a leaf is unreachable.  [timeout]
    (default 5 s) bounds every later leaf touch. *)

val total_shards : t -> int
val leaf_count : t -> int
val window : t -> int
val buckets : t -> int

val query :
  t ->
  (Stream_histogram.Query_op.scope * Stream_histogram.Query_op.t) array ->
  float array * int
(** Fan a scoped batch out, one [Query] per leaf, and fold the [Global]
    elements.  Returns the positional answers and the number of distinct
    leaves that could not contribute; with a leaf down, its [Key] answers
    are [0.0] and every [Global] answer leaves out its keys.  Raises
    [Invalid_argument] on an out-of-range key. *)

val ingest : t -> (int * float array) array -> int * int
(** Split the batch across the owning leaves.  Returns
    [(points acked, leaves missing)] — a down leaf's sub-batch is
    dropped, not retried.  Raises [Invalid_argument] on an out-of-range
    key. *)

val stats : t -> Sh_net.Wire.stats * int
(** The tree's geometry with the live leaves' counters summed, plus how
    many leaves could not be reached. *)

val close : t -> unit
(** Drop every leaf connection.  Idempotent. *)

(** {2 Serving the wire protocol}

    The root speaks the same protocol as a leaf, through the same loop
    ({!Sh_net.Server.run}), so [shist loadgen] and {!Sh_net.Client} work
    unchanged against it and it exports the same [net.*] series.  Leaf
    fan-out is inline and blocking, bounded per leaf by the aggregator
    timeout. *)

val backend : t -> Sh_net.Server.backend
(** The root's serve-loop backend.  Each ingest request of a round's
    batch is cut back into runs of one key and forwarded on its own
    through {!ingest}, so a down leaf shortens only the acks of the
    requests that touched it (a request with no points is acked [0]
    without a leaf round trip); queries answer through
    {!query}, so a degraded batch is sent as
    {!Sh_net.Wire.response.Answers_partial}; [Stats] answers {!stats}.
    [Checkpoint] is refused with an [Error_reply] (the root holds no
    state). *)
