(** Sharded multi-stream engine: S independent fixed-window summaries
    (one per stream key), batched parallel ingest, batched refresh.

    This is the multi-tenant regime of the ROADMAP north star: maintaining
    one windowed epsilon-approximate histogram per key (tenant, sensor,
    router port ...) at line rate.  Shards are fully independent — the
    paper's per-stream algorithm (Theorem 1) needs no cross-stream state —
    so the engine needs no histogram-level locking.  A batch reaches the
    shards in two steps, neither of which locks or CASes: the caller
    stably counting-sorts it by key into one engine-owned flat buffer
    (grown to the largest batch, then reused), and one apply task per
    {e owner} pushes each owned shard's contiguous run.  Owners are
    static contiguous slices of the shard space, at most one per pool
    domain, so no two tasks ever touch the same shard.  Nothing is held
    between engine calls.  Refresh sweeps are work-stealing: each owner
    claims its own slice through an atomic cursor, then steals from
    slower owners, so a Zipf-hot slice cannot serialise the sweep.

    A batch arrives as two columns ({!ingest_columns}, what the serve
    loop decodes) or as key-grouped runs ({!ingest_groups}, a decoded
    ingest frame).  Reads are batches of scoped queries ({!query_many},
    the wire's query vocabulary) or a pinned published view
    ({!with_view}, {!view}).

    Results are bit-identical to driving one sequential
    {!Stream_histogram.Fixed_window.t} per key with the same per-key
    subsequences (property-tested for domain counts 1, 2 and 4): shard
    independence means parallel execution changes only wall-clock, never
    answers. *)

type t

val create :
  pool:Domain_pool.t ->
  shards:int ->
  window:int ->
  buckets:int ->
  epsilon:float ->
  t
(** An engine of [shards] summaries ([>= 1]), each a fixed-window
    maintainer with the given window/buckets/epsilon and the default
    ([Lazy]) refresh policy — use {!set_refresh_policy} for another.
    Stream keys are [0 .. shards - 1].  The pool is borrowed, not
    owned: several engines may share one pool, and
    {!Domain_pool.shutdown} remains the caller's job. *)

val set_refresh_policy : t -> Stream_histogram.Params.refresh_policy -> unit
(** Set the arrival-time refresh policy of every shard.  Raises
    [Invalid_argument] on [Every k] with [k < 1]. *)

val shard_count : t -> int

val pool : t -> Domain_pool.t

val ingest_columns :
  t -> keys:int array -> values:float array -> len:int -> unit
(** Ingest one batch held as columns: row [i < len] is the point
    [values.(i)] for key [keys.(i)], in arrival order — the shape the
    serve loop decodes a round of ingest requests into, and the one the
    in-process [shist serve] draws its batches into.  The batch is
    routed to its shards and each shard's sub-batch is applied as a
    single {!Stream_histogram.Fixed_window.push_slice} in arrival order,
    so the per-batch refresh amortisation of the sequential path carries
    over unchanged.  Returns once every point of the batch is applied; no
    value is ever left in flight between calls, and nothing is allocated
    per point.  The engine is single-producer: at most one ingest call
    ([ingest_columns] or {!ingest_groups}) per engine at a time.  Raises
    [Invalid_argument], before ingesting anything, if [len] exceeds
    either column, any key is out of range or any value non-finite. *)

val ingest_groups : t -> (int * float array) array -> unit
(** {!ingest_columns} for a batch that arrives pre-grouped as
    [(key, values)] runs — the shape of a decoded network ingest frame —
    each run blitted whole.  Keys may repeat; a shard's sub-batch is its
    groups' values concatenated in group order, so [ingest_groups t gs]
    is observationally identical to {!ingest_columns} of the flattened
    rows (same single-producer contract, same validation, same per-batch
    refresh cadence). *)

val refresh_all : ?cold:bool -> t -> unit
(** Rebuild every stale shard's interval lists across the pool — the
    batched counterpart of {!Stream_histogram.Fixed_window.refresh};
    [~cold:true] forces from-scratch rebuilds (the correctness oracle).
    Sweeps are work-stealing (see [engine.refresh_steals]). *)

(** {2 Per-key queries — the concurrency contract}

    Every shard carries, next to its live summary, a {e published read
    view} ({!Stream_histogram.Fixed_window.View}): a snapshot behind a
    padded atomic pointer, republished by the shard's publisher (the task
    that refreshed it) at every publication point.  Publication points
    are refresh completions — a {!refresh_all} sweep, or an
    arrival-driven rebuild inside an ingest call ([Eager] every batch,
    [Every k] whenever a batch crosses the cadence boundary).

    Publication recycles views.  Each owner keeps one spare view; to
    publish, it refills the spare with
    {!Stream_histogram.Fixed_window.view_into} and swaps it into the slot
    with one [Atomic.exchange], and the view it replaces becomes its next
    spare.  A reader pins a view for the duration of one evaluation: it
    counts itself in on the view's pin count, loads the slot again, and
    retries if the slot has moved.  The publisher refills a spare only
    when it sees it unpinned; a spare still pinned is left to the GC and
    a fresh view is allocated instead.  Since a view is refilled only
    after it has left its slot and was seen unpinned, and read only while
    pinned after it was seen in its slot, and every step is a
    sequentially consistent [Atomic] operation, no reader sees a
    half-written view.  A view shares its shard's interval lists rather
    than copying them; refilling the spare lets go of the lists it held,
    which return to the publisher domain's pool only once the shard's
    summary has let go of them too.  Answers are those of immutable
    snapshots.

    {!query_many}, {!with_view} and {!view} read the published view.
    A read is pin + load + evaluate + unpin: it takes no lock, never
    touches what the live summary writes, and never waits for an in-flight
    ingest call / {!refresh_all}.  It is lock-free rather than wait-free:
    it retries only when the same key is republished between its load and
    its check.  So these calls are safe from any domain and complete
    while the owner holds a shard (tested: a reader's {!query_many} on a
    key finishes while {!with_key} on that key is blocked).  While
    latency tracking is on ({!Sh_obs.Obs.set_latency_enabled}), each
    {!query_many} call also takes the ["latency.query"] tracker's mutex
    once, to record its duration; readers contend only with each other
    there, never with ingest.  The price is bounded
    staleness: answers reflect the shard as of its last publication
    point, i.e. at most one refresh cadence behind the live summary
    ([Lazy] defers publication to the next {!refresh_all} — call it
    before reading if you need current answers).  After any engine
    call returns, the published generation equals the live generation of
    every shard that call refreshed (property-tested);
    {!generation_lag} / {!publication_lag} expose the distance.

    View answers are bit-identical to querying the live summary between
    engine calls at the same generation — the snapshot-equivalence
    property the test suite pins against the sequential
    {!Stream_histogram.Fixed_window} oracle.

    Live-shard escape hatches ({!with_key}, {!fold}, {!set_refresh_policy},
    {!checkpoint}) bypass the view and require the same exclusivity as
    an ingest call itself (no overlap with an in-flight engine call — the
    single producer that drives ingest may use them between batches,
    which is every in-tree usage). *)

val with_view : t -> key:int -> f:(Stream_histogram.Fixed_window.View.t -> 'a) -> 'a
(** [f] applied to the shard's currently published view, pinned while [f]
    runs: the view stays bit-identical until [f] returns (or raises),
    whatever is published meanwhile, and may be recycled afterwards, so
    [f] must not keep it.  A stable snapshot across several estimates;
    [with_view ~f:Stream_histogram.Fixed_window.View.current_histogram]
    returns a copy of the histogram that later publications never
    change.  Neither counted in ["engine.queries"] nor timed. *)

val view : t -> key:int -> Stream_histogram.Fixed_window.View.t
(** The shard's currently published view, pinned for good: it is never
    refilled, so it stays bit-identical however many publications follow
    (the engine allocates a fresh view in its place once it is retired).
    For consumers that keep the view, such as [bench/e2e]'s tracer;
    {!with_view} pins only for the duration of a callback. *)

val generation_lag : t -> key:int -> int
(** Live refresh generation minus published view generation: [0] whenever
    the shard is clean and published, transiently [1] inside an engine
    call.  Reads the live stamp without the ownership token and the
    published one without a pin — racy mid-flight (a view being refilled
    may show another key's stamp) but memory-safe; telemetry-grade. *)

val publication_lag : t -> key:int -> int
(** Points pushed into the live shard since its published view was cut —
    the staleness bound in points.  Same read discipline as
    {!generation_lag}.  Read today only by test_par's publication
    properties; kept for ROADMAP item 5's "how stale are reads?"
    telemetry, which will export it. *)

(** {2 Batched queries}

    The query vocabulary and its clamping contract live in
    {!Stream_histogram.Query_op} — one shared definition consumed by this
    engine, the wire codec, and the root aggregator. *)

val query_many :
  t ->
  (Stream_histogram.Query_op.scope * Stream_histogram.Query_op.t) array ->
  float array
(** Answer a batch of scoped queries, one float per element.  A
    [Key key] element is one pinned view read (see the contract above) +
    one {!Stream_histogram.Query_op.eval_view}, memo-free (an [Herror]
    element runs its candidate scan every time); raises
    [Invalid_argument] on an out-of-range key.  A [Global] element is
    answered inline over {e every} key: the fold of the per-key view
    answers in ascending key order, accumulated left-to-right from [0.0]
    — {!Stream_histogram.Query_op.scope}'s [Global] contract, with its
    fixed float association.  The root aggregator folds its leaves'
    per-key answers the same way, which is how its [Global] answers are
    proved bit-identical to this single-process oracle.  Counted in
    ["engine.queries"] per element and timed as one ["latency.query"]
    observation. *)

val with_key :
  t -> key:int -> f:(Stream_histogram.Fixed_window.t -> 'a) -> 'a
(** Run [f] against the {e live} summary of one shard — the between-calls
    read escape hatch (recorders, oracles, tests).  Caller must
    guarantee no concurrent engine call.  If [f] refreshed the shard, its view is
    republished before returning. *)

val fold : t -> init:'a -> f:('a -> int -> Stream_histogram.Fixed_window.t -> 'a) -> 'a
(** Fold over live shards in key order (see the live-shard contract
    above).  [f] must not call back into the engine. *)

(** {2 Introspection}

    The engine owns these counts (atomics in the engine, which the
    checkpoint's meta frame reads), so {!Sh_obs.Obs.reset} changes none
    of them.  Every increment also goes to the process-wide [engine.*]
    family named below, a sum over every engine in the process.
    {!create} and {!restore_from} expose [engine.points], [batches],
    [queries] and [snapshots_published] with the [latency.ingest_batch],
    [shard_apply] and [query] trackers; {!refresh_all}, the one sweep
    path, exposes [engine.refresh_sweeps], [refresh_steals] and
    [latency.refresh_sweep] (see {!Sh_obs.Obs.expose}). *)

val total_points : t -> int
(** Points ingested since creation, restored totals included
    (["engine.points"]). *)

val batches : t -> int

val refresh_steals : t -> int
(** Shards refreshed by a non-owner during {!refresh_all} work-stealing
    sweeps (["engine.refresh_steals"]). *)

val queries : t -> int
(** Estimation queries answered (["engine.queries"]): one per
    {!query_many} element. *)

val snapshots_published : t -> int
(** Read views published since creation (["engine.snapshots_published"]),
    including the initial per-shard captures. *)

(** {2 Durability}

    A checkpoint is one {!Sh_persist.Frame}-formatted byte stream:
    header, an engine meta frame (shard count, cumulative counters), then
    one {!Stream_histogram.Fixed_window} frame per shard in key order.
    {!checkpoint} publishes those bytes as a file (write-to-temp + atomic
    rename, so a crash during {!checkpoint} always leaves the previous
    checkpoint readable — proved by the fault-injection suite). *)

val checkpoint : t -> file:string -> unit
(** Capture every shard and atomically publish the file.  Every point of
    a returned ingest call is already in its shard, so each frame captures
    a shard with no in-flight values.  Do not run concurrently with
    an ingest call: frames are per-shard consistent, but a mid-batch checkpoint would split that
    batch across the checkpoint boundary. *)

val restore_from : pool:Domain_pool.t -> file:string -> t
(** Rebuild an engine from a {!checkpoint} file: geometry, per-shard
    window state (each rebuilt with one first refresh), policies, and the
    cumulative {!total_points}/{!batches} counters all come from the
    file.  Raises {!Sh_persist.Persist.Corrupt} on any damaged or
    truncated file or one whose shards disagree on window, buckets or
    epsilon, {!Sh_persist.Persist.Version_mismatch} on a foreign
    format version, and [Sys_error] if the file cannot be read — never
    returns a silently wrong engine. *)
