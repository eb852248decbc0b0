module FW = Stream_histogram.Fixed_window
module Q = Stream_histogram.Query_op
module Obs = Sh_obs.Obs
module M = Sh_obs.Metric
module L = Sh_obs.Latency
module Ring = Spsc_ring

(* One shard = one independent fixed-window summary, under static
   ownership: each owner (a slot of the domain pool) exclusively drains a
   contiguous slice of shards, the producer hands values over through one
   bounded SPSC ring per shard, and nothing on the per-point path locks or
   CASes.  (The historical [Locked] mutex-per-shard mode is retired; the
   [lock_ops] / [query_lock_ops] counters remain as flat-zero witnesses
   that nothing reintroduced a lock.) *)

let default_ring_capacity = 1024

(* Per-shard cells that one side writes while another reads across batch
   boundaries (overflow fill levels) are spread out by this stride so
   neighbouring shards — which may belong to different owners — never
   share a cache line.  8 words = 64 bytes on every 64-bit target. *)
let pad_stride = 8

type t = {
  pool : Domain_pool.t;
  shards : FW.t array;
  (* --- ownership map: owner o drains shards
     [slice_lo.(o) .. slice_hi.(o) - 1]; owners = min(domains, shards) so
     every owner has a non-empty slice. *)
  owners : int;
  slice_lo : int array;
  slice_hi : int array;
  (* --- ingest lane: one SPSC ring per (producer, shard) pair — the
     engine is single-producer (see [ingest]), so that is one ring per
     shard.  A full ring spills into the per-shard overflow buffer
     (growable, bounded by the batch size) and counts a backpressure
     event; [drain_buf] is the owner-side scratch a shard's ring + spill
     are assembled into so each shard still sees exactly one [push_slice]
     per batch. *)
  rings : Ring.t array;
  overflow : float array array;
  overflow_len : int array; (* slot k * pad_stride *)
  drain_buf : float array array;
  drain_tasks : (unit -> unit) array; (* one per owner *)
  drain_one : int -> unit; (* caller-side drain of one shard (quiesce) *)
  (* --- refresh: work-stealing sweep.  Each owner claims shards from its
     own slice through a per-owner atomic cursor, then steals from other
     owners' cursors once its slice is done — a Zipf-hot slice cannot
     serialise the sweep on one domain. *)
  cursors : int Atomic.t array;
  warm_sweep : (unit -> unit) array;
  cold_sweep : (unit -> unit) array;
  (* --- RCU read plane: one padded atomic slot per shard holding the
     immutable view published at that shard's last refresh.  The slot's
     owner (drain/sweep task) republishes whenever the live generation has
     advanced past the published one; readers [Atomic.get] the pointer and
     evaluate against the copy — wait-free, never touching the live
     summary or the owner's cache lines. *)
  views : FW.View.t Atomic.t array;
  publish : int -> unit; (* owner-side: republish shard k if stale *)
  c_points : M.counter;
  c_batches : M.counter;
  c_refreshes : M.counter;
  c_lock_ops : M.counter;
  c_backpressure : M.counter;
  c_steals : M.counter;
  c_queries : M.counter;
  c_query_lock_ops : M.counter;
  c_published : M.counter;
  g_read_gen : M.gauge;
  (* --- latency trackers (gated by [Obs.set_latency_enabled]): drain and
     sweep durations are recorded inside the pool tasks, so each owner
     feeds its own domain's GK slot and the merged quantile sees the
     cross-domain distribution. *)
  l_ingest : L.t;
  l_query : L.t;
}

(* Wire an engine around an existing shard array — shared by [create]
   (fresh summaries) and [restore_from] (decoded ones). *)
let build ~ring_capacity ~pool shard_arr =
  let shards = Array.length shard_arr in
  let labels = [ ("instance", Obs.instance "se") ] in
  let c_lock_ops = Obs.counter ~labels "engine.lock_ops" in
  let c_backpressure = Obs.counter ~labels "engine.backpressure_waits" in
  let c_steals = Obs.counter ~labels "engine.refresh_steals" in
  let c_queries = Obs.counter ~labels "engine.queries" in
  let c_query_lock_ops = Obs.counter ~labels "engine.query_lock_ops" in
  let c_published = Obs.counter ~labels "engine.snapshots_published" in
  let g_read_gen = Obs.gauge ~labels "engine.read_gen" in
  let l_ingest = L.tracker ~labels "latency.ingest_batch" in
  let l_drain = L.tracker ~labels "latency.ring_drain" in
  let l_sweep = L.tracker ~labels "latency.refresh_sweep" in
  let l_query = L.tracker ~labels "latency.query" in
  (* Read-plane slots.  Every shard starts with a real view (capturing
     refreshes, which is a no-op on decoded shards and trivial on empty
     fresh ones), so readers never see a sentinel.  The throwaway spacer
     allocations keep consecutive atomics off one cache line (the
     spsc_ring idiom): a reader polling shard k must not contend with the
     owner publishing shard k+1. *)
  let views =
    Array.init shards (fun k ->
        ignore (Sys.opaque_identity (Array.make pad_stride 0));
        Atomic.make (FW.view shard_arr.(k)))
  in
  M.add c_published shards;
  M.set g_read_gen
    (Float.of_int (FW.View.generation (Atomic.get views.(shards - 1))));
  (* Republish shard k's view if its live generation moved past the
     published one.  Only called with exclusive access to the shard (its
     owner), which makes the needs_refresh/generation reads stable; the
     publication points are refresh completions — a drain that left the
     shard dirty under a [Lazy] / mid-cadence [Every k] policy publishes
     nothing. *)
  let publish k =
    let fw = shard_arr.(k) in
    if
      (not (FW.needs_refresh fw))
      && FW.generation fw <> FW.View.generation (Atomic.get views.(k))
    then begin
      let v = FW.view fw in
      Atomic.set views.(k) v;
      M.incr c_published;
      M.set g_read_gen (Float.of_int (FW.View.generation v))
    end
  in
  (* contiguous slices, remainder spread over the first owners *)
  let owners = max 1 (min (Domain_pool.domains pool) shards) in
  let slice_lo = Array.init owners (fun o -> o * shards / owners) in
  let slice_hi = Array.init owners (fun o -> (o + 1) * shards / owners) in
  let rings = Array.init shards (fun _ -> Ring.create ~capacity:ring_capacity) in
  let ring_cap = Ring.capacity rings.(0) in
  let overflow = Array.make shards [||] in
  let overflow_len = Array.make (shards * pad_stride) 0 in
  let drain_buf = Array.init shards (fun _ -> Array.make ring_cap 0.0) in
  (* Drain one shard: assemble ring contents then spilled overflow (older
     values first — the producer only spills once the ring is full and the
     ring is not consumed mid-routing, so this order is arrival order)
     into the shard's scratch, and apply them as a single push_slice. *)
  let drain_one k =
    let ring = rings.(k) in
    let spilled = overflow_len.(k * pad_stride) in
    let total = Ring.length ring + spilled in
    if total > 0 then begin
      if Array.length drain_buf.(k) < total then
        drain_buf.(k) <-
          Array.make (max total (2 * Array.length drain_buf.(k))) 0.0;
      let buf = drain_buf.(k) in
      let n = Ring.pop_into ring buf ~pos:0 in
      if spilled > 0 then begin
        Array.blit overflow.(k) 0 buf n spilled;
        overflow_len.(k * pad_stride) <- 0
      end;
      FW.push_slice shard_arr.(k) buf ~pos:0 ~len:(n + spilled);
      (* the Every-k boundary publication point: push_slice refreshed iff
         the policy fired, and publish keys off that *)
      publish k
    end
  in
  (* Timing is hand-rolled (no [L.time] closure) so the disabled path
     stays allocation-free: one boolean load per task. *)
  let drain_task o =
    fun () ->
      let lat = Obs.latency_enabled () in
      let t0 = if lat then Obs.now () else 0.0 in
      for k = slice_lo.(o) to slice_hi.(o) - 1 do
        drain_one k
      done;
      if lat then L.record l_drain (Obs.now () -. t0)
  in
  (* Work-stealing refresh sweep: claims go through per-owner cursors so
     an index is handed out exactly once; [refresh_all] resets the cursors
     before each sweep. *)
  let cursors = Array.init owners (fun o -> Atomic.make slice_lo.(o)) in
  let claim o =
    let k = Atomic.fetch_and_add cursors.(o) 1 in
    if k < slice_hi.(o) then k else -1
  in
  let sweep_task ~cold o =
    let refresh k =
      FW.refresh ~cold shard_arr.(k);
      publish k
    in
    fun () ->
      let lat = Obs.latency_enabled () in
      let t0 = if lat then Obs.now () else 0.0 in
      let k = ref (claim o) in
      while !k >= 0 do
        refresh !k;
        k := claim o
      done;
      for d = 1 to owners - 1 do
        let o' = (o + d) mod owners in
        let k = ref (claim o') in
        while !k >= 0 do
          M.incr c_steals;
          refresh !k;
          k := claim o'
        done
      done;
      if lat then L.record l_sweep (Obs.now () -. t0)
  in
  {
    pool;
    shards = shard_arr;
    owners;
    slice_lo;
    slice_hi;
    rings;
    overflow;
    overflow_len;
    drain_buf;
    drain_tasks = Array.init owners drain_task;
    drain_one;
    cursors;
    warm_sweep = Array.init owners (sweep_task ~cold:false);
    cold_sweep = Array.init owners (sweep_task ~cold:true);
    views;
    publish;
    c_points = Obs.counter ~labels "engine.points";
    c_batches = Obs.counter ~labels "engine.batches";
    c_refreshes = Obs.counter ~labels "engine.refresh_sweeps";
    c_lock_ops;
    c_backpressure;
    c_steals;
    c_queries;
    c_query_lock_ops;
    c_published;
    g_read_gen;
    l_ingest;
    l_query;
  }

let create_with_ring ~ring_capacity ~pool ~shards ~window ~buckets ~epsilon =
  if shards < 1 then invalid_arg "Shard_engine.create: shards must be >= 1";
  if ring_capacity < 1 then
    invalid_arg "Shard_engine.create: ring_capacity must be >= 1";
  (* sequential creation: instance-name allocation stays deterministic
     (fw0, fw1, ... in key order) regardless of the pool size *)
  build ~ring_capacity ~pool
    (Array.init shards (fun _ -> FW.create ~window ~buckets ~epsilon))

let create ~pool ~shards ~window ~buckets ~epsilon =
  create_with_ring ~ring_capacity:default_ring_capacity ~pool ~shards ~window
    ~buckets ~epsilon

let shard_count t = Array.length t.shards
let ring_capacity t = Ring.capacity t.rings.(0)

let check_key t key =
  if key < 0 || key >= Array.length t.shards then
    invalid_arg (Printf.sprintf "Shard_engine: key %d out of range [0, %d)" key (Array.length t.shards))

(* Run [f] on the live shard.  Exclusivity comes from the call-site
   discipline (live-shard access does not overlap an in-flight [ingest] /
   [refresh_all] call; see the .mli).  [f] may have refreshed the shard,
   so the view is republished before returning. *)
let with_shard t key f =
  check_key t key;
  let v = f t.shards.(key) in
  t.publish key;
  v

(* Spill one value that found its ring full.  Growable, never shrinks;
   bounded by the batch size (once a ring is full it stays full for the
   rest of the routing pass, so a shard spills at most one batch). *)
let spill t k v =
  let len = t.overflow_len.(k * pad_stride) in
  if Array.length t.overflow.(k) = len then begin
    let grown = Array.make (max 8 (2 * len)) 0.0 in
    Array.blit t.overflow.(k) 0 grown 0 len;
    t.overflow.(k) <- grown
  end;
  t.overflow.(k).(len) <- v;
  t.overflow_len.(k * pad_stride) <- len + 1;
  M.incr t.c_backpressure

(* Route a batch: validate everything first (a rejected batch ingests
   nothing), count points once per batch, and give every touched shard
   exactly one [push_slice] covering its sub-batch in arrival order — so
   the per-batch refresh amortisation of the sequential path carries over
   unchanged.  Each value goes into its shard's SPSC ring — no lock, no
   CAS — spilling to the overflow buffer on a full ring; then one drain
   task per owner applies each owned shard's ring + spill.  Steady state
   allocates nothing per batch beyond pool submission bookkeeping.

   The rings make [ingest] single-producer: concurrent [ingest] calls on
   the same engine would race on them. *)
let ingest t batch =
  let nb = Array.length batch in
  if nb > 0 then begin
    let lat = Obs.latency_enabled () in
    let t0 = if lat then Obs.now () else 0.0 in
    for i = 0 to nb - 1 do
      let k, v = batch.(i) in
      check_key t k;
      if not (Float.is_finite v) then invalid_arg "Shard_engine.ingest: non-finite value"
    done;
    for i = 0 to nb - 1 do
      let k, v = batch.(i) in
      if not (Ring.try_push t.rings.(k) v) then spill t k v
    done;
    ignore (Domain_pool.run t.pool t.drain_tasks);
    M.add t.c_points nb;
    M.incr t.c_batches;
    if lat then begin
      L.record t.l_ingest (Obs.now () -. t0);
      (* One window epoch per batch: "last k batches" latency windows. *)
      L.advance ()
    end
  end

(* Pre-grouped ingest: the batch arrives as (key, values) runs — the shape
   of a decoded network ingest frame — and is routed without ever building
   per-point (key, value) pairs.  Same contract and same observable
   behaviour as [ingest] of the flattened pairs. *)
let ingest_groups t groups =
  let ng = Array.length groups in
  let nb = ref 0 in
  for g = 0 to ng - 1 do
    nb := !nb + Array.length (snd groups.(g))
  done;
  let nb = !nb in
  if nb > 0 then begin
    let lat = Obs.latency_enabled () in
    let t0 = if lat then Obs.now () else 0.0 in
    for g = 0 to ng - 1 do
      let k, vs = groups.(g) in
      check_key t k;
      for i = 0 to Array.length vs - 1 do
        if not (Float.is_finite vs.(i)) then
          invalid_arg "Shard_engine.ingest_groups: non-finite value"
      done
    done;
    for g = 0 to ng - 1 do
      let k, vs = groups.(g) in
      let ring = t.rings.(k) in
      for i = 0 to Array.length vs - 1 do
        let v = vs.(i) in
        if not (Ring.try_push ring v) then spill t k v
      done
    done;
    ignore (Domain_pool.run t.pool t.drain_tasks);
    M.add t.c_points nb;
    M.incr t.c_batches;
    if lat then begin
      L.record t.l_ingest (Obs.now () -. t0);
      L.advance ()
    end
  end

(* Rebuild every stale shard's interval lists across the pool: the batched
   refresh, as a work-stealing sweep so skewed per-shard costs cannot
   serialise on one owner. *)
let refresh_all ?(cold = false) t =
  Obs.with_span "engine.refresh_all" (fun () ->
      Array.iteri (fun o c -> Atomic.set c t.slice_lo.(o)) t.cursors;
      ignore (Domain_pool.run t.pool (if cold then t.cold_sweep else t.warm_sweep));
      M.incr t.c_refreshes)

let pool t = t.pool

(* --- the read plane --------------------------------------------------- *)

let view t ~key =
  check_key t key;
  Atomic.get t.views.(key)

let read_gen t ~key = FW.View.generation (view t ~key)

(* Lag introspection reads the live generation / watermark fields without
   the shard's ownership token: plain mutable int reads, racy against the
   owner mid-flight but memory-safe (immediate ints cannot tear), and
   exact whenever the engine is between calls.  Telemetry-grade. *)
let generation_lag t ~key =
  check_key t key;
  let lag =
    FW.generation t.shards.(key) - FW.View.generation (Atomic.get t.views.(key))
  in
  if lag < 0 then 0 else lag

let publication_lag t ~key =
  check_key t key;
  let lag =
    FW.points_seen t.shards.(key)
    - FW.View.points_seen (Atomic.get t.views.(key))
  in
  if lag < 0 then 0 else lag

(* Estimation queries feed the "latency.query" tracker; the timers are
   hand-rolled like the task timers so the disabled path costs one boolean
   load and no closure beyond the continuation.  Every query answers from
   the published view — wait-free, no lock, no live-shard access. *)
let view_query t key f =
  let lat = Obs.latency_enabled () in
  let t0 = if lat then Obs.now () else 0.0 in
  let v = f (view t ~key) in
  if lat then L.record t.l_query (Obs.now () -. t0);
  v

let length t ~key = FW.View.length (view t ~key)

let current_error t ~key =
  M.incr t.c_queries;
  view_query t key FW.View.current_error

let current_histogram t ~key =
  M.incr t.c_queries;
  view_query t key FW.View.current_histogram

let herror t ~key ~k ~x =
  M.incr t.c_queries;
  view_query t key (fun v -> FW.View.herror v ~k ~x)

let with_key t ~key ~f = with_shard t key f

(* --- batched queries --------------------------------------------------- *)

(* [Global]: the fold of the per-key answers over the published views in
   ascending key order, accumulated left-to-right from 0.0 —
   {!Query_op.scope}'s fixed float association, which the aggregation
   root reproduces from its leaves' per-key answers bit-for-bit. *)
let eval_global t q =
  let acc = ref 0.0 in
  for key = 0 to Array.length t.shards - 1 do
    acc := !acc +. Q.eval_view (Atomic.get t.views.(key)) q
  done;
  !acc

let query_many t qs =
  let lat = Obs.latency_enabled () in
  let t0 = if lat then Obs.now () else 0.0 in
  let out = Array.make (Array.length qs) 0.0 in
  Array.iteri
    (fun i (scope, q) ->
      out.(i) <-
        (match scope with
        | Q.Key key ->
          check_key t key;
          Q.eval_view (Atomic.get t.views.(key)) q
        | Q.Global -> eval_global t q))
    qs;
  M.add t.c_queries (Array.length qs);
  if lat then L.record t.l_query (Obs.now () -. t0);
  out

let query_global t q =
  let lat = Obs.latency_enabled () in
  let t0 = if lat then Obs.now () else 0.0 in
  let v = eval_global t q in
  M.incr t.c_queries;
  if lat then L.record t.l_query (Obs.now () -. t0);
  v

let total_points t = M.value t.c_points
let batches t = M.value t.c_batches
let lock_ops t = M.value t.c_lock_ops
let backpressure_waits t = M.value t.c_backpressure
let refresh_steals t = M.value t.c_steals
let queries t = M.value t.c_queries
let query_lock_ops t = M.value t.c_query_lock_ops
let snapshots_published t = M.value t.c_published

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun k _ -> acc := with_shard t k (fun fw -> f !acc k fw)) t.shards;
  !acc

let set_refresh_policy t policy =
  Array.iteri (fun k _ -> with_shard t k (fun fw -> FW.set_refresh_policy fw policy)) t.shards

(* --- persistence ---------------------------------------------------- *)

module Codec = Sh_persist.Codec
module Frame = Sh_persist.Frame
module P = Sh_persist.Persist

let engine_tag = Char.code 'S'

(* Quiescence protocol: every batch drains its rings before [ingest]
   returns, so between engine calls the rings and overflow buffers are
   empty — but a checkpoint must not silently trust that, so it drains any
   residual hand-off state into the shards (on the caller, which is safe
   under the no-concurrent-ingest contract) before encoding a frame.  A
   frame therefore always captures a shard with no in-flight values. *)
let quiesce t =
  for k = 0 to Array.length t.shards - 1 do
    t.drain_one k
  done

(* The checkpoint byte layout: persist header, one meta frame (tag, shard
   count, point/batch/refresh totals), then one frame per shard in key
   order. *)
let encode_frames t =
  quiesce t;
  let meta = Buffer.create 32 in
  Codec.put_u8 meta engine_tag;
  Codec.put_varint meta (Array.length t.shards);
  Codec.put_varint meta (M.value t.c_points);
  Codec.put_varint meta (M.value t.c_batches);
  Codec.put_varint meta (M.value t.c_refreshes);
  let shard_frames =
    Array.to_list
      (Array.mapi
         (fun k _ ->
            let payload = Buffer.create 256 in
            with_shard t k (fun fw -> FW.encode payload fw);
            Frame.frame_string (Buffer.contents payload))
         t.shards)
  in
  (Frame.header_string (), Frame.frame_string (Buffer.contents meta) :: shard_frames)

let checkpoint t ~file =
  Obs.with_span "engine.checkpoint" @@ fun () ->
  let header, frames = encode_frames t in
  P.write_file_atomic ~path:file ~header ~frames;
  M.incr P.c_snapshots

let decode_shards r =
  Frame.read_header r;
  let meta = Frame.read_frame r in
  let tag = Codec.get_u8 meta in
  if tag <> engine_tag then
    Codec.corruptf "Shard_engine: tag %d is not an engine checkpoint" tag;
  let shards = Codec.get_varint meta in
  let points = Codec.get_varint meta in
  let batches = Codec.get_varint meta in
  let refreshes = Codec.get_varint meta in
  Codec.expect_end meta ~what:"engine meta frame";
  if shards < 1 then
    Codec.corruptf "Shard_engine: shard count %d < 1" shards;
  (* Sequential decode in key order: deterministic instance names, and
     each shard's first refresh happens inside FW.decode. *)
  let shard_arr =
    Array.init shards (fun _ ->
        let fr = Frame.read_frame r in
        let fw = FW.decode fr in
        Codec.expect_end fr ~what:"shard frame";
        fw)
  in
  (* Every shard frame is CRC-valid on its own, so nothing above stops a
     file whose shards disagree on geometry; the engine (and everything
     that reports one window for it) assumes they agree. *)
  let fw0 = shard_arr.(0) in
  Array.iteri
    (fun k fw ->
       if FW.window fw <> FW.window fw0 || FW.buckets fw <> FW.buckets fw0
          || not (Float.equal (FW.epsilon fw) (FW.epsilon fw0))
       then
         Codec.corruptf
           "Shard_engine: shard %d geometry (window %d, buckets %d, epsilon %g) \
            differs from shard 0 (window %d, buckets %d, epsilon %g)"
           k (FW.window fw) (FW.buckets fw) (FW.epsilon fw) (FW.window fw0)
           (FW.buckets fw0) (FW.epsilon fw0))
    shard_arr;
  Codec.expect_end r ~what:"engine checkpoint";
  (shard_arr, points, batches, refreshes)

let restore_from ~pool ~file =
  Obs.with_span "engine.restore" @@ fun () ->
  P.rejecting @@ fun () ->
  let r = Codec.of_string (P.read_file file) in
  let shard_arr, points, batches, refreshes = decode_shards r in
  let t = build ~ring_capacity:default_ring_capacity ~pool shard_arr in
  M.add t.c_points points;
  M.add t.c_batches batches;
  M.add t.c_refreshes refreshes;
  M.incr P.c_restores;
  t
