module FW = Stream_histogram.Fixed_window
module Q = Stream_histogram.Query_op
module Obs = Sh_obs.Obs
module M = Sh_obs.Metric
module L = Sh_obs.Latency

(* One shard = one independent fixed-window summary, under static
   ownership: each owner (a slot of the domain pool) exclusively applies
   a contiguous slice of shards, and nothing on the per-point path locks
   or CASes. *)

(* The read-plane atomics are spread out by this stride so neighbouring
   shards — which may belong to different owners — never share a cache
   line.  8 words = 64 bytes on every 64-bit target. *)
let pad_stride = 8

(* The engine.* families and the engine's latency trackers: process-wide
   sums over every engine.  An engine's own totals live in its atomics
   below; [tally] moves the same delta into both. *)
let c_points = M.counter "engine.points"
let c_batches = M.counter "engine.batches"
let c_refreshes = M.counter "engine.refresh_sweeps"
let c_steals = M.counter "engine.refresh_steals"
let c_queries = M.counter "engine.queries"
let c_published = M.counter "engine.snapshots_published"

(* Latency trackers (gated by [Obs.set_latency_enabled]): apply and sweep
   durations are recorded inside the pool tasks, one per owner task;
   ingest batches and queries by the caller.  Never per point: a
   tracker's mutex is taken a few times per batch at most. *)
let l_ingest = L.tracker "latency.ingest_batch"
let l_apply = L.tracker "latency.shard_apply"
let l_sweep = L.tracker "latency.refresh_sweep"
let l_query = L.tracker "latency.query"

(* Every engine moves the first list, so [build] exposes it; only
   [refresh_all] sweeps, so it exposes the second. *)
let built =
  Obs.
    [ Counter c_points; Counter c_batches; Counter c_queries; Counter c_published;
      Tracker l_ingest; Tracker l_apply; Tracker l_query ]

let swept = Obs.[ Counter c_refreshes; Counter c_steals; Tracker l_sweep ]

let tally a c n =
  ignore (Atomic.fetch_and_add a n);
  M.add c n

(* A published view and the number of readers evaluating it.  A reader
   pins the cell in its slot before reading the view (see [pin]); the
   publisher refills only a cell that has left its slot and that it then
   sees unpinned, so no reader ever reads a view being refilled. *)
type cell = { view : FW.View.t; pins : int Atomic.t }

let cell view = { view; pins = Atomic.make 0 }

type t = {
  pool : Domain_pool.t;
  shards : FW.t array;
  (* --- ownership map: owner o applies shards
     [slice_lo.(o) .. slice_hi.(o) - 1] (see [build]); owners =
     min(domains, shards) so every owner has a non-empty slice.  The
     tasks close over the map; [refresh_all] rewinds the sweep cursors
     to [slice_lo]. *)
  slice_lo : int array;
  (* --- ingest: a batch is stably counting-sorted by key into [buf]
     (grown to the largest batch, then reused), shard k's [cnt.(k)]
     points starting at [off.(k)] in arrival order; one apply task per
     owner then pushes each owned shard's run.  Only the caller writes
     them, never while a task runs, and nothing in them carries over
     from one engine call to the next. *)
  cnt : int array;
  off : int array;
  buf : float array ref;
  apply_tasks : (unit -> unit) array; (* one per owner *)
  (* --- refresh: work-stealing sweep.  Each owner claims shards from its
     own slice through a per-owner atomic cursor, then steals from other
     owners' cursors once its slice is done — a Zipf-hot slice cannot
     serialise the sweep on one domain. *)
  cursors : int Atomic.t array;
  warm_sweep : (unit -> unit) array;
  cold_sweep : (unit -> unit) array;
  (* --- RCU read plane: one padded atomic slot per shard holding the
     view published at that shard's last refresh.  The shard's publisher
     (the apply/sweep task that refreshed it) republishes whenever the
     live generation has advanced past the published one, refilling its
     spare view rather than allocating one; readers pin the cell in the
     slot and evaluate against the view (a ring copy and the shard's
     lists, lent read-only) — lock-free, never touching what the owner
     writes. *)
  views : cell Atomic.t array;
  publish : int -> int -> unit; (* [publish o k]: owner o republishes shard k if stale *)
  (* --- this engine's totals: what [total_points] & co. and the
     checkpoint's meta frame read.  Atomic because pool tasks (steals,
     publications) and reader domains (queries) add to them, and a
     reader domain may read [total_points] mid-ingest. *)
  points : int Atomic.t;
  batches : int Atomic.t;
  refreshes : int Atomic.t;
  steals : int Atomic.t;
  queries : int Atomic.t;
  published : int Atomic.t;
}

(* Wire an engine around an existing shard array — shared by [create]
   (fresh summaries) and [restore_from] (decoded ones). *)
let build ~pool shard_arr =
  Obs.expose built;
  let shards = Array.length shard_arr in
  let steals = Atomic.make 0 and published = Atomic.make 0 in
  (* Read-plane slots.  Every shard starts with a real view (capturing
     refreshes, which is a no-op on decoded shards and trivial on empty
     fresh ones), so readers never see a sentinel.  The throwaway spacer
     allocations keep consecutive atomics off one cache line: a reader
     polling shard k must not contend with the owner publishing shard
     k+1. *)
  let views =
    Array.init shards (fun k ->
        ignore (Sys.opaque_identity (Array.make pad_stride 0));
        Atomic.make (cell (FW.view shard_arr.(k))))
  in
  tally published c_published shards;
  (* contiguous slices, remainder spread over the first owners *)
  let owners = max 1 (min (Domain_pool.domains pool) shards) in
  (* One spare cell per owner: the cell its last publication retired. *)
  let spares = Array.make owners None in
  (* Owner o republishes shard k's view if its live generation moved past
     the published one.  Only called with exclusive access to the shard
     (the task running as owner o, stealing or not), which makes the
     needs_refresh/generation reads stable; the publication points are
     refresh completions — an apply that left the shard dirty under a
     [Lazy] / mid-cadence [Every k] policy publishes nothing.

     The new view is o's spare, refilled, if it is unpinned, else a
     fresh one; the cell it replaces becomes o's next spare.  The spare
     is in no slot, so once it is seen unpinned no reader is reading it,
     and a reader still on its way sees its slot moved and retries (see
     [pin]). *)
  let publish o k =
    let fw = shard_arr.(k) in
    if
      (not (FW.needs_refresh fw))
      && FW.generation fw <> FW.View.generation (Atomic.get views.(k)).view
    then begin
      let c =
        match spares.(o) with
        | Some spare when Atomic.get spare.pins = 0 ->
          FW.view_into fw spare.view;
          spare
        | _ -> cell (FW.view fw)
      in
      spares.(o) <- Some (Atomic.exchange views.(k) c);
      tally published c_published 1
    end
  in
  let slice_lo = Array.init owners (fun o -> o * shards / owners) in
  let slice_hi = Array.init owners (fun o -> (o + 1) * shards / owners) in
  let cnt = Array.make shards 0 in
  let off = Array.make shards 0 in
  let buf = ref [||] in
  (* Apply each owned shard's run of the sorted batch as one push_slice,
     then publish: the Every-k boundary publication point (push_slice
     refreshed iff the policy fired, and publish keys off that).  Timing
     is hand-rolled (no [L.time] closure) so the disabled path stays
     allocation-free: one boolean load per task. *)
  let apply_task o =
    fun () ->
      let lat = Obs.latency_enabled () in
      let t0 = if lat then Obs.now () else 0.0 in
      let buf = !buf in
      for k = slice_lo.(o) to slice_hi.(o) - 1 do
        if cnt.(k) > 0 then begin
          FW.push_slice shard_arr.(k) buf ~pos:off.(k) ~len:cnt.(k);
          publish o k
        end
      done;
      if lat then L.record l_apply (Obs.now () -. t0)
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
      publish o k
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
          tally steals c_steals 1;
          refresh !k;
          k := claim o'
        done
      done;
      if lat then L.record l_sweep (Obs.now () -. t0)
  in
  {
    pool;
    shards = shard_arr;
    slice_lo;
    cnt;
    off;
    buf;
    apply_tasks = Array.init owners apply_task;
    cursors;
    warm_sweep = Array.init owners (sweep_task ~cold:false);
    cold_sweep = Array.init owners (sweep_task ~cold:true);
    views;
    publish;
    points = Atomic.make 0;
    batches = Atomic.make 0;
    refreshes = Atomic.make 0;
    steals;
    queries = Atomic.make 0;
    published;
  }

let create ~pool ~shards ~window ~buckets ~epsilon =
  if shards < 1 then invalid_arg "Shard_engine.create: shards must be >= 1";
  build ~pool (Array.init shards (fun _ -> FW.create ~window ~buckets ~epsilon))

let shard_count t = Array.length t.shards

let check_key t key =
  if key < 0 || key >= Array.length t.shards then
    invalid_arg (Printf.sprintf "Shard_engine: key %d out of range [0, %d)" key (Array.length t.shards))

(* Run [f] on the live shard.  Exclusivity comes from the call-site
   discipline (live-shard access does not overlap an in-flight ingest /
   [refresh_all] call; see the .mli).  [f] may have refreshed the shard,
   so the view is republished before returning, as owner 0: no task is
   running to use its spare. *)
let with_shard t key f =
  check_key t key;
  let v = f t.shards.(key) in
  t.publish 0 key;
  v

(* The one ingest routine, shared by [ingest_groups] and
   [ingest_columns]: a stable counting sort of the batch by key, then one
   apply task per owner.  [count] validates the whole batch (raising
   before anything is ingested) while adding each key's points to the
   zeroed [t.cnt], and returns the batch size; [scatter] writes the
   values into [t.buf] walking the batch backwards, moving [t.off.(k)]
   down from the end of key k's run to its start — so every shard's run
   is contiguous, in arrival order, and gets exactly one [push_slice]:
   the per-batch refresh amortisation of the sequential path carries
   over unchanged.
   [t.cnt], [t.off] and [t.buf] make the engine single-producer:
   concurrent ingest calls on one engine would race on them. *)
let route t ~count ~scatter =
  let lat = Obs.latency_enabled () in
  let t0 = if lat then Obs.now () else 0.0 in
  let cnt = t.cnt and off = t.off in
  Array.fill cnt 0 (Array.length cnt) 0;
  let nb = count cnt in
  if nb > 0 then begin
    let ends = ref 0 in
    for k = 0 to Array.length cnt - 1 do
      ends := !ends + cnt.(k);
      off.(k) <- !ends
    done;
    if Array.length !(t.buf) < nb then t.buf := Array.make nb 0.0;
    scatter !(t.buf) off;
    ignore (Domain_pool.run t.pool t.apply_tasks);
    tally t.points c_points nb;
    tally t.batches c_batches 1;
    if lat then L.record l_ingest (Obs.now () -. t0)
  end

(* Pre-grouped ingest: the batch arrives as (key, values) runs — the shape
   of a decoded network ingest frame — and each run is blitted whole,
   without ever building per-point (key, value) pairs. *)
let ingest_groups t groups =
  route t
    ~count:(fun cnt ->
      Array.fold_left
        (fun nb (k, vs) ->
          check_key t k;
          (* a loop, not [Array.for_all]: a closure call boxes each value *)
          for i = 0 to Array.length vs - 1 do
            if not (Float.is_finite vs.(i)) then
              invalid_arg "Shard_engine.ingest_groups: non-finite value"
          done;
          cnt.(k) <- cnt.(k) + Array.length vs;
          nb + Array.length vs)
        0 groups)
    ~scatter:(fun buf off ->
      for g = Array.length groups - 1 downto 0 do
        let k, vs = groups.(g) in
        let n = Array.length vs in
        off.(k) <- off.(k) - n;
        Array.blit vs 0 buf off.(k) n
      done)

(* Column ingest: row i is the point [values.(i)] for key [keys.(i)] —
   the serve loop's decoded round — scattered point by point, with no
   per-point pairs or per-run arrays in between. *)
let ingest_columns t ~keys ~values ~len =
  if len < 0 || len > Array.length keys || len > Array.length values then
    invalid_arg "Shard_engine.ingest_columns: len out of range";
  route t
    ~count:(fun cnt ->
      for i = 0 to len - 1 do
        let k = keys.(i) in
        check_key t k;
        if not (Float.is_finite values.(i)) then
          invalid_arg "Shard_engine.ingest_columns: non-finite value";
        cnt.(k) <- cnt.(k) + 1
      done;
      len)
    ~scatter:(fun buf off ->
      for i = len - 1 downto 0 do
        let k = keys.(i) in
        off.(k) <- off.(k) - 1;
        buf.(off.(k)) <- values.(i)
      done)

(* Rebuild every stale shard's interval lists across the pool: the batched
   refresh, as a work-stealing sweep so skewed per-shard costs cannot
   serialise on one owner. *)
let refresh_all ?(cold = false) t =
  Obs.expose swept;
  Array.iteri (fun o c -> Atomic.set c t.slice_lo.(o)) t.cursors;
  ignore (Domain_pool.run t.pool (if cold then t.cold_sweep else t.warm_sweep));
  tally t.refreshes c_refreshes 1

let pool t = t.pool

(* --- the read plane --------------------------------------------------- *)

(* Pin the cell in [slot]: count ourselves in, then check that the slot
   still holds it.  If it moved, the cell may already be a publisher's
   spare: count ourselves out and retry.  Lock-free — a retry means the
   key was republished in between. *)
let rec pin slot =
  let c = Atomic.get slot in
  Atomic.incr c.pins;
  if Atomic.get slot == c then c
  else begin
    Atomic.decr c.pins;
    pin slot
  end

let slot t key =
  check_key t key;
  t.views.(key)

(* One evaluation, [f view a], against a pinned view ([a] spares the
   callers a closure per query). *)
let with_pinned slot f a =
  let c = pin slot in
  match f c.view a with
  | v ->
    Atomic.decr c.pins;
    v
  | exception e ->
    Atomic.decr c.pins;
    raise e

let with_view t ~key ~f = with_pinned (slot t key) (fun v () -> f v) ()

(* Pinned for good: the view handed out is never refilled. *)
let view t ~key = (pin (slot t key)).view

(* Lag introspection reads the live generation / watermark fields without
   the shard's ownership token, and the published view's without a pin:
   plain mutable int reads, racy against the owner mid-flight (a view
   being refilled may show another key's stamps) but memory-safe
   (immediate ints cannot tear), and exact whenever the engine is between
   calls.  Telemetry-grade. *)
let generation_lag t ~key =
  let published = Atomic.get (slot t key) in
  let lag = FW.generation t.shards.(key) - FW.View.generation published.view in
  if lag < 0 then 0 else lag

let publication_lag t ~key =
  let published = Atomic.get (slot t key) in
  let lag = FW.points_seen t.shards.(key) - FW.View.points_seen published.view in
  if lag < 0 then 0 else lag

let with_key t ~key ~f = with_shard t key f

(* --- batched queries --------------------------------------------------- *)

(* [Global]: the fold of the per-key answers over the published views in
   ascending key order, accumulated left-to-right from 0.0 —
   {!Query_op.scope}'s fixed float association, which the aggregation
   root reproduces from its leaves' per-key answers bit-for-bit. *)
let eval_global t q =
  let acc = ref 0.0 in
  for key = 0 to Array.length t.shards - 1 do
    acc := !acc +. with_pinned t.views.(key) Q.eval_view q
  done;
  !acc

(* One "latency.query" observation per call, the timer hand-rolled like
   the task timers so the disabled path costs one boolean load; with
   tracking on, [L.record] takes the tracker's mutex once per call. *)
let query_many t qs =
  let lat = Obs.latency_enabled () in
  let t0 = if lat then Obs.now () else 0.0 in
  let out = Array.make (Array.length qs) 0.0 in
  Array.iteri
    (fun i (scope, q) ->
      out.(i) <-
        (match scope with
        | Q.Key key -> with_pinned (slot t key) Q.eval_view q
        | Q.Global -> eval_global t q))
    qs;
  tally t.queries c_queries (Array.length qs);
  if lat then L.record l_query (Obs.now () -. t0);
  out

let total_points t = Atomic.get t.points
let batches t = Atomic.get t.batches
let refresh_steals t = Atomic.get t.steals
let queries t = Atomic.get t.queries
let snapshots_published t = Atomic.get t.published

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

(* The checkpoint byte layout: persist header, one meta frame (tag, shard
   count, point/batch/refresh totals), then one frame per shard in key
   order. *)
let encode_frames t =
  let meta = Buffer.create 32 in
  Codec.put_u8 meta engine_tag;
  Codec.put_varint meta (Array.length t.shards);
  Codec.put_varint meta (Atomic.get t.points);
  Codec.put_varint meta (Atomic.get t.batches);
  Codec.put_varint meta (Atomic.get t.refreshes);
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
  let header, frames = encode_frames t in
  P.write_file_atomic ~path:file ~header ~frames

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
  (* Sequential decode in key order; each shard's first refresh happens
     inside FW.decode. *)
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
  P.rejecting @@ fun () ->
  let r = Codec.of_string (P.read_file file) in
  let shard_arr, points, batches, refreshes = decode_shards r in
  let t = build ~pool shard_arr in
  tally t.points c_points points;
  tally t.batches c_batches batches;
  (* the restored sweep total moves the sweep family outside refresh_all *)
  Obs.expose [ Obs.Counter c_refreshes ];
  tally t.refreshes c_refreshes refreshes;
  t
