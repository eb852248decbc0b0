(* Bechamel micro-benchmarks: one Test.make per core operation.  The
   fixed-window per-point series across window lengths is the check of
   Theorem 1's polylog growth: per-point cost should grow far slower than
   the window length. *)

open Bechamel
open Toolkit

module Rng = Sh_util.Rng
module Source = Sh_gen.Source
module Wk = Sh_gen.Workloads
module P = Sh_prefix.Prefix_sums
module SP = Sh_prefix.Sliding_prefix
module V = Sh_histogram.Vopt
module FW = Stream_histogram.Fixed_window
module AG = Stream_histogram.Agglomerative
module Syn = Sh_wavelet.Synopsis
module Pool = Sh_par.Domain_pool
module SE = Sh_par.Shard_engine

let network ~seed ~len = Source.take (Wk.network (Rng.create ~seed) Wk.default_network) len

(* A cyclic feed so benchmarked closures never run out of input. *)
let feeder data =
  let i = ref 0 in
  fun () ->
    let v = data.(!i) in
    i := (!i + 1) mod Array.length data;
    v

let fw_push_and_refresh ~window ~buckets ~epsilon =
  let data = network ~seed:1 ~len:(2 * window) in
  let next = feeder data in
  let fw = FW.create ~window ~buckets ~epsilon in
  Array.iter (FW.push fw) data;
  FW.refresh fw;
  Test.make
    ~name:(Printf.sprintf "fw.push_and_refresh n=%d B=%d eps=%g" window buckets epsilon)
    (Staged.stage (fun () -> FW.push_and_refresh fw (next ())))

let fw_push_only =
  let fw = FW.create ~window:4096 ~buckets:16 ~epsilon:0.1 in
  let next = feeder (network ~seed:2 ~len:8192) in
  Test.make ~name:"fw.push (prefix update only)" (Staged.stage (fun () -> FW.push fw (next ())))

let ag_push =
  let ag = AG.create ~buckets:16 ~epsilon:0.1 in
  let next = feeder (network ~seed:3 ~len:8192) in
  Test.make ~name:"agglomerative.push B=16" (Staged.stage (fun () -> AG.push ag (next ())))

let sliding_push =
  let sp = SP.create ~capacity:4096 in
  let next = feeder (network ~seed:4 ~len:8192) in
  Test.make ~name:"sliding_prefix.push n=4096" (Staged.stage (fun () -> SP.push sp (next ())))

let vopt_build ~n ~buckets =
  let data = network ~seed:5 ~len:n in
  let p = P.make data in
  Test.make
    ~name:(Printf.sprintf "vopt.build n=%d B=%d" n buckets)
    (Staged.stage (fun () -> ignore (V.optimal_error p ~buckets)))

let wavelet_build ~n ~coeffs =
  let data = network ~seed:6 ~len:n in
  Test.make
    ~name:(Printf.sprintf "wavelet.build n=%d c=%d" n coeffs)
    (Staged.stage (fun () -> ignore (Syn.build data ~coeffs)))

let gk_insert =
  let g = Sh_gk.Gk.create ~epsilon:0.01 in
  let next = feeder (network ~seed:7 ~len:8192) in
  Test.make ~name:"gk.insert eps=0.01" (Staged.stage (fun () -> Sh_gk.Gk.insert g (next ())))

let streaming_wavelet_push =
  let sw = Sh_wavelet.Streaming.create ~budget:32 in
  let next = feeder (network ~seed:10 ~len:8192) in
  Test.make ~name:"streaming_wavelet.push c=32"
    (Staged.stage (fun () -> Sh_wavelet.Streaming.push sw (next ())))

let query_ops =
  let data = network ~seed:8 ~len:4096 in
  let h = V.build data ~buckets:32 in
  let s = Syn.build data ~coeffs:32 in
  let rng = Rng.create ~seed:9 in
  [
    Test.make ~name:"histogram.range_sum B=32"
      (Staged.stage (fun () ->
           let lo = 1 + Rng.int rng 4000 in
           ignore (Sh_histogram.Histogram.range_sum_estimate h ~lo ~hi:(lo + 90))));
    Test.make ~name:"wavelet.range_sum c=32"
      (Staged.stage (fun () ->
           let lo = 1 + Rng.int rng 4000 in
           ignore (Syn.range_sum_estimate s ~lo ~hi:(lo + 90))));
  ]

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

(* Run a bechamel group and return [(name, ns/op)] rows, sorted by name. *)
let measure_group ~quota tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> Float.nan
      in
      rows := (name, est) :: !rows)
    results;
  List.sort (fun (a, _) (b, _) -> compare a b) !rows

let run_group ~quota tests =
  Report.table ~headers:[ "operation"; "time/op" ]
    (List.map (fun (name, ns) -> [ name; pretty_ns ns ]) (measure_group ~quota tests))

(* --------------------------- cold vs warm fixed-window refresh head-to-head

   The warm-start rebuild (hint-seeded boundary searches + double-buffered
   lists) must beat a cold rebuild on both wall-clock and HERROR
   evaluations; this experiment measures both and feeds BENCH_fixed_window
   .json via --json so the speedup is tracked across PRs. *)

let fw_refresh_pair ~window ~buckets ~epsilon =
  let mk ~kind ~op =
    let data = network ~seed:21 ~len:(2 * window) in
    let next = feeder data in
    let fw = FW.create ~window ~buckets ~epsilon in
    Array.iter (FW.push fw) data;
    FW.refresh fw;
    Test.make
      ~name:(Printf.sprintf "fw.refresh.%s n=%d B=%d eps=%g" kind window buckets epsilon)
      (Staged.stage (fun () -> op fw (next ())))
  in
  [
    mk ~kind:"warm" ~op:(fun fw v -> FW.push_and_refresh fw v);
    mk ~kind:"cold" ~op:(fun fw v ->
        FW.push fw v;
        FW.refresh ~cold:true fw);
  ]

(* Per-arrival work counters for one slide each way, from identical
   states.  Three regimes share the same data: warm with the HERROR memo
   on (the production path), warm with the memo off (what every probe
   would cost if executed), and cold.  [steps] counts only executed probe
   steps, so warm-memo-on steps < warm-memo-off steps is the memo win. *)
type eval_stats = {
  evals : float;       (* logical HERROR evaluations / push (memo hits included) *)
  steps : float;       (* executed search steps / push *)
  scan : float;        (* subset of [steps] inside candidate scans / push *)
  cands : float;       (* candidates the scans evaluated / push *)
  hits : int;          (* boundary-hint hits over the whole run *)
  misses : int;
  memo_probes : int;
  memo_hits : int;
}

let fw_eval_stats ~window ~buckets ~epsilon ~pushes =
  let data = network ~seed:22 ~len:(window + pushes) in
  let run ~cold ~memo =
    let fw = FW.create ~window ~buckets ~epsilon in
    FW.set_memoisation fw memo;
    for i = 0 to window - 1 do
      FW.push fw data.(i)
    done;
    FW.refresh fw;
    let before = FW.work_counters fw in
    for i = window to window + pushes - 1 do
      FW.push fw data.(i);
      FW.refresh ~cold fw
    done;
    let after = FW.work_counters fw in
    let per f = Float.of_int (f after - f before) /. Float.of_int pushes in
    {
      evals = per (fun c -> c.FW.herror_evaluations);
      steps = per (fun c -> c.FW.search_steps);
      scan = per (fun c -> c.FW.scan_steps);
      cands = per (fun c -> c.FW.scan_candidates);
      hits = after.FW.hint_hits - before.FW.hint_hits;
      misses = after.FW.hint_misses - before.FW.hint_misses;
      memo_probes = after.FW.memo_probes - before.FW.memo_probes;
      memo_hits = after.FW.memo_hits - before.FW.memo_hits;
    }
  in
  (run ~cold:false ~memo:true, run ~cold:false ~memo:false, run ~cold:true ~memo:true)

(* A window's first refresh: [window] points pushed as one slice into a
   fresh summary, then one refresh — what every new key, set-up prefill and
   restore pays.  The default (seeded) refresh against the unassisted cold
   rebuild of the same windows, per window, over [keys] distinct windows.
   The counts are deterministic; the time is the fastest of [reps]
   wall-clock passes over fresh summaries, since a shared host's noise only
   ever adds time. *)
type first_stats = {
  ms : float;       (* wall-clock ms / first refresh *)
  f_evals : float;  (* logical HERROR evaluations / first refresh *)
  f_steps : float;  (* executed search steps / first refresh *)
  f_cands : float;  (* scan candidates / first refresh *)
}

let first_window = 1024
let first_buckets = 8
let first_epsilon = 0.2

let fw_first_refresh ~keys ~reps ~cold =
  let window = first_window in
  let data = Array.init keys (fun k -> network ~seed:(40 + k) ~len:window) in
  let pass () =
    let fws =
      Array.map
        (fun d ->
          let fw = FW.create ~window ~buckets:first_buckets ~epsilon:first_epsilon in
          FW.push_slice fw d ~pos:0 ~len:window;
          fw)
        data
    in
    let t0 = Sh_net.Clock.now () in
    Array.iter (fun fw -> FW.refresh ~cold fw) fws;
    (Sh_net.Clock.now () -. t0, fws)
  in
  let dt, fws = pass () in
  let dt = ref dt in
  for _ = 2 to reps do
    dt := Float.min !dt (fst (pass ()))
  done;
  let per f =
    Float.of_int (Array.fold_left (fun acc fw -> acc + f (FW.work_counters fw)) 0 fws)
    /. Float.of_int keys
  in
  {
    ms = !dt *. 1e3 /. Float.of_int keys;
    f_evals = per (fun c -> c.FW.herror_evaluations);
    f_steps = per (fun c -> c.FW.search_steps);
    f_cands = per (fun c -> c.FW.scan_candidates);
  }

(* ------------------------------------ steady-state allocation per push

   The SoA kernel owns every buffer it touches (interval columns, memo
   table, refresh scratch), so after warm-up a push + warm refresh should
   allocate almost nothing on the minor heap — the committed budget below
   is the CI regression gate (ci.yml fails the bench-smoke job when the
   measured figure exceeds it by more than 25%).  Measured at a fixed
   configuration regardless of --scale so the JSON is comparable across
   runs; the floor is ~2 words/push for the boxed float crossing the
   [push] boundary. *)
let alloc_window = 1024
let alloc_buckets = 8
let alloc_epsilon = 0.5
let budget_words_per_push = 64.0

let fw_alloc_stats ~pushes ~cold =
  let window = alloc_window in
  let warmup = 2 * window in
  let data = network ~seed:23 ~len:(window + warmup + pushes) in
  let fw = FW.create ~window ~buckets:alloc_buckets ~epsilon:alloc_epsilon in
  for i = 0 to window - 1 do
    FW.push fw data.(i)
  done;
  FW.refresh fw;
  (* warm-up slides: let the pooled buffers reach their steady-state sizes *)
  for i = window to window + warmup - 1 do
    FW.push fw data.(i);
    FW.refresh ~cold fw
  done;
  let w0 = Gc.minor_words () in
  for i = window + warmup to window + warmup + pushes - 1 do
    FW.push fw data.(i);
    FW.refresh ~cold fw
  done;
  (Gc.minor_words () -. w0) /. Float.of_int pushes

(* ------------------------------------------ engine memory per shard

   Words reachable from a Shard_engine (live summaries, published views,
   the ingest buffer, telemetry handles, the pool) divided by its shard count,
   once every shard's window is full and has had its first refresh, and
   the words the published views add to their summaries.  Deterministic
   counts at fixed shapes — the two e2e workloads' engines — so CI gates
   each at its committed budget (set about 2% above the measured count).  Per-domain
   state — the HERROR memo table and the pool of released list sets —
   belongs to no shard and is not counted there; [memo_arena_words] and
   the sustained row's pool words measure it separately, gated the same
   way.  Each engine runs on a fresh domain, so what earlier experiments
   left in the main domain's pool cannot change its counts. *)
type shape = {
  name : string;
  shards : int;
  window : int;
  buckets : int;
  epsilon : float;
  budget_words : int;        (* engine words/shard *)
  budget_view_words : int;   (* words/shard a published view adds *)
  budget_arena_words : int;  (* memo-arena words/domain *)
  budget_publish_words : int; (* words per publishing ingest_groups call *)
  every : int;               (* sustained publication: refresh cadence, *)
  per_call : int;            (* single-point groups per ingest_groups call *)
  budget_allocs : int;       (* list sets allocated as targets over the run *)
  budget_pool_words : int;   (* the domain's set pool after it *)
  budget_sustained_words : int;      (* engine words/shard after it *)
  budget_sustained_view_words : int; (* words/shard a view adds after it *)
}

let memory_shapes =
  [
    { name = "wire-bound"; shards = 64; window = 512; buckets = 8; epsilon = 0.5;
      budget_words = 4_320; budget_view_words = 1_130; budget_arena_words = 9_400;
      budget_publish_words = 115; every = 64; per_call = 16; budget_allocs = 2;
      budget_pool_words = 2_940; budget_sustained_words = 4_980;
      budget_sustained_view_words = 1_130 };
    { name = "refresh-bound"; shards = 16; window = 1024; buckets = 8; epsilon = 0.2;
      budget_words = 11_280; budget_view_words = 2_175; budget_arena_words = 18_800;
      budget_publish_words = 115; every = 16; per_call = 32; budget_allocs = 2;
      budget_pool_words = 7_380; budget_sustained_words = 12_330;
      budget_sustained_view_words = 2_175 };
  ]

let on_fresh_domain f = Domain.join (Domain.spawn f)

(* Words of one domain's HERROR memo table after a summary of this shape
   fills its window and refreshes: a fresh domain, so the table is sized
   for this shape alone — about 2 * (window + 1) * (buckets + 1). *)
let memo_arena_words ~window ~buckets ~epsilon =
  on_fresh_domain (fun () ->
      let fw = FW.create ~window ~buckets ~epsilon in
      FW.push_slice fw (network ~seed:60 ~len:window) ~pos:0 ~len:window;
      FW.refresh fw;
      FW.memo_arena_words ())

(* An engine of this shape whose every shard's window is full and has had
   its first refresh, on a one-domain pool. *)
let filled_engine pool ~shards ~window ~buckets ~epsilon =
  let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
  let data = Array.init shards (fun k -> network ~seed:(60 + k) ~len:window) in
  (* batches of 64 points per shard: the ingest buffer holds one batch *)
  let per = 64 in
  for r = 0 to (window / per) - 1 do
    SE.ingest eng
      (Array.init (shards * per) (fun i ->
           let k = i mod shards in
           (k, data.(k).((r * per) + (i / shards)))))
  done;
  SE.refresh_all eng;
  eng

(* Words of one shard's published view that its live summary does not
   hold, the mean over shards: the prefix-ring copy, the histogram and the
   stamps.  The view shares the summary's interval lists, which count
   once, with the summary.  Each view is pinned only while it is
   measured; the pair's own block is 3 words. *)
let view_words_per_shard eng =
  let shards = SE.shard_count eng in
  let words x = Obj.reachable_words (Obj.repr x) in
  let views = ref 0 in
  for key = 0 to shards - 1 do
    views :=
      !views
      + SE.with_key eng ~key ~f:(fun fw ->
            SE.with_view eng ~key ~f:(fun v -> words (v, fw) - words fw - 3))
  done;
  !views / shards

(* Engine words per shard, and the words one shard's published view adds. *)
let engine_words_per_shard ~shards ~window ~buckets ~epsilon =
  on_fresh_domain @@ fun () ->
  Pool.with_pool ~domains:1 (fun pool ->
      let eng = filled_engine pool ~shards ~window ~buckets ~epsilon in
      let views = view_words_per_shard eng in
      (Obj.reachable_words (Obj.repr eng) / shards, views))

type sustained = {
  publications : int;
  allocs : int;       (* list sets allocated as refresh targets *)
  pool_words : int;   (* the domain's set pool at the end *)
  view_words : int;   (* words/shard a published view adds, at the end *)
  words : int;        (* engine words/shard at the end *)
}

let sustained_points = 80_000

(* Sustained publication: an engine of this shape driven from empty under
   [Every every] by [sustained_points] uniform-key arrivals, [per_call]
   single-point groups per [ingest_groups] call, on a one-domain pool
   (one owner, so one spare view that rotates over every shard, as in
   the e2e server), on a fresh domain.  Counts the publications, the list
   sets allocated as refresh targets because the domain's pool had none
   ([FW.target_allocations]; the engine's own first sets are not
   targets), and the pool's words, and the view and engine words per
   shard after the run.  Deterministic for a fixed shape. *)
let sustained_publication { shards; window; buckets; epsilon; every; per_call; _ } =
  on_fresh_domain @@ fun () ->
  Pool.with_pool ~domains:1 (fun pool ->
      let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
      SE.set_refresh_policy eng (Stream_histogram.Params.Every every);
      let traffic = Sh_serve.Traffic.create (Rng.create ~seed:62) ~shards Uniform in
      let published0 = SE.snapshots_published eng in
      let allocs0 = FW.target_allocations () in
      let groups = Array.make per_call (0, [||]) in
      for _ = 1 to sustained_points / per_call do
        for i = 0 to per_call - 1 do
          let key, x = Sh_serve.Traffic.next traffic in
          groups.(i) <- (key, [| x |])
        done;
        SE.ingest_groups eng groups
      done;
      { publications = SE.snapshots_published eng - published0;
        allocs = FW.target_allocations () - allocs0;
        pool_words = FW.pool_words ();
        view_words = view_words_per_shard eng;
        words = Obj.reachable_words (Obj.repr eng) / shards })

(* Steady-state words allocated per publishing [ingest_groups] call: under
   [Eager] every call below (one 16-point group for one key, keys in
   turn) refreshes its shard and publishes one view.  Counted as minor +
   major - promoted words from [Gc.counters], with latency tracking off.
   OCaml 5.1's [Gc.counters] adds minor words only at a minor collection,
   so one is forced at each end of the measured calls.  The list sets
   that rotate through the domain's pool grow a column whenever one takes
   a list longer than its column; that still happens now and then after
   the windows fill, so the warm-up runs 64 calls per shard first.
   Deterministic for a fixed shape. *)
let publish_words_per_call ~shards ~window ~buckets ~epsilon =
  on_fresh_domain @@ fun () ->
  Pool.with_pool ~domains:1 (fun pool ->
      let eng = filled_engine pool ~shards ~window ~buckets ~epsilon in
      SE.set_refresh_policy eng Stream_histogram.Params.Eager;
      let warm = 64 * shards and calls = 8 * shards in
      let data = network ~seed:61 ~len:(16 * (warm + calls)) in
      let batches =
        Array.init (warm + calls) (fun i -> [| (i mod shards, Array.sub data (16 * i) 16) |])
      in
      let was = Sh_obs.Obs.latency_enabled () in
      Sh_obs.Obs.set_latency_enabled false;
      for i = 0 to warm - 1 do
        SE.ingest_groups eng batches.(i)
      done;
      Gc.minor ();
      let minor0, promoted0, major0 = Gc.counters () in
      for i = warm to warm + calls - 1 do
        SE.ingest_groups eng batches.(i)
      done;
      Gc.minor ();
      let minor1, promoted1, major1 = Gc.counters () in
      Sh_obs.Obs.set_latency_enabled was;
      (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)) /. Float.of_int calls)

let run_fw scale =
  Report.section "BENCH-MICRO-FW: cold vs warm fixed-window refresh";
  let quota, windows, counter_window, pushes =
    match scale with
    | Bench_config.Small -> (0.25, [ 256; 1024 ], 1024, 4)
    | Bench_config.Default -> (0.5, [ 256; 1024; 4096 ], 4096, 8)
    | Bench_config.Full -> (1.0, [ 256; 1024; 4096 ], 4096, 8)
  in
  let buckets = 8 and epsilon = 0.5 in
  let rows =
    measure_group ~quota
      (List.concat_map (fun w -> fw_refresh_pair ~window:w ~buckets ~epsilon) windows)
  in
  Report.table ~headers:[ "operation"; "time/op" ]
    (List.map (fun (name, ns) -> [ name; pretty_ns ns ]) rows);
  let cb = 16 and ce = 0.1 in
  let warm, warm_nomemo, cold =
    fw_eval_stats ~window:counter_window ~buckets:cb ~epsilon:ce ~pushes
  in
  let hit_rate s =
    if s.memo_probes = 0 then 0.0
    else Float.of_int s.memo_hits /. Float.of_int s.memo_probes
  in
  Report.note "per push_and_refresh at n=%d B=%d eps=%g over %d arrivals:" counter_window cb ce
    pushes;
  Report.table
    ~headers:
      [ "rebuild"; "herror evals/push"; "search steps/push"; "scan steps/push";
        "scan candidates/push"; "hint hits"; "hint misses"; "memo hit rate" ]
    [
      [ "warm (memo)"; Report.fmt_g warm.evals; Report.fmt_g warm.steps; Report.fmt_g warm.scan;
        Report.fmt_g warm.cands; string_of_int warm.hits; string_of_int warm.misses;
        Printf.sprintf "%.3f" (hit_rate warm) ];
      [ "warm (no memo)"; Report.fmt_g warm_nomemo.evals; Report.fmt_g warm_nomemo.steps;
        Report.fmt_g warm_nomemo.scan; Report.fmt_g warm_nomemo.cands;
        string_of_int warm_nomemo.hits; string_of_int warm_nomemo.misses; "-" ];
      [ "cold"; Report.fmt_g cold.evals; Report.fmt_g cold.steps; Report.fmt_g cold.scan;
        Report.fmt_g cold.cands; "-"; "-"; Printf.sprintf "%.3f" (hit_rate cold) ];
    ];
  Report.note "eval reduction (cold/warm): %.2fx; memo step reduction (no-memo/memo): %.2fx"
    (cold.evals /. warm.evals)
    (warm_nomemo.steps /. warm.steps);
  let first_keys, first_reps = match scale with Bench_config.Small -> (4, 2) | _ -> (16, 7) in
  let first = fw_first_refresh ~keys:first_keys ~reps:first_reps ~cold:false in
  let first_cold = fw_first_refresh ~keys:first_keys ~reps:first_reps ~cold:true in
  Report.note
    "first refresh of a filled window at n=%d B=%d eps=%g, per window over %d windows \
     (fastest of %d passes):"
    first_window first_buckets first_epsilon first_keys first_reps;
  let first_row tag f =
    [ tag; Printf.sprintf "%.2f" f.ms; Report.fmt_g f.f_evals; Report.fmt_g f.f_steps;
      Report.fmt_g f.f_cands ]
  in
  Report.table
    ~headers:[ "first refresh"; "ms"; "herror evals"; "search steps"; "scan candidates" ]
    [ first_row "seeded" first; first_row "cold" first_cold ];
  let eval_ratio = first.f_evals /. first_cold.f_evals in
  let cand_ratio = first.f_cands /. first_cold.f_cands in
  Report.note "seeded/cold: evals %.3f, candidates %.3f, time %.3f" eval_ratio cand_ratio
    (first.ms /. first_cold.ms);
  let alloc_pushes = match scale with Bench_config.Small -> 128 | _ -> 256 in
  let warm_words = fw_alloc_stats ~pushes:alloc_pushes ~cold:false in
  let cold_words = fw_alloc_stats ~pushes:alloc_pushes ~cold:true in
  Report.note "steady-state minor words/push at n=%d B=%d eps=%g over %d pushes:" alloc_window
    alloc_buckets alloc_epsilon alloc_pushes;
  Report.table
    ~headers:[ "rebuild"; "minor words/push"; "budget" ]
    [
      [ "warm"; Report.fmt_g warm_words; Report.fmt_g budget_words_per_push ];
      [ "cold"; Report.fmt_g cold_words; "-" ];
    ];
  (* snapshot the registry before the memory engines add their work to
     the families: it reports the experiments above *)
  let registry = Report.registry_json () in
  let memory =
    List.map
      (fun ({ shards; window; buckets; epsilon; _ } as shape) ->
        let words, view_words = engine_words_per_shard ~shards ~window ~buckets ~epsilon in
        ( shape, words, view_words, memo_arena_words ~window ~buckets ~epsilon,
          publish_words_per_call ~shards ~window ~buckets ~epsilon,
          sustained_publication shape ))
      memory_shapes
  in
  Report.note
    "engine words/shard and the words/shard published views add to their summaries, after \
     every shard's first refresh; memo-arena words per domain; steady-state words per \
     publishing ingest_groups call:";
  Report.table
    ~headers:
      [ "shape"; "S"; "n"; "B"; "eps"; "words/shard"; "budget"; "view words"; "budget";
        "arena words"; "budget"; "words/publish"; "budget" ]
    (List.map
       (fun (sh, words, vwords, arena, pwords, _) ->
         [ sh.name; string_of_int sh.shards; string_of_int sh.window; string_of_int sh.buckets;
           Report.fmt_g sh.epsilon; string_of_int words; string_of_int sh.budget_words;
           string_of_int vwords; string_of_int sh.budget_view_words; string_of_int arena;
           string_of_int sh.budget_arena_words; Printf.sprintf "%.1f" pwords;
           string_of_int sh.budget_publish_words ])
       memory);
  Report.note
    "sustained publication from empty over %d uniform-key points (single-point groups, one \
     domain): list sets allocated as refresh targets, the domain's set-pool words, and the \
     views' added and the engine's words/shard after the run:"
    sustained_points;
  Report.table
    ~headers:
      [ "shape"; "refresh"; "groups/call"; "publications"; "target allocs"; "budget";
        "pool words"; "budget"; "view words"; "budget"; "words/shard"; "budget" ]
    (List.map
       (fun (sh, _, _, _, _, sus) ->
         [ sh.name; Printf.sprintf "every:%d" sh.every; string_of_int sh.per_call;
           string_of_int sus.publications; string_of_int sus.allocs;
           string_of_int sh.budget_allocs; string_of_int sus.pool_words;
           string_of_int sh.budget_pool_words; string_of_int sus.view_words;
           string_of_int sh.budget_sustained_view_words; string_of_int sus.words;
           string_of_int sh.budget_sustained_words ])
       memory);
  let bench_json =
    Report.Jlist
      (List.map
         (fun (name, ns) -> Report.Jobj [ ("name", Report.Jstring name); ("ns_per_op", Report.Jfloat ns) ])
         rows)
  in
  let side s extra =
    Report.Jobj
      ([ ("herror_evals_per_push", Report.Jfloat s.evals);
         ("search_steps_per_push", Report.Jfloat s.steps);
         ("scan_steps_per_push", Report.Jfloat s.scan);
         ("scan_candidates_per_push", Report.Jfloat s.cands) ]
      @ extra)
  in
  let memo_fields s =
    [
      ("memo_probes", Report.Jint s.memo_probes);
      ("memo_hits", Report.Jint s.memo_hits);
      ("memo_hit_rate", Report.Jfloat (hit_rate s));
    ]
  in
  Report.json_add "fixed_window"
    (Report.Jobj
       [
         ("bench_params", Report.Jobj [ ("buckets", Report.Jint buckets); ("epsilon", Report.Jfloat epsilon) ]);
         ("benchmarks", bench_json);
         ("registry", registry);
         ( "work_counters",
           Report.Jobj
             [
               ("window", Report.Jint counter_window);
               ("buckets", Report.Jint cb);
               ("epsilon", Report.Jfloat ce);
               ("pushes", Report.Jint pushes);
               ( "warm",
                 side warm
                   ([ ("hint_hits", Report.Jint warm.hits);
                      ("hint_misses", Report.Jint warm.misses) ]
                   @ memo_fields warm) );
               ( "warm_no_memo",
                 side warm_nomemo
                   [ ("hint_hits", Report.Jint warm_nomemo.hits);
                     ("hint_misses", Report.Jint warm_nomemo.misses) ] );
               ("cold", side cold (memo_fields cold));
               ("eval_reduction", Report.Jfloat (cold.evals /. warm.evals));
               ("memo_step_reduction", Report.Jfloat (warm_nomemo.steps /. warm.steps));
             ] );
         ( "first_refresh",
           let first_json f =
             Report.Jobj
               [
                 ("ms", Report.Jfloat f.ms);
                 ("herror_evals", Report.Jfloat f.f_evals);
                 ("search_steps", Report.Jfloat f.f_steps);
                 ("scan_candidates", Report.Jfloat f.f_cands);
               ]
           in
           Report.Jobj
             [
               ("window", Report.Jint first_window);
               ("buckets", Report.Jint first_buckets);
               ("epsilon", Report.Jfloat first_epsilon);
               ("windows", Report.Jint first_keys);
               ("passes", Report.Jint first_reps);
               ("seeded", first_json first);
               ("cold", first_json first_cold);
               ("eval_ratio", Report.Jfloat eval_ratio);
               ("candidate_ratio", Report.Jfloat cand_ratio);
             ] );
         ( "memory",
           Report.Jobj
             (List.map
                (fun (sh, words, vwords, arena, pwords, sus) ->
                  ( sh.name,
                    Report.Jobj
                      [
                        ("shards", Report.Jint sh.shards);
                        ("window", Report.Jint sh.window);
                        ("buckets", Report.Jint sh.buckets);
                        ("epsilon", Report.Jfloat sh.epsilon);
                        ("budget_words_per_shard", Report.Jint sh.budget_words);
                        ("words_per_shard", Report.Jint words);
                        ("budget_view_words_per_shard", Report.Jint sh.budget_view_words);
                        ("view_words_per_shard", Report.Jint vwords);
                        ("budget_memo_arena_words", Report.Jint sh.budget_arena_words);
                        ("memo_arena_words", Report.Jint arena);
                        ("budget_words_per_publish", Report.Jint sh.budget_publish_words);
                        ("words_per_publish", Report.Jfloat pwords);
                        ( "sustained",
                          Report.Jobj
                            [
                              ("every", Report.Jint sh.every);
                              ("groups_per_call", Report.Jint sh.per_call);
                              ("points", Report.Jint sustained_points);
                              ("publications", Report.Jint sus.publications);
                              ("budget_target_allocations", Report.Jint sh.budget_allocs);
                              ("target_allocations", Report.Jint sus.allocs);
                              ("budget_pool_words", Report.Jint sh.budget_pool_words);
                              ("pool_words", Report.Jint sus.pool_words);
                              ( "budget_view_words_per_shard",
                                Report.Jint sh.budget_sustained_view_words );
                              ("view_words_per_shard", Report.Jint sus.view_words);
                              ("budget_words_per_shard", Report.Jint sh.budget_sustained_words);
                              ("words_per_shard", Report.Jint sus.words);
                            ] );
                      ] ))
                memory) );
         ( "alloc",
           Report.Jobj
             [
               ("window", Report.Jint alloc_window);
               ("buckets", Report.Jint alloc_buckets);
               ("epsilon", Report.Jfloat alloc_epsilon);
               ("pushes", Report.Jint alloc_pushes);
               ("budget_words_per_push", Report.Jfloat budget_words_per_push);
               ("warm_words_per_push", Report.Jfloat warm_words);
               ("cold_words_per_push", Report.Jfloat cold_words);
             ] );
       ])

(* ------------------------------------------- latency-tracker allocation

   Counters and gauges are single-word stores with no switch; the one
   telemetry cost left to budget is a latency tracker's GK insert. *)

(* Steady-state minor words per insert into a latency-tracker GK, at the
   trackers' default epsilon (0.001): warm the summary up, then insert
   pre-boxed values from a list so the loop itself allocates nothing. *)
let gk_epsilon = 0.001

let gk_words_per_insert ~inserts =
  let module Gk = Sh_gk.Gk in
  let g = Gk.create ~epsilon:gk_epsilon in
  let rng = Rng.create ~seed:3 in
  let values () = List.init inserts (fun _ -> Rng.exponential rng ~rate:1e4) in
  let warm = values () and measured = values () in
  List.iter (Gk.insert g) warm;
  let w0 = Gc.minor_words () in
  List.iter (Gk.insert g) measured;
  (Gc.minor_words () -. w0) /. Float.of_int inserts

let run_obs _scale =
  Report.section "BENCH-MICRO-OBS: latency-tracker GK allocation";
  let gk_inserts = 100_000 in
  let gk_words = gk_words_per_insert ~inserts:gk_inserts in
  Report.note "latency GK (eps=%g) steady-state minor words/insert over %d inserts: %.4f"
    gk_epsilon gk_inserts gk_words;
  Report.json_add "obs_overhead"
    (Report.Jobj
       [ ("gk_inserts", Report.Jint gk_inserts); ("gk_words_per_insert", Report.Jfloat gk_words) ])

(* ------------------------------ parallel multi-stream ingest scaling

   Shard independence means the engine's answers cannot change with the
   pool size (property-tested in test_par); this experiment measures what
   does change: wall-clock throughput of batched ingest + refresh sweeps
   as the domain pool grows.  Speedups need real cores — the JSON records
   the host's recommended domain count so runs from single-core containers
   are legible (there, extra domains only add synchronisation cost). *)

module Traffic = Sh_serve.Traffic

(* Pre-generated rounds of (key, value) arrivals, round-robin over shards,
   each shard's values drawn from its own split_ix-derived source — the
   same data for every pool size, so only wall-clock varies. *)
let par_round_data ~shards ~batch ~rounds ~seed =
  let sources = Traffic.sources (Rng.create ~seed) ~shards in
  Array.init rounds (fun _ ->
      Array.init batch (fun i ->
          let k = i mod shards in
          (k, sources.(k) ())))

let run_par scale =
  Report.section "BENCH-PARALLEL: sharded multi-stream ingest across a domain pool";
  let shards, window, buckets, epsilon, batch, rounds, domain_counts =
    match scale with
    | Bench_config.Small -> (16, 512, 8, 0.5, 256, 2, [ 1; 2 ])
    | Bench_config.Default | Bench_config.Full -> (16, 4096, 16, 0.1, 1024, 2, [ 1; 2; 4; 8 ])
  in
  let prefill = (par_round_data ~shards ~batch:(shards * window) ~rounds:1 ~seed:31).(0) in
  let round_data = par_round_data ~shards ~batch ~rounds ~seed:32 in
  let host_cores = Domain.recommended_domain_count () in
  let measure ~domains ~cold =
    Pool.with_pool ~domains (fun pool ->
        let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
        (* steady state before the clock starts: windows full, lists warm *)
        SE.ingest eng prefill;
        SE.refresh_all eng;
        let t0 = Sh_net.Clock.now () in
        Array.iter
          (fun b ->
            SE.ingest eng b;
            SE.refresh_all ~cold eng)
          round_data;
        let dt = Sh_net.Clock.now () -. t0 in
        Float.of_int (batch * rounds) /. dt)
  in
  (* one mode left — the JSON keeps the [modes] list shape so report
     tooling and cross-run diffs stay stable *)
  let mode_rows =
    [
      ( "pinned",
        List.map
          (fun d -> (d, measure ~domains:d ~cold:false, measure ~domains:d ~cold:true))
          domain_counts );
    ]
  in
  Report.note "S=%d shards, window n=%d, B=%d, eps=%g; %d rounds of %d-point batches, each \
               followed by a full refresh sweep" shards window buckets epsilon rounds batch;
  Report.note "host cores (recommended domain count): %d%s" host_cores
    (if host_cores < List.fold_left max 1 domain_counts then
       " — domain counts above this only measure oversubscription"
     else "");
  Report.table
    ~headers:[ "mode"; "domains"; "warm pts/s"; "ns/pt"; "speedup"; "cold pts/s"; "speedup" ]
    (List.concat_map
       (fun (mode, rows) ->
         let warm1, cold1 =
           match rows with (_, w, c) :: _ -> (w, c) | [] -> (Float.nan, Float.nan)
         in
         List.map
           (fun (d, w, c) ->
             [ mode; string_of_int d; Printf.sprintf "%.0f" w;
               Printf.sprintf "%.0f" (1e9 /. w); Printf.sprintf "%.2fx" (w /. warm1);
               Printf.sprintf "%.0f" c; Printf.sprintf "%.2fx" (c /. cold1) ])
           rows)
       mode_rows);
  Report.json_add "parallel"
    (Report.Jobj
       [
         ("shards", Report.Jint shards);
         ("window", Report.Jint window);
         ("buckets", Report.Jint buckets);
         ("epsilon", Report.Jfloat epsilon);
         ("batch", Report.Jint batch);
         ("rounds", Report.Jint rounds);
         ("host_cores", Report.Jint host_cores);
         ("recommended_domain_count", Report.Jint host_cores);
         ( "modes",
           Report.Jlist
             (List.map
                (fun (mode, rows) ->
                  let warm1, cold1 =
                    match rows with (_, w, c) :: _ -> (w, c) | [] -> (Float.nan, Float.nan)
                  in
                  Report.Jobj
                    [
                      ("mode", Report.Jstring mode);
                      ( "scaling",
                        Report.Jlist
                          (List.map
                             (fun (d, w, c) ->
                               Report.Jobj
                                 [
                                   ("domains", Report.Jint d);
                                   ("warm_points_per_sec", Report.Jfloat w);
                                   ("warm_ns_per_point", Report.Jfloat (1e9 /. w));
                                   ("warm_speedup_vs_1", Report.Jfloat (w /. warm1));
                                   ("cold_points_per_sec", Report.Jfloat c);
                                   ("cold_ns_per_point", Report.Jfloat (1e9 /. c));
                                   ("cold_speedup_vs_1", Report.Jfloat (c /. cold1));
                                 ])
                             rows) );
                    ])
                mode_rows) );
       ])

(* -------------------------------------- reads concurrent with ingest

   The read plane's headline number: query throughput from a dedicated
   reader domain while the engine ingests continuously.  Queries answer
   from the published snapshots, whose loads never wait for ingest.
   Latency tracking is off here, so no query takes the tracker's mutex.
   Like run_par, speedups need real cores; host_cores is in the JSON so
   single-core runs are legible. *)
let run_read scale =
  Report.section "BENCH-MICRO-READ: snapshot queries concurrent with ingest";
  let shards, window, buckets, epsilon, batch, qbatch, qrounds, domain_counts =
    match scale with
    | Bench_config.Small -> (8, 512, 8, 0.5, 256, 64, 200, [ 1; 2 ])
    | Bench_config.Default | Bench_config.Full -> (8, 1024, 8, 0.5, 512, 64, 2000, [ 1; 2; 4 ])
  in
  let prefill = (par_round_data ~shards ~batch:(shards * window) ~rounds:1 ~seed:41).(0) in
  let rounds = 4 in
  let round_data = par_round_data ~shards ~batch ~rounds ~seed:42 in
  (* one deterministic pool of mixed query batches, reused by every row *)
  let queries =
    let rng = Rng.create ~seed:43 in
    let scope = Traffic.one_in_16_global ~shards in
    Array.init 16 (fun _ ->
        Array.init qbatch (fun _ -> Traffic.random_query rng ~scope ~buckets ~window))
  in
  let host_cores = Domain.recommended_domain_count () in
  let measure ~domains =
    Pool.with_pool ~domains (fun pool ->
        let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
        SE.set_refresh_policy eng (Stream_histogram.Params.Every 64);
        SE.ingest eng prefill;
        SE.refresh_all eng;
        let stop = Atomic.make false in
        let reader =
          Domain.spawn (fun () ->
              let t0 = Sh_net.Clock.now () in
              for r = 0 to qrounds - 1 do
                ignore (SE.query_many eng queries.(r mod Array.length queries))
              done;
              let dt = Sh_net.Clock.now () -. t0 in
              Atomic.set stop true;
              Float.of_int (qrounds * qbatch) /. dt)
        in
        (* continuous ingest pressure on the caller until the reader is done
           (publications keep landing every 64 points per shard) *)
        let ingested = ref 0 in
        let ri = ref 0 in
        let t0 = Sh_net.Clock.now () in
        while not (Atomic.get stop) do
          SE.ingest eng round_data.(!ri mod rounds);
          incr ri;
          ingested := !ingested + batch
        done;
        let ingest_dt = Sh_net.Clock.now () -. t0 in
        let qps = Domain.join reader in
        let ingest_rate =
          if !ingested = 0 then 0.0 else Float.of_int !ingested /. Float.max ingest_dt 1e-9
        in
        (qps, ingest_rate))
  in
  let mode_rows =
    [ ("pinned", List.map (fun d -> (d, measure ~domains:d)) domain_counts) ]
  in
  Report.note
    "S=%d shards, window n=%d, B=%d, eps=%g; reader fires %d batches of %d mixed queries \
     while the caller ingests %d-point batches (refresh every 64 points/shard)"
    shards window buckets epsilon qrounds qbatch batch;
  Report.note "host cores (recommended domain count): %d%s" host_cores
    (if host_cores < List.fold_left max 1 domain_counts + 1 then
       " — reader + pool oversubscribe this host; qps ratios are not meaningful"
     else "");
  Report.table
    ~headers:[ "mode"; "domains"; "queries/s"; "ns/query"; "ingest pts/s" ]
    (List.concat_map
       (fun (mode, rows) ->
         List.map
           (fun (d, (qps, ips)) ->
             [ mode; string_of_int d; Printf.sprintf "%.0f" qps;
               Printf.sprintf "%.0f" (1e9 /. qps); Printf.sprintf "%.0f" ips ])
           rows)
       mode_rows);
  Report.json_add "micro_read"
    (Report.Jobj
       [
         ("shards", Report.Jint shards);
         ("window", Report.Jint window);
         ("buckets", Report.Jint buckets);
         ("epsilon", Report.Jfloat epsilon);
         ("batch", Report.Jint batch);
         ("query_batch", Report.Jint qbatch);
         ("query_rounds", Report.Jint qrounds);
         ("host_cores", Report.Jint host_cores);
         ( "modes",
           Report.Jlist
             (List.map
                (fun (mode, rows) ->
                  Report.Jobj
                    [
                      ("mode", Report.Jstring mode);
                      ( "scaling",
                        Report.Jlist
                          (List.map
                             (fun (d, (qps, ips)) ->
                               Report.Jobj
                                 [
                                   ("domains", Report.Jint d);
                                   ("queries_per_sec", Report.Jfloat qps);
                                   ("ns_per_query", Report.Jfloat (1e9 /. qps));
                                   ("ingest_points_per_sec", Report.Jfloat ips);
                                 ])
                             rows) );
                    ])
                mode_rows) );
       ])

let run scale =
  Report.section "BENCH-MICRO: per-operation costs (bechamel, OLS estimate)";
  let quota, fw_windows =
    match scale with
    | Bench_config.Small -> (0.25, [ 256 ])
    | Bench_config.Default -> (0.5, [ 256; 1024 ])
    | Bench_config.Full -> (1.0, [ 256; 1024; 4096 ])
  in
  Report.note "fw.push_and_refresh across window lengths tests the polylog per-point growth";
  let fw_tests =
    List.map (fun w -> fw_push_and_refresh ~window:w ~buckets:8 ~epsilon:0.5) fw_windows
  in
  let tests =
    fw_tests
    @ [ fw_push_only; ag_push; sliding_push; gk_insert ]
    @ [ vopt_build ~n:512 ~buckets:16; wavelet_build ~n:4096 ~coeffs:32 ]
    @ [ streaming_wavelet_push ]
    @ query_ops
  in
  run_group ~quota tests

(* --------------------------------------- snapshot / restore micro costs

   BENCH-MICRO-PERSIST (EXPERIMENTS.md): the durability tax.  The fw rows
   time one shard's share of a checkpoint: FW.encode wrapped in its
   CRC-guarded frame, and the frame check + FW.decode that restore runs
   per shard.  Size should be O(window) — two float arrays of prefix sums
   plus a few dozen bytes of parameters — and encoding a memcpy-scale walk
   of that state; decoding pays one extra (first, seeded) refresh to
   rebuild the interval lists.  The shard-engine row adds the file-backed
   atomic write path (temp + fsync-free rename on the bench host). *)

module Persist = Sh_persist.Persist
module Codec = Sh_persist.Codec
module Frame = Sh_persist.Frame

let fw_frame fw =
  let buf = Buffer.create 256 in
  FW.encode buf fw;
  Frame.frame_string (Buffer.contents buf)

let fw_of_frame image =
  let r = Codec.of_string image in
  let fr = Frame.read_frame r in
  let fw = FW.decode fr in
  Codec.expect_end fr ~what:"shard frame";
  Codec.expect_end r ~what:"bench image";
  fw

let timed_ns ~reps f =
  ignore (f ());
  (* warmup *)
  let t0 = Sh_net.Clock.now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Sh_net.Clock.now () -. t0) /. Float.of_int reps *. 1e9

let run_persist scale =
  Report.section "BENCH-MICRO-PERSIST: snapshot/restore and checkpoint costs";
  let fw_windows, reps, shards =
    match scale with
    | Bench_config.Small -> ([ 256; 1024 ], 20, 8)
    | Bench_config.Default | Bench_config.Full -> ([ 1024; 4096; 16384 ], 50, 8)
  in
  let buckets = 8 and epsilon = 0.5 in
  let fw_rows =
    List.map
      (fun window ->
        let fw = FW.create ~window ~buckets ~epsilon in
        Array.iter (FW.push fw) (network ~seed:21 ~len:(window + (window / 2)));
        FW.refresh fw;
        let image = fw_frame fw in
        let snap_ns = timed_ns ~reps (fun () -> fw_frame fw) in
        let restore_ns = timed_ns ~reps (fun () -> fw_of_frame image) in
        (window, String.length image, snap_ns, restore_ns))
      fw_windows
  in
  let ck_file = Filename.temp_file "shist_bench" ".ckpt" in
  let engine_row =
    Fun.protect
      ~finally:(fun () -> try Sys.remove ck_file with Sys_error _ -> ())
      (fun () ->
        Pool.with_pool ~domains:1 @@ fun pool ->
        let window = List.hd (List.rev fw_windows) in
        let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
        SE.ingest eng (par_round_data ~shards ~batch:(shards * window) ~rounds:1 ~seed:22).(0);
        SE.refresh_all eng;
        let ck_ns = timed_ns ~reps:(max 5 (reps / 5)) (fun () -> SE.checkpoint eng ~file:ck_file) in
        let rs_ns =
          timed_ns ~reps:(max 5 (reps / 5)) (fun () ->
              SE.restore_from ~pool ~file:ck_file)
        in
        let bytes = String.length (Persist.read_file ck_file) in
        (window, bytes, ck_ns, rs_ns))
  in
  let bytes_per_point w b = Float.of_int b /. Float.of_int w in
  Report.note "fixed-window shard frames at B=%d eps=%g (in-memory, %d reps); engine checkpoint \
               S=%d via temp-file + atomic rename" buckets epsilon reps shards;
  Report.table
    ~headers:[ "state"; "bytes"; "bytes/point"; "snapshot"; "restore" ]
    (List.map
       (fun (w, b, s, r) ->
         [ Printf.sprintf "fw n=%d" w; string_of_int b;
           Printf.sprintf "%.1f" (bytes_per_point w b); pretty_ns s; pretty_ns r ])
       fw_rows
    @ [ (let w, b, s, r = engine_row in
         [ Printf.sprintf "engine S=%d n=%d" shards w; string_of_int b;
           Printf.sprintf "%.1f" (Float.of_int b /. Float.of_int (shards * w)); pretty_ns s;
           pretty_ns r ]) ]);
  Report.json_add "persist"
    (Report.Jobj
       [
         ("buckets", Report.Jint buckets);
         ("epsilon", Report.Jfloat epsilon);
         ("reps", Report.Jint reps);
         ( "fixed_window",
           Report.Jlist
             (List.map
                (fun (w, b, s, r) ->
                  Report.Jobj
                    [
                      ("window", Report.Jint w);
                      ("snapshot_bytes", Report.Jint b);
                      ("bytes_per_point", Report.Jfloat (bytes_per_point w b));
                      ("snapshot_ns", Report.Jfloat s);
                      ("restore_ns", Report.Jfloat r);
                    ])
                fw_rows) );
         ( "shard_engine",
           let w, b, s, r = engine_row in
           Report.Jobj
             [
               ("shards", Report.Jint shards);
               ("window", Report.Jint w);
               ("checkpoint_bytes", Report.Jint b);
               ("checkpoint_ns", Report.Jfloat s);
               ("restore_ns", Report.Jfloat r);
             ] );
       ])

(* ------------------------------------------ loopback wire vs in-process

   The networked ingest plane's headline number: a serve loop on a
   Unix-domain socket, driven by pipelined loadgen-style clients, against
   the same engine fed directly through Shard_engine.ingest_groups with
   identical batches.  The sweep is connections x batch size; the ratio
   at large batches is the cost of the wire (framing + CRC + syscalls +
   the select loop), which per-connection batching is meant to amortise.
   On a single-core container the server domain and the client timeshare
   one CPU, so the ratio there is a floor on what real hardware gives. *)

module Net_addr = Sh_net.Addr
module Net_server = Sh_net.Server
module Net_client = Sh_net.Client
module Wire = Sh_net.Wire
module Qop = Stream_histogram.Query_op
module Gk = Sh_gk.Gk

(* Pre-grouped rounds: every (connection, round) gets its own groups
   array, round-robin keys, values from per-shard split_ix sources —
   identical data for the wire path and the in-process baseline. *)
let net_round_groups ~shards ~conns ~batch ~rounds ~seed =
  let sources = Traffic.sources (Rng.create ~seed) ~shards in
  Array.init rounds (fun _ ->
      Array.init conns (fun _ ->
          let per = max 1 (batch / shards) in
          let nkeys = min shards (max 1 (batch / per)) in
          let groups =
            Array.init nkeys (fun k ->
                let len = if k = nkeys - 1 then batch - (per * (nkeys - 1)) else per in
                (k, Array.init len (fun _ -> sources.(k) ())))
          in
          groups))

(* ------------------------------------------- serve-path allocation gate

   Words the serving domain allocates per point, on [wire-bound]'s shape
   (bench/e2e/spec.ml: 64 keys, window 512, B = 8, eps = 0.5, every:4096,
   16-point requests from two connections 8 deep, one request in 64 a
   query batch, every second one [Global]).  [Server.run ~max_points]
   runs on its own domain, its engine's windows filled in process first;
   one client domain pipelines a fixed seeded stream.  Counted on the
   serving domain only: [Gc.minor_words] (exact, per domain) plus words
   allocated directly in the major heap (major minus promoted, from
   [Gc.counters]), with latency tracking on as [shist serve] runs it.
   The stream is fixed, but how requests fall into serve-loop rounds
   depends on read timing, so the count varies a little from run to run;
   CI gates it at 1.25x the committed budget. *)

let wire_bound = (64, 512, 8, 0.5, 4096, 16)

(* above every count measured on a 2-vCPU host: 4.3-6.2 at small scale
   and 5.1-6.1 at default scale, the most where rounds were smallest
   (18-24 points per round); the parent's serve loop allocated 36-38 *)
let budget_server_words_per_point = 6.5

let serve_words_per_point ~points =
  let shards, window, buckets, epsilon, every, batch = wire_bound in
  let depth = 8 and conns = 2 and query_every = 64 in
  let sock = Filename.temp_file "shist-bench-words" ".sock" in
  Unix.unlink sock;
  let addr = Net_addr.Unix_sock sock in
  let listener = Net_server.listen addr in
  let was = Sh_obs.Obs.latency_enabled () in
  Sh_obs.Obs.set_latency_enabled true;
  let srv =
    Domain.spawn (fun () ->
        Pool.with_pool ~domains:1 (fun pool ->
            let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
            SE.set_refresh_policy eng (Stream_histogram.Params.Every every);
            let sources = Traffic.sources (Rng.create ~seed:71) ~shards in
            SE.ingest_groups eng
              (Array.init shards (fun k -> (k, Array.init window (fun _ -> sources.(k) ()))));
            Gc.minor ();
            let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
            let rep =
              Net_server.run ~max_points:points ~backend:(Net_server.engine eng)
                ~listeners:[ listener ] ()
            in
            let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
            (rep, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))))
  in
  (* the client: [conns] connections, each [depth] requests deep, until
     [points] points are sent; keys uniform, values per-key network
     streams, queries as bench/e2e/load.ml draws them *)
  let rng = Rng.create ~seed:72 in
  let sources = Traffic.sources (Rng.create ~seed:73) ~shards in
  let cnt = Array.make shards 0 and order = Array.make shards 0 in
  let request () =
    let distinct = ref 0 in
    Array.fill cnt 0 shards 0;
    for _ = 1 to batch do
      let k = Rng.int rng shards in
      if cnt.(k) = 0 then begin
        order.(!distinct) <- k;
        incr distinct
      end;
      cnt.(k) <- cnt.(k) + 1
    done;
    Array.init !distinct (fun i ->
        let k = order.(i) in
        (k, Array.init cnt.(k) (fun _ -> sources.(k) ())))
  in
  let op i =
    match i mod 4 with
    | 0 -> Qop.Current_error
    | 1 -> Qop.Herror { k = 1 + Rng.int rng buckets; x = Rng.int rng (window + 1) }
    | 2 ->
      let lo = 1 + Rng.int rng window in
      Qop.Range_sum { lo; hi = lo + Rng.int rng (window - lo + 1) }
    | _ -> Qop.Point_estimate { index = 1 + Rng.int rng window }
  in
  let batches = ref 0 in
  let query () =
    incr batches;
    if !batches mod 2 = 0 then Array.init 4 (fun i -> (Qop.Global, op i))
    else Array.init 64 (fun i -> (Qop.Key (Rng.int rng shards), op i))
  in
  let cs = Array.init conns (fun _ -> Net_client.connect ~timeout:60. ~retries:50 addr) in
  let sent = ref 0 and requests = ref 0 in
  let outstanding = Array.make conns 0 in
  let send c =
    incr requests;
    if !requests mod query_every = 0 then Net_client.send cs.(c) (Wire.Query (query ()))
    else begin
      sent := !sent + batch;
      Net_client.send cs.(c) (Wire.Ingest (request ()))
    end;
    outstanding.(c) <- outstanding.(c) + 1
  in
  (* the last request goes alone, once every other one is answered: the
     loop stops in the round that acks it, with nothing left unanswered *)
  let more () = !sent < points - batch in
  for c = 0 to conns - 1 do
    for _ = 1 to depth do
      if more () then send c
    done
  done;
  while Array.exists (fun n -> n > 0) outstanding do
    for c = 0 to conns - 1 do
      if outstanding.(c) > 0 then begin
        (match Net_client.recv cs.(c) with
        | Wire.Ack _ | Wire.Answers _ -> ()
        | _ -> failwith "micro-net: unexpected response");
        outstanding.(c) <- outstanding.(c) - 1;
        if more () then send c
      end
    done
  done;
  ignore (Net_client.ingest cs.(0) (request ()) : int);
  Array.iter Net_client.close cs;
  let rep, words = Domain.join srv in
  Sh_obs.Obs.set_latency_enabled was;
  Unix.close listener;
  (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
  assert (rep.Net_server.points = !sent + batch);
  (words /. Float.of_int rep.Net_server.points, rep.Net_server.ingest_rounds)

let run_net scale =
  Report.section "BENCH-MICRO-NET: loopback wire ingest vs in-process ingest_groups";
  let shards, window, buckets, epsilon, points, conn_counts, batch_sizes =
    match scale with
    | Bench_config.Small -> (16, 256, 8, 0.5, 8_192, [ 1; 2 ], [ 64; 512 ])
    | Bench_config.Default | Bench_config.Full ->
      (16, 512, 16, 0.1, 40_960, [ 1; 2; 4 ], [ 64; 512; 2048 ])
  in
  let host_cores = Domain.recommended_domain_count () in
  let policy = Stream_histogram.Params.Every 256 in
  let fresh_engine pool =
    let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
    SE.set_refresh_policy eng policy;
    eng
  in
  (* one loopback measurement: points/s, bytes/point, rtt quantiles (us) *)
  let measure_wire ~conns ~batch =
    let rounds = max 1 (points / (conns * batch)) in
    let data = net_round_groups ~shards ~conns ~batch ~rounds ~seed:51 in
    let sock = Filename.temp_file "shist-bench-net" ".sock" in
    Unix.unlink sock;
    let addr = Net_addr.Unix_sock sock in
    let listener = Net_server.listen addr in
    let srv =
      Domain.spawn (fun () ->
          Pool.with_pool ~domains:1 (fun pool ->
              let eng = fresh_engine pool in
              Net_server.run ~backend:(Net_server.engine eng) ~listeners:[ listener ] ()))
    in
    let cs = Array.init conns (fun _ -> Net_client.connect ~timeout:60. ~retries:50 addr) in
    let rtt = Gk.create ~epsilon:0.001 in
    let t_send = Array.make conns 0.0 in
    let acked = ref 0 in
    let t0 = Sh_net.Clock.now () in
    Array.iter
      (fun per_conn ->
        Array.iteri
          (fun i groups ->
            t_send.(i) <- Sh_net.Clock.now ();
            Net_client.send cs.(i) (Wire.Ingest groups))
          per_conn;
        Array.iteri
          (fun i _ ->
            (match Net_client.recv cs.(i) with
            | Wire.Ack n -> acked := !acked + n
            | _ -> failwith "micro-net: unexpected response");
            Gk.insert rtt (Sh_net.Clock.now () -. t_send.(i)))
          per_conn)
      data;
    let dt = Sh_net.Clock.now () -. t0 in
    let bytes =
      Array.fold_left
        (fun a c -> a + Net_client.bytes_in c + Net_client.bytes_out c)
        0 cs
    in
    Net_client.shutdown cs.(0);
    Array.iter Net_client.close cs;
    let rep = Domain.join srv in
    Unix.close listener;
    (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
    assert (rep.Net_server.points = !acked);
    let pps = Float.of_int !acked /. dt in
    let bpp = Float.of_int bytes /. Float.of_int (max 1 !acked) in
    let q phi = 1e6 *. Gk.quantile rtt phi in
    (pps, bpp, q 0.5, q 0.99, q 0.999, rep.Net_server.ingest_rounds)
  in
  (* the baseline: same group batches straight into the engine *)
  let measure_in_process ~batch =
    let rounds = max 1 (points / batch) in
    let data = net_round_groups ~shards ~conns:1 ~batch ~rounds ~seed:51 in
    Pool.with_pool ~domains:1 (fun pool ->
        let eng = fresh_engine pool in
        let t0 = Sh_net.Clock.now () in
        Array.iter (fun per_conn -> SE.ingest_groups eng per_conn.(0)) data;
        let dt = Sh_net.Clock.now () -. t0 in
        Float.of_int (SE.total_points eng) /. dt)
  in
  let words_points =
    match scale with Bench_config.Small -> 131_072 | Bench_config.Default | Bench_config.Full -> 524_288
  in
  let server_words, words_rounds = serve_words_per_point ~points:words_points in
  let baselines = List.map (fun b -> (b, measure_in_process ~batch:b)) batch_sizes in
  let sweep =
    List.concat_map
      (fun conns ->
        List.map
          (fun batch ->
            let pps, bpp, p50, p99, p999, rounds = measure_wire ~conns ~batch in
            (conns, batch, pps, bpp, p50, p99, p999, rounds))
          batch_sizes)
      conn_counts
  in
  let baseline_for b = List.assoc b baselines in
  Report.note "S=%d shards, window n=%d, B=%d, eps=%g, %s refresh; %d points per sweep \
               point over a Unix-domain socket" shards window buckets epsilon
    (Stream_histogram.Params.policy_to_string policy) points;
  Report.note "host cores (recommended domain count): %d%s" host_cores
    (if host_cores < 2 then
       " — server domain and clients timeshare one CPU; the loopback/in-process ratio is \
        a floor"
     else "");
  Report.table
    ~headers:[ "conns"; "batch"; "wire pts/s"; "vs in-proc"; "bytes/pt"; "rtt p50 us";
               "rtt p99 us"; "rounds" ]
    (List.map
       (fun (c, b, pps, bpp, p50, p99, _p999, rounds) ->
         [ string_of_int c; string_of_int b; Printf.sprintf "%.0f" pps;
           Printf.sprintf "%.2fx" (pps /. baseline_for b); Printf.sprintf "%.2f" bpp;
           Printf.sprintf "%.0f" p50; Printf.sprintf "%.0f" p99; string_of_int rounds ])
       sweep);
  List.iter
    (fun (b, pps) -> Report.note "in-process ingest_groups batch=%d: %.0f points/s" b pps)
    baselines;
  (* the committed headline: best ratio across the sweep at batch >= 512 *)
  let headline =
    List.fold_left
      (fun best (_, b, pps, _, _, _, _, _) ->
        if b >= 512 then Float.max best (pps /. baseline_for b) else best)
      0.0 sweep
  in
  Report.note "headline: loopback/in-process ratio %.2fx at batch >= 512 (target >= 0.5x)"
    headline;
  (let ws, ww, wb, we, wk, wbatch = wire_bound in
   Report.note
     "net.server_words_per_point: %.2f words allocated per point on the serving domain \
      (budget %.1f; wire-bound shape S=%d n=%d B=%d eps=%g every:%d, %d-point requests, \
      %d points in %d rounds)"
     server_words budget_server_words_per_point ws ww wb we wk wbatch words_points words_rounds);
  Report.json_add "net"
    (Report.Jobj
       [
         ( "server_words",
           let ws, ww, wb, we, wk, wbatch = wire_bound in
           Report.Jobj
             [
               ("shards", Report.Jint ws);
               ("window", Report.Jint ww);
               ("buckets", Report.Jint wb);
               ("epsilon", Report.Jfloat we);
               ("every", Report.Jint wk);
               ("batch", Report.Jint wbatch);
               ("points", Report.Jint words_points);
               ("ingest_rounds", Report.Jint words_rounds);
               ("words_per_point", Report.Jfloat server_words);
               ("budget_words_per_point", Report.Jfloat budget_server_words_per_point);
             ] );
         ("shards", Report.Jint shards);
         ("window", Report.Jint window);
         ("buckets", Report.Jint buckets);
         ("epsilon", Report.Jfloat epsilon);
         ("points", Report.Jint points);
         ("host_cores", Report.Jint host_cores);
         ("transport", Report.Jstring "unix-domain socket");
         ( "in_process",
           Report.Jlist
             (List.map
                (fun (b, pps) ->
                  Report.Jobj
                    [ ("batch", Report.Jint b); ("points_per_sec", Report.Jfloat pps) ])
                baselines) );
         ( "sweep",
           Report.Jlist
             (List.map
                (fun (c, b, pps, bpp, p50, p99, p999, rounds) ->
                  Report.Jobj
                    [
                      ("connections", Report.Jint c);
                      ("batch", Report.Jint b);
                      ("points_per_sec", Report.Jfloat pps);
                      ("ratio_vs_in_process", Report.Jfloat (pps /. baseline_for b));
                      ("bytes_per_point", Report.Jfloat bpp);
                      ("rtt_p50_us", Report.Jfloat p50);
                      ("rtt_p99_us", Report.Jfloat p99);
                      ("rtt_p999_us", Report.Jfloat p999);
                      ("server_ingest_rounds", Report.Jint rounds);
                    ])
                sweep) );
         ("headline_ratio_batch_ge_512", Report.Jfloat headline);
       ])
