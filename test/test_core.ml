module P = Sh_prefix.Prefix_sums
module H = Sh_histogram.Histogram
module V = Sh_histogram.Vopt
module FW = Stream_histogram.Fixed_window
module AG = Stream_histogram.Agglomerative

let feed_fw fw data = Array.iter (FW.push fw) data
let feed_ag ag data = Array.iter (AG.push ag) data

(* Approximation-guarantee slack: the paper's accounting gives (1 + eps)
   with delta = eps / 2B; our per-level evaluation adds one extra (1 +
   delta) factor (documented in fixed_window.ml), so we assert against
   (1 + 2 eps) plus an absolute epsilon for float noise. *)
let within_guarantee ~eps ~opt err = err <= ((1.0 +. (2.0 *. eps)) *. opt) +. 1e-6

(* ------------------------------------------------- paper worked example *)

let test_paper_example_1 () =
  (* Stream 100,0,0,0,1,1,1,1 with delta = 1, B = 2 (Example 1). *)
  let fw = FW.create_with_delta ~window:8 ~buckets:2 ~epsilon:1.0 ~delta:1.0 in
  feed_fw fw [| 100.; 0.; 0.; 0.; 1.; 1.; 1.; 1. |];
  FW.refresh fw;
  (* Slide: drop the 100, insert a 1 -> data 0,0,0,1,1,1,1,1.  The paper
     works through CreateList[1,8,1] producing intervals (1,3),(4,6),(7,8)
     and the optimal solution (1,3),(4,8) with zero error. *)
  FW.push_and_refresh fw 1.0;
  Helpers.check_close "optimal error found" 0.0 (FW.current_error fw);
  let h = FW.current_histogram fw in
  Alcotest.(check int) "two buckets" 2 (H.bucket_count h);
  let b1 = H.find_bucket h 1 in
  Alcotest.(check int) "first bucket is [1..3]" 3 b1.H.hi;
  Helpers.check_close "first bucket value 0" 0.0 b1.H.value;
  Helpers.check_close "second bucket value 1" 1.0 (H.point_estimate h 4);
  (* The interval endpoints of the level-1 list should be 3, 6, 8 as in the
     paper's walkthrough. *)
  Alcotest.(check (array int)) "three level-1 intervals" [| 3 |]
    [| (FW.interval_counts fw).(0) |]

let test_paper_example_1_first_window () =
  (* Before sliding: 100,0,0,0,1,1,1,1.  Optimal 2-histogram isolates the
     100: buckets [1..1], [2..8]. *)
  let fw = FW.create_with_delta ~window:8 ~buckets:2 ~epsilon:1.0 ~delta:1.0 in
  feed_fw fw [| 100.; 0.; 0.; 0.; 1.; 1.; 1.; 1. |];
  let h = FW.current_histogram fw in
  let b1 = H.find_bucket h 1 in
  Alcotest.(check int) "singleton first bucket" 1 b1.H.hi;
  Helpers.check_close "value 100" 100.0 b1.H.value

(* --------------------------------------------------------- fixed window *)

let test_fw_accessors () =
  let fw = FW.create ~window:16 ~buckets:4 ~epsilon:0.25 in
  Alcotest.(check int) "window" 16 (FW.window fw);
  Alcotest.(check int) "buckets" 4 (FW.buckets fw);
  Helpers.check_close "epsilon" 0.25 (FW.epsilon fw);
  Alcotest.(check int) "empty" 0 (FW.length fw);
  FW.push fw 1.0;
  Alcotest.(check int) "one" 1 (FW.length fw)

let test_fw_validation () =
  Alcotest.check_raises "bad window" (Invalid_argument "Fixed_window.create: window must be >= 1")
    (fun () -> ignore (FW.create ~window:0 ~buckets:2 ~epsilon:0.1));
  Alcotest.check_raises "bad buckets" (Invalid_argument "Params: buckets must be >= 1") (fun () ->
      ignore (FW.create ~window:4 ~buckets:0 ~epsilon:0.1));
  Alcotest.check_raises "bad epsilon" (Invalid_argument "Params: epsilon must be > 0") (fun () ->
      ignore (FW.create ~window:4 ~buckets:2 ~epsilon:0.0));
  let fw = FW.create ~window:4 ~buckets:2 ~epsilon:0.1 in
  Alcotest.check_raises "empty histogram"
    (Invalid_argument "Fixed_window.current_histogram: empty window") (fun () ->
      ignore (FW.current_histogram fw));
  Alcotest.check_raises "empty view histogram"
    (Invalid_argument "Fixed_window.View.current_histogram: empty window") (fun () ->
      ignore (FW.View.current_histogram (FW.view fw)))

let test_fw_partial_window () =
  (* Queries must work before the window fills. *)
  let fw = FW.create ~window:100 ~buckets:3 ~epsilon:0.1 in
  feed_fw fw [| 1.0; 1.0; 5.0 |];
  let h = FW.current_histogram fw in
  Alcotest.(check int) "covers 3 points" 3 h.H.n;
  Helpers.check_close "zero error with enough buckets" 0.0 (FW.current_error fw)

let test_fw_constant_stream () =
  let fw = FW.create ~window:32 ~buckets:2 ~epsilon:0.1 in
  for _ = 1 to 100 do
    FW.push fw 7.0
  done;
  Helpers.check_close "constant stream zero error" 0.0 (FW.current_error fw);
  let h = FW.current_histogram fw in
  Helpers.check_close "value 7" 7.0 (H.point_estimate h 10)

let prop_fw_guarantee =
  Helpers.qcheck_case ~count:40 ~name:"fixed-window SSE within (1+eps) of optimal"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:2 ~max_len:120 ~vmax:1000 () in
      let* b = int_range 1 6 in
      let* eps = oneofl [ 0.01; 0.1; 0.5; 1.0 ] in
      return (data, b, eps))
    (fun (data, b, eps) ->
      let n = Array.length data in
      let fw = FW.create ~window:n ~buckets:b ~epsilon:eps in
      feed_fw fw data;
      let p = P.make data in
      let opt = V.optimal_error p ~buckets:b in
      let err = FW.current_error fw in
      let sse = H.sse_against (FW.current_histogram fw) p in
      within_guarantee ~eps ~opt err && within_guarantee ~eps ~opt sse && err >= -1e-9)

let prop_fw_guarantee_while_sliding =
  Helpers.qcheck_case ~count:15 ~name:"guarantee holds at every slide position"
    QCheck2.Gen.(
      let* stream = array_size (int_range 40 120) (int_range 0 500) in
      let* b = int_range 2 4 in
      return (Array.map Float.of_int stream, b))
    (fun (stream, b) ->
      let w = 32 in
      let eps = 0.2 in
      let fw = FW.create ~window:w ~buckets:b ~epsilon:eps in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          FW.push_and_refresh fw v;
          if i >= w - 1 && i mod 7 = 0 then begin
            let p = P.of_sub stream ~pos:(i - w + 1) ~len:w in
            let opt = V.optimal_error p ~buckets:b in
            let sse = H.sse_against (FW.current_histogram fw) p in
            if not (within_guarantee ~eps ~opt sse) then ok := false
          end)
        stream;
      !ok)

let prop_fw_herror_brackets_exact =
  Helpers.qcheck_case ~count:25 ~name:"herror never under-reports the exact DP value"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:3 ~max_len:60 ~vmax:200 () in
      let* b = int_range 2 5 in
      return (data, b))
    (fun (data, b) ->
      let n = Array.length data in
      let fw = FW.create ~window:n ~buckets:b ~epsilon:0.1 in
      feed_fw fw data;
      let p = P.make data in
      let ok = ref true in
      for k = 1 to b do
        let exact = V.herror_row p ~buckets:k in
        for x = 1 to n do
          let approx = FW.herror fw ~k ~x in
          (* Never below the true optimum, and within the guarantee above. *)
          if approx < exact.(x) -. 1e-6 then ok := false;
          if not (within_guarantee ~eps:0.1 ~opt:exact.(x) approx) then ok := false
        done
      done;
      !ok)

let test_fw_bucket_count_bounded () =
  let fw = FW.create ~window:64 ~buckets:5 ~epsilon:0.1 in
  let rng = Helpers.rng ~seed:42 in
  for _ = 1 to 200 do
    FW.push fw (Float.of_int (Sh_util.Rng.int rng 1000))
  done;
  Alcotest.(check bool) "at most B buckets" true (H.bucket_count (FW.current_histogram fw) <= 5)

let test_fw_lazy_vs_eager () =
  (* push+refresh per point and lazy refresh at the end must agree on the
     final window state. *)
  let data = Array.init 80 (fun i -> Float.of_int ((i * 37) mod 101)) in
  let eager = FW.create ~window:32 ~buckets:4 ~epsilon:0.1 in
  let lazy_ = FW.create ~window:32 ~buckets:4 ~epsilon:0.1 in
  Array.iter (FW.push_and_refresh eager) data;
  Array.iter (FW.push lazy_) data;
  Helpers.check_close "same error" (FW.current_error eager) (FW.current_error lazy_);
  Alcotest.(check (array (float 1e-9)))
    "same histogram" (H.to_series (FW.current_histogram eager))
    (H.to_series (FW.current_histogram lazy_))

let test_fw_degenerate_sizes () =
  (* window = 1: every histogram is one exact point *)
  let fw = FW.create ~window:1 ~buckets:1 ~epsilon:0.5 in
  FW.push fw 3.0;
  FW.push fw 9.0;
  Helpers.check_close "zero error" 0.0 (FW.current_error fw);
  Helpers.check_close "latest point" 9.0 (H.point_estimate (FW.current_histogram fw) 1);
  (* B = 1: error is SQERROR(1, n) exactly *)
  let fw1 = FW.create ~window:8 ~buckets:1 ~epsilon:0.5 in
  let data = [| 1.0; 5.0; 2.0; 8.0 |] in
  Array.iter (FW.push fw1) data;
  Helpers.check_close "B=1 exact" (P.sqerror (P.make data) ~lo:1 ~hi:4) (FW.current_error fw1)

let test_fw_refresh_idempotent () =
  let fw = FW.create ~window:16 ~buckets:3 ~epsilon:0.2 in
  for i = 1 to 40 do
    FW.push fw (Float.of_int ((i * 7) mod 13))
  done;
  FW.refresh fw;
  let before = (FW.work_counters fw).FW.refreshes in
  FW.refresh fw;
  FW.refresh fw;
  Alcotest.(check int) "no redundant rebuilds" before (FW.work_counters fw).FW.refreshes;
  let e1 = FW.current_error fw in
  let e2 = FW.current_error fw in
  Helpers.check_close "stable answer" e1 e2

let test_fw_push_batch () =
  (* batched arrivals (paper footnote 2) are equivalent to pushing singly *)
  let data = Array.init 100 (fun i -> Float.of_int ((i * 31) mod 57)) in
  let single = FW.create ~window:40 ~buckets:4 ~epsilon:0.1 in
  let batched = FW.create ~window:40 ~buckets:4 ~epsilon:0.1 in
  Array.iter (FW.push single) data;
  FW.push_many batched data;
  Helpers.check_close "same error" (FW.current_error single) (FW.current_error batched);
  Alcotest.(check (array (float 0.0)))
    "same histogram"
    (H.to_series (FW.current_histogram single))
    (H.to_series (FW.current_histogram batched))

let test_fw_work_counters () =
  let fw = FW.create ~window:32 ~buckets:3 ~epsilon:0.2 in
  let before = FW.work_counters fw in
  for i = 1 to 64 do
    FW.push_and_refresh fw (Float.of_int i)
  done;
  let after = FW.work_counters fw in
  Alcotest.(check bool) "evaluations grew" true
    (after.FW.herror_evaluations > before.FW.herror_evaluations);
  Alcotest.(check bool) "refreshes counted" true (after.FW.refreshes >= 64)

(* Golden regression for the registry migrations and the SoA/memo
   rewrite: work_counters moved from private mutable int fields to Sh_obs
   registry-backed series and later back to the summary's own fields, and
   these exact values were captured on the pre-migration implementation (network workload seed 5, 300 arrivals).
   The memo-off runs must reproduce them bit-for-bit — the SoA kernel with
   memoisation disabled executes the exact legacy probe sequence.  Any
   drift means the rewrite changed what gets counted or probed, not just
   how lists are stored.  One value has been re-recorded since: the warm
   run's search_steps (3115309 before the candidate scans were seeded with
   the previous winner, whose tighter bound now runs the prefix binary
   search in scans that used to walk from entry 0).  The cold row is the
   unassisted reference and has never moved. *)
let test_fw_work_counters_golden () =
  let window = 256 and buckets = 8 and epsilon = 0.2 in
  let module Wk = Sh_gen.Workloads in
  let module Source = Sh_gen.Source in
  let data = Source.take (Wk.network (Sh_util.Rng.create ~seed:5) Wk.default_network) 300 in
  let check_side tag expected c =
    let got =
      [
        c.FW.herror_evaluations; c.FW.cold_evaluations; c.FW.warm_evaluations;
        c.FW.intervals_built; c.FW.refreshes; c.FW.cold_refreshes; c.FW.warm_refreshes;
        c.FW.search_steps; c.FW.hint_hits; c.FW.hint_misses;
      ]
    in
    Alcotest.(check (list int)) tag expected got
  in
  let family_evals () = Helpers.exposed_count "fw_herror_evals_total" in
  let evals_before = family_evals () in
  let warm = FW.create ~window ~buckets ~epsilon in
  FW.set_memoisation warm false;
  Array.iter (FW.push_and_refresh warm) data;
  ignore (FW.current_histogram warm);
  check_side "warm counters match pre-migration golden run"
    [ 415066; 0; 415059; 174716; 300; 0; 300; 4183590; 170797; 2902 ]
    (FW.work_counters warm);
  (* the process-wide family grew by exactly the warm summary's total *)
  Alcotest.(check int) "fw.herror_evals grew by work_counters" 415066
    (family_evals () - evals_before);
  let cold = FW.create ~window ~buckets ~epsilon in
  FW.set_memoisation cold false;
  Array.iter (fun v -> FW.push cold v; FW.refresh ~cold:true cold) data;
  ignore (FW.current_histogram cold);
  check_side "cold counters match pre-migration golden run"
    [ 1196240; 1196233; 0; 174716; 300; 300; 0; 9875868; 0; 0 ]
    (FW.work_counters cold);
  (* A window's first refresh, from one full-window slice: evaluations,
     search steps, scan candidates and hint outcomes of the seeded default
     refresh, beside the unassisted cold rebuild of the same window (whose
     evaluations and steps match the kernel before seeding). *)
  let first_refresh ~cold =
    let fw = FW.create ~window ~buckets ~epsilon in
    FW.set_memoisation fw false;
    FW.push_slice fw data ~pos:0 ~len:window;
    FW.refresh ~cold fw;
    let c = FW.work_counters fw in
    [ c.FW.herror_evaluations; c.FW.search_steps; c.FW.scan_candidates; c.FW.hint_hits;
      c.FW.hint_misses ]
  in
  Alcotest.(check (list int)) "seeded first refresh counters"
    [ 3001; 33810; 43932; 453; 493 ] (first_refresh ~cold:false);
  Alcotest.(check (list int)) "cold first refresh counters"
    [ 7068; 62304; 256470; 0; 0 ] (first_refresh ~cold:true);
  (* Memoisation changes only how much probing is executed, never what is
     logically evaluated or decided: the memoised run must report the same
     evaluations, intervals, refreshes, and hint outcomes, with strictly
     fewer executed search steps and a non-trivial hit rate. *)
  let memo = FW.create ~window ~buckets ~epsilon in
  Array.iter (FW.push_and_refresh memo) data;
  ignore (FW.current_histogram memo);
  let cm = FW.work_counters memo and cw = FW.work_counters warm in
  Alcotest.(check (list int)) "memoised run: same logical work as golden"
    [ cw.FW.herror_evaluations; cw.FW.cold_evaluations; cw.FW.warm_evaluations;
      cw.FW.intervals_built; cw.FW.refreshes; cw.FW.hint_hits; cw.FW.hint_misses ]
    [ cm.FW.herror_evaluations; cm.FW.cold_evaluations; cm.FW.warm_evaluations;
      cm.FW.intervals_built; cm.FW.refreshes; cm.FW.hint_hits; cm.FW.hint_misses ];
  Alcotest.(check bool) "memoised run executes fewer search steps" true
    (cm.FW.search_steps < cw.FW.search_steps);
  Alcotest.(check bool) "memo hits recorded" true (cm.FW.memo_hits > 0);
  Alcotest.(check bool) "memo hits bounded by probes" true
    (cm.FW.memo_hits <= cm.FW.memo_probes);
  Alcotest.(check bool) "scan steps are a subset of search steps" true
    (cm.FW.scan_steps <= cm.FW.search_steps && cm.FW.scan_steps > 0);
  Alcotest.(check bool) "memo-off run records no memo probes" true
    (cw.FW.memo_probes = 0 && cw.FW.memo_hits = 0)

(* Work is tallied in the summary's scratch and reaches the summary's
   totals and the process-wide fw.* families once per entry point.  After
   every live entry point, each rendered fw_* family must have grown since
   the summary was created by exactly its work_counters, which also count
   tallies still pending in the scratch: a difference is a count that
   entry point left unflushed. *)
let test_fw_flush_discipline () =
  (* [fw_<name>_total <v>] lines of the exposition *)
  let rendered () =
    let parse line =
      try
        Scanf.sscanf line "fw_%[a-z_] %d%!" (fun name v ->
            if String.ends_with ~suffix:"_total" name then
              Some (String.sub name 0 (String.length name - 6), v)
            else None)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
    in
    List.sort compare
      (List.filter_map parse (String.split_on_char '\n' (Sh_obs.Obs.render ())))
  in
  let since base =
    List.map (fun (name, v) -> (name, v - Option.value ~default:0 (List.assoc_opt name base)))
      (rendered ())
  in
  let expected c =
    List.sort compare
      [
        ("herror_evals", c.FW.herror_evaluations); ("cold_evals", c.FW.cold_evaluations);
        ("warm_evals", c.FW.warm_evaluations); ("intervals_built", c.FW.intervals_built);
        ("refreshes", c.FW.refreshes); ("cold_refreshes", c.FW.cold_refreshes);
        ("warm_refreshes", c.FW.warm_refreshes); ("search_steps", c.FW.search_steps);
        ("scan_steps", c.FW.scan_steps); ("scan_candidates", c.FW.scan_candidates);
        ("hint_hits", c.FW.hint_hits); ("hint_misses", c.FW.hint_misses);
        ("memo_probes", c.FW.memo_probes); ("memo_hits", c.FW.memo_hits);
      ]
  in
  let check what ~base fw =
    Alcotest.(check (list (pair string int))) ("after " ^ what) (expected (FW.work_counters fw))
      (since base)
  in
  let data =
    Sh_gen.Source.take
      (Sh_gen.Workloads.network (Sh_util.Rng.create ~seed:11) Sh_gen.Workloads.default_network)
      80
  in
  let base = rendered () in
  let fw = FW.create ~window:48 ~buckets:5 ~epsilon:0.2 in
  FW.push_slice fw data ~pos:0 ~len:60;
  FW.refresh fw;
  check "refresh" ~base fw;
  FW.push fw data.(60);
  FW.refresh ~cold:true fw;
  check "cold refresh" ~base fw;
  FW.push fw data.(61);
  ignore (FW.herror fw ~k:3 ~x:20);
  check "herror with a refresh" ~base fw;
  let before = (FW.work_counters fw).FW.herror_evaluations in
  ignore (FW.herror fw ~k:4 ~x:30);
  Alcotest.(check int) "a live read is one evaluation" (before + 1)
    (FW.work_counters fw).FW.herror_evaluations;
  check "herror" ~base fw;
  ignore (FW.current_error fw);
  check "current_error" ~base fw;
  ignore (FW.current_histogram fw);
  check "current_histogram" ~base fw;
  FW.push fw data.(62);
  ignore (FW.view fw);
  check "view" ~base fw;
  let buf = Buffer.create 256 in
  FW.encode buf fw;
  let base = rendered () in
  let restored = FW.decode (Sh_persist.Codec.of_string (Buffer.contents buf)) in
  Alcotest.(check bool) "decode refreshed" true ((FW.work_counters restored).FW.refreshes = 1);
  check "decode" ~base restored

(* Steady-state sliding must reuse the interval lists' backing arrays:
   after a warm-up long enough to reach peak capacity, further slides may
   not grow any list column in the process (FW.list_growths counts every
   growth, pooled sets' included).  The warm-up must grow some, or the
   check says nothing.  First one summary alone, whose refreshes swap its
   current set with the one it left in its domain's pool; then two, on
   different streams, whose refreshes alternate on one domain, so the
   sets each one builds into come from the other's releases too.  The
   warm-up outlasts both streams' periods (101 and 97) three times over,
   so every set in the rotation has held every window of both. *)
let test_fw_slide_reuses_memory () =
  let steady what fws =
    let value j i = Float.of_int ((i * (37 + (16 * j))) mod (101 - (4 * j))) in
    let before_warmup = FW.list_growths () in
    for i = 1 to 640 do
      List.iteri (fun j fw -> FW.push_and_refresh fw (value j i)) fws
    done;
    let before = FW.list_growths () in
    Alcotest.(check bool) (what ^ ": the warm-up grows the lists") true (before > before_warmup);
    for i = 641 to 896 do
      List.iteri (fun j fw -> FW.push_and_refresh fw (value j i)) fws
    done;
    Alcotest.(check int) (what ^ ": no list growth across 256 steady-state slides") before
      (FW.list_growths ())
  in
  let mk () = FW.create ~window:64 ~buckets:4 ~epsilon:0.2 in
  steady "one summary" [ mk () ];
  steady "two summaries" [ mk (); mk () ]

(* The full arena claim: once warm, a push + warm refresh allocates ~zero
   minor-heap words.  The budget is pinned generously above the measured
   steady state (~0 words/push) but far below the pre-SoA kernel
   (~10^5-10^8 words/push) so any boxing creeping back into the hot path
   trips it immediately.  Telemetry spans stay disabled (their timing
   closures allocate by design and are off by default). *)
let test_fw_push_alloc_budget () =
  let fw = FW.create ~window:256 ~buckets:8 ~epsilon:0.2 in
  let v i = Float.of_int ((i * 37) mod 101) in
  for i = 1 to 1024 do
    FW.push_and_refresh fw (v i)
  done;
  let rounds = 256 in
  let w0 = Gc.minor_words () in
  for i = 1025 to 1024 + rounds do
    FW.push_and_refresh fw (v i)
  done;
  let per_push = (Gc.minor_words () -. w0) /. Float.of_int rounds in
  let budget = 64.0 in
  if per_push > budget then
    Alcotest.failf "steady-state allocation %.1f words/push exceeds budget %.1f"
      per_push budget

let test_fw_interval_count_bound () =
  (* The paper bounds each list by O((1/delta) log (HERROR)); sanity-check
     with a generous constant. *)
  let n = 256 and b = 4 in
  let eps = 0.5 in
  let fw = FW.create ~window:n ~buckets:b ~epsilon:eps in
  let rng = Helpers.rng ~seed:9 in
  for _ = 1 to n do
    FW.push fw (Float.of_int (Sh_util.Rng.int rng 1000))
  done;
  let delta = eps /. (2.0 *. Float.of_int b) in
  let bound =
    (* 3 * (1/delta) * log2(n * R^2) with R = 1000, plus slack *)
    int_of_float (3.0 /. delta *. (log (Float.of_int n *. 1e6) /. log 2.0)) + 16
  in
  Array.iter
    (fun c -> Alcotest.(check bool) "interval count bounded" true (c <= bound))
    (FW.interval_counts fw)

(* ------------------------------------------------ warm-start maintenance *)

(* Streams for the warm == cold properties.  Beside the two realistic
   workloads, classes full of ties and flat stretches, where HERROR[., k]
   has long constant runs and many scan candidates are equal: constant
   runs, a few step levels, small integers, and values of magnitude 1e-300
   (whose squares underflow).  Not included: large offsets with tiny noise
   (1e9 + U(0, 1e-3)), whose prefix sums cancel catastrophically — warm and
   cold rebuilds disagree there (an open item in ROADMAP.md). *)
let gen_twin_workload =
  QCheck2.Gen.oneofl [ `Network; `Gauss_mix; `Constant_runs; `Steps; `Small_ints; `Tiny ]

let twin_data ~seed workload len =
  let module Wk = Sh_gen.Workloads in
  let module Source = Sh_gen.Source in
  let module R = Sh_util.Rng in
  let rng = R.create ~seed in
  let runs ~max_run level =
    let level_v = ref (level ()) and left = ref 0 in
    Array.init len (fun _ ->
        if !left = 0 then begin
          level_v := level ();
          left := 1 + R.int rng max_run
        end;
        decr left;
        !level_v)
  in
  match workload with
  | `Network -> Source.take (Wk.network rng Wk.default_network) len
  | `Gauss_mix -> Source.take (Wk.step_signal rng ()) len (* Gaussian noise around mixed levels *)
  | `Constant_runs -> runs ~max_run:20 (fun () -> Float.of_int (R.int rng 10))
  | `Steps -> runs ~max_run:len (fun () -> Float.of_int (100 * R.int rng 4))
  | `Small_ints -> Array.init len (fun _ -> Float.of_int (R.int rng 3))
  | `Tiny -> Array.init len (fun _ -> 1e-300 *. Float.of_int (R.int rng 1000))

(* Every HERROR[x, k] of the current window, x = 0 .. n, k = 1 .. B. *)
let all_herror fw =
  let n = FW.length fw in
  Array.init (FW.buckets fw * (n + 1)) (fun i -> FW.herror fw ~k:(1 + (i / (n + 1))) ~x:(i mod (n + 1)))

(* Feed [data] to [step]: either one point at a time, or — [first_slice] —
   the first [window] points as one slice (a full window's first refresh)
   and the rest one at a time.  [step] ingests a sub-array and checks. *)
let feed_twins ~first_slice ~window data step =
  let from =
    if first_slice then begin
      step data ~pos:0 ~len:window;
      window
    end
    else 0
  in
  for i = from to Array.length data - 1 do
    step data ~pos:i ~len:1
  done

(* The warm-start rebuild seeds its boundary searches from the previous
   lists (or, without them, from the interval just built) but must land on
   exactly the boundaries a cold full-binary-search rebuild finds (HERROR
   is monotone in x, so the search result is seed independent), and its
   seeded candidate scans on exactly the same HERROR values.  Drive warm
   and cold twins through identical streams and compare the complete
   interval lists and every HERROR[x, k] after every single push. *)
let prop_warm_equals_cold =
  Helpers.qcheck_case ~count:20 ~name:"warm-start lists identical to cold rebuild after every push"
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* workload = gen_twin_workload in
      let* window = oneofl [ 7; 16; 32 ] in
      let* b = int_range 2 8 in
      let* eps = oneofl [ 0.01; 0.05; 0.1; 0.5 ] in
      let* first_slice = bool in
      return (seed, workload, window, b, eps, first_slice))
    (fun (seed, workload, window, b, eps, first_slice) ->
      let data = twin_data ~seed workload (3 * window) in
      let warm = FW.create ~window ~buckets:b ~epsilon:eps in
      let cold = FW.create ~window ~buckets:b ~epsilon:eps in
      let ok = ref true in
      feed_twins ~first_slice ~window data (fun data ~pos ~len ->
          FW.push_slice warm data ~pos ~len;
          FW.refresh warm;
          FW.push_slice cold data ~pos ~len;
          FW.refresh ~cold:true cold;
          for k = 1 to b - 1 do
            if FW.intervals warm ~k <> FW.intervals cold ~k then ok := false
          done;
          if all_herror warm <> all_herror cold then ok := false;
          if
            H.to_series (FW.current_histogram warm) <> H.to_series (FW.current_histogram cold)
          then ok := false);
      let wc = FW.work_counters warm and cc = FW.work_counters cold in
      (* modes charged to the right counters *)
      if wc.FW.cold_refreshes <> 0 || cc.FW.warm_refreshes <> 0 then ok := false;
      !ok)

(* The memo caches HERROR values within one refresh generation; hitting it
   must never change anything observable.  Drive three twins — memoised
   warm, unmemoised warm, cold — through identical streams over a grid of
   (window, B, eps) and compare complete interval lists, errors, and
   histograms after every push.  Bit-equality (<>, not approx) throughout:
   a memo hit returns the stored double verbatim, so even the floats must
   match exactly. *)
let prop_memo_equals_unmemo_equals_cold =
  Helpers.qcheck_case ~count:20
    ~name:"memoised == unmemoised == cold lists and answers after every push"
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* workload = gen_twin_workload in
      let* window = oneofl [ 7; 16; 32; 64 ] in
      let* b = int_range 2 8 in
      let* eps = oneofl [ 0.01; 0.05; 0.1; 0.5 ] in
      let* first_slice = bool in
      return (seed, workload, window, b, eps, first_slice))
    (fun (seed, workload, window, b, eps, first_slice) ->
      let data = twin_data ~seed workload (3 * window) in
      let memo = FW.create ~window ~buckets:b ~epsilon:eps in
      let plain = FW.create ~window ~buckets:b ~epsilon:eps in
      let cold = FW.create ~window ~buckets:b ~epsilon:eps in
      FW.set_memoisation plain false;
      let ok = ref true in
      feed_twins ~first_slice ~window data (fun data ~pos ~len ->
          FW.push_slice memo data ~pos ~len;
          FW.refresh memo;
          FW.push_slice plain data ~pos ~len;
          FW.refresh plain;
          FW.push_slice cold data ~pos ~len;
          FW.refresh ~cold:true ~memo:true cold;
          for k = 1 to b - 1 do
            let im = FW.intervals memo ~k in
            if im <> FW.intervals plain ~k || im <> FW.intervals cold ~k then ok := false
          done;
          let em = FW.current_error memo in
          if em <> FW.current_error plain || em <> FW.current_error cold then ok := false;
          let hm = H.to_series (FW.current_histogram memo) in
          if
            hm <> H.to_series (FW.current_histogram plain)
            || hm <> H.to_series (FW.current_histogram cold)
          then ok := false;
          (* herror reads against the freshly built lists must agree too,
             including the memo-served repeats *)
          let x = FW.length memo in
          for k = 1 to b do
            let h1 = FW.herror memo ~k ~x in
            let h2 = FW.herror memo ~k ~x in
            if h1 <> h2 || h1 <> FW.herror plain ~k ~x || h1 <> FW.herror cold ~k ~x then
              ok := false
          done;
          let am = all_herror memo in
          if am <> all_herror plain || am <> all_herror cold then ok := false);
      (* the memoised twin must actually have exercised the memo *)
      let mc = FW.work_counters memo and pc = FW.work_counters plain in
      if window > 7 && mc.FW.memo_hits = 0 then ok := false;
      if pc.FW.memo_probes <> 0 then ok := false;
      !ok)

(* The quantified speedup of this PR: at the ISSUE's reference configuration
   the warm-start rebuild must spend at least 3x fewer HERROR evaluations
   per arrival than a cold rebuild of the same window. *)
let test_fw_warm_speedup () =
  let window = 4096 and buckets = 16 and epsilon = 0.1 in
  let pushes = 3 in
  let module Wk = Sh_gen.Workloads in
  let module Source = Sh_gen.Source in
  let data =
    Source.take (Wk.network (Sh_util.Rng.create ~seed:7) Wk.default_network) (window + pushes)
  in
  let per_push ~cold =
    let fw = FW.create ~window ~buckets ~epsilon in
    for i = 0 to window - 1 do
      FW.push fw data.(i)
    done;
    FW.refresh fw;
    let before = (FW.work_counters fw).FW.herror_evaluations in
    for i = window to window + pushes - 1 do
      FW.push fw data.(i);
      FW.refresh ~cold fw
    done;
    let fw_counters = FW.work_counters fw in
    (fw_counters.FW.herror_evaluations - before, fw_counters)
  in
  let warm_evals, warm_c = per_push ~cold:false in
  let cold_evals, _ = per_push ~cold:true in
  Alcotest.(check bool)
    (Printf.sprintf "herror evals reduced >= 3x (cold %d vs warm %d per %d pushes)" cold_evals
       warm_evals pushes)
    true
    (cold_evals >= 3 * warm_evals);
  (* the warm rebuilds overwhelmingly land exactly on the hinted boundary *)
  Alcotest.(check bool) "hints mostly hit" true (warm_c.FW.hint_hits > warm_c.FW.hint_misses)

(* ------------------------------------------------------- refresh policy *)

let test_fw_policy_eager () =
  let fw = FW.create ~window:16 ~buckets:3 ~epsilon:0.2 in
  FW.set_refresh_policy fw Stream_histogram.Params.Eager;
  Alcotest.(check bool) "policy readable" true
    (FW.refresh_policy fw = Stream_histogram.Params.Eager);
  for i = 1 to 20 do
    FW.push fw (Float.of_int ((i * 7) mod 13))
  done;
  Alcotest.(check int) "one rebuild per arrival" 20 (FW.work_counters fw).FW.refreshes

let test_fw_policy_every () =
  let fw = FW.create ~window:16 ~buckets:3 ~epsilon:0.2 in
  FW.set_refresh_policy fw (Stream_histogram.Params.Every 4);
  for i = 1 to 10 do
    FW.push fw (Float.of_int ((i * 7) mod 13))
  done;
  (* rebuilds at arrivals 4 and 8 only *)
  Alcotest.(check int) "amortised rebuilds" 2 (FW.work_counters fw).FW.refreshes;
  (* a query still forces a rebuild of the pending tail *)
  ignore (FW.current_error fw);
  Alcotest.(check int) "query refreshes the tail" 3 (FW.work_counters fw).FW.refreshes

let test_fw_policy_matches_lazy () =
  (* All policies maintain the same window, so queries agree exactly. *)
  let data = Array.init 90 (fun i -> Float.of_int ((i * 41) mod 67)) in
  let mk policy =
    let fw = FW.create ~window:24 ~buckets:4 ~epsilon:0.1 in
    FW.set_refresh_policy fw policy;
    Array.iter (FW.push fw) data;
    fw
  in
  let reference = mk Stream_histogram.Params.Lazy in
  List.iter
    (fun policy ->
      let fw = mk policy in
      Helpers.check_close "same error" (FW.current_error reference) (FW.current_error fw);
      Alcotest.(check (array (float 0.0)))
        "same histogram"
        (H.to_series (FW.current_histogram reference))
        (H.to_series (FW.current_histogram fw)))
    [ Stream_histogram.Params.Eager; Stream_histogram.Params.Every 5 ]

let test_fw_policy_validation () =
  let fw = FW.create ~window:8 ~buckets:2 ~epsilon:0.1 in
  Alcotest.check_raises "Every 0 rejected" (Invalid_argument "Params: Every period must be >= 1")
    (fun () -> FW.set_refresh_policy fw (Stream_histogram.Params.Every 0))

(* every:1 is the boundary the CLI help used to leave ambiguous: k = 1 is
   valid (set_refresh_policy and policy_of_string agree) and degenerates to
   the Eager cadence — one rebuild per arrival. *)
let test_fw_policy_every_one () =
  let module P = Stream_histogram.Params in
  Alcotest.(check bool) "every:1 parses" true (P.policy_of_string "every:1" = Some (P.Every 1));
  Alcotest.(check bool) "every:0 rejected by parser" true (P.policy_of_string "every:0" = None);
  let every1 = FW.create ~window:16 ~buckets:3 ~epsilon:0.2 in
  FW.set_refresh_policy every1 (P.Every 1);
  let eager = FW.create ~window:16 ~buckets:3 ~epsilon:0.2 in
  FW.set_refresh_policy eager P.Eager;
  for i = 1 to 20 do
    let v = Float.of_int ((i * 7) mod 13) in
    FW.push every1 v;
    FW.push eager v
  done;
  Alcotest.(check int) "every:1 rebuilds per arrival" 20 (FW.work_counters every1).FW.refreshes;
  Alcotest.(check int) "same cadence as eager"
    (FW.work_counters eager).FW.refreshes
    (FW.work_counters every1).FW.refreshes

let test_fw_push_slice () =
  let data = Array.init 100 (fun i -> Float.of_int ((i * 31) mod 57)) in
  let whole = FW.create ~window:40 ~buckets:4 ~epsilon:0.1 in
  let sliced = FW.create ~window:40 ~buckets:4 ~epsilon:0.1 in
  FW.push_many whole data;
  FW.push_slice sliced data ~pos:0 ~len:30;
  FW.push_slice sliced data ~pos:30 ~len:70;
  Helpers.check_close "same error" (FW.current_error whole) (FW.current_error sliced);
  Alcotest.(check (array (float 0.0)))
    "same histogram"
    (H.to_series (FW.current_histogram whole))
    (H.to_series (FW.current_histogram sliced));
  Alcotest.check_raises "oob slice" (Invalid_argument "Fixed_window.push_slice: slice out of bounds")
    (fun () -> FW.push_slice sliced data ~pos:90 ~len:20);
  Alcotest.check_raises "non-finite rejected"
    (Invalid_argument "Fixed_window.push_slice: non-finite value") (fun () ->
      FW.push_slice sliced [| 1.0; Float.nan |] ~pos:0 ~len:2)

let test_best_split_counted () =
  (* current_histogram's split recovery performs candidate evaluations; they
     must show up in work_counters like any other herror evaluation. *)
  let fw = FW.create ~window:32 ~buckets:4 ~epsilon:0.2 in
  for i = 1 to 32 do
    FW.push fw (Float.of_int ((i * 29) mod 17))
  done;
  FW.refresh fw;
  let before = (FW.work_counters fw).FW.herror_evaluations in
  ignore (FW.current_histogram fw);
  let after = (FW.work_counters fw).FW.herror_evaluations in
  Alcotest.(check bool) "best_split evaluations counted" true (after > before)

(* Everything a query can read off a view or a quiesced live summary. *)
type answers = {
  gen : int;
  seen : int;
  b : int;
  eps : float;
  n : int;
  err : float;
  hist : H.t option;
  (* the histogram's point estimate at every index, then its range sums
     over every prefix [1, x] and every suffix [x, n] *)
  estimates : float array;
  herror : k:int -> x:int -> float;
}

let estimates ~n ~point ~range_sum =
  Array.concat
    [ Array.init n (fun i -> point (i + 1));
      Array.init n (fun i -> range_sum ~lo:1 ~hi:(i + 1));
      Array.init n (fun i -> range_sum ~lo:(i + 1) ~hi:n) ]

(* The view's estimates are read from its own storage, not from the
   [current_histogram] copy. *)
let of_view v =
  let n = FW.View.length v in
  { gen = FW.View.generation v; seen = FW.View.points_seen v; b = FW.View.buckets v;
    eps = FW.View.epsilon v; n; err = FW.View.current_error v;
    hist = (if n = 0 then None else Some (FW.View.current_histogram v));
    estimates =
      estimates ~n ~point:(FW.View.point_estimate v) ~range_sum:(FW.View.range_sum_estimate v);
    herror = FW.View.herror v }

let of_live fw =
  let err = FW.current_error fw in
  let n = FW.length fw in
  let hist = if n = 0 then None else Some (FW.current_histogram fw) in
  { gen = FW.generation fw; seen = FW.points_seen fw; b = FW.buckets fw; eps = FW.epsilon fw;
    n; err; hist;
    estimates =
      (match hist with
      | None -> [||]
      | Some h -> estimates ~n ~point:(H.point_estimate h) ~range_sum:(H.range_sum_estimate h));
    herror = FW.herror fw }

(* The first answer in which [got] differs from [expect], bit for bit:
   the stamps, the precomputed answers, then HERROR[x, k] at every k and
   x, stopping at the first differing cell. *)
let first_difference expect got =
  let bits = Int64.bits_of_float in
  let ints name a b = if a <> b then Some (Printf.sprintf "%s %d, not %d" name b a) else None in
  let floats name a b =
    if bits a <> bits b then Some (Printf.sprintf "%s %h, not %h" name b a) else None
  in
  let series h = Array.map bits (H.to_series h) in
  let cells () =
    let found = ref None and k = ref 1 in
    while !found = None && !k <= expect.b do
      let x = ref 0 in
      while !found = None && !x <= expect.n do
        found :=
          floats (Printf.sprintf "herror k=%d x=%d" !k !x) (expect.herror ~k:!k ~x:!x)
            (got.herror ~k:!k ~x:!x);
        incr x
      done;
      incr k
    done;
    !found
  in
  List.find_map
    (fun check -> check ())
    [ (fun () -> ints "generation" expect.gen got.gen);
      (fun () -> ints "points seen" expect.seen got.seen);
      (fun () -> ints "buckets" expect.b got.b);
      (fun () -> floats "epsilon" expect.eps got.eps);
      (fun () -> ints "length" expect.n got.n);
      (fun () -> floats "current_error" expect.err got.err);
      (fun () ->
        match (expect.hist, got.hist) with
        | None, None -> None
        | Some e, Some g -> if series e = series g then None else Some "histogram"
        | _ -> Some "histogram presence");
      (fun () ->
        if Array.map bits expect.estimates = Array.map bits got.estimates then None
        else Some "histogram estimates");
      cells ]

(* One check: every answer of [got] equals [expect]'s, bit for bit; a
   failure names the first that differs. *)
let same_answers what expect got =
  Alcotest.(check (option string)) (what ^ ": first differing answer") None
    (first_difference expect got)

let same_view what (view : FW.View.t) (fresh : FW.View.t) =
  same_answers what (of_view fresh) (of_view view)

(* A published view is a frozen snapshot: holding one while its source
   keeps ingesting (the ring wraps and rebases, refreshes build new list
   sets) must not change a single bit of its answers.  The reference is a
   view cut from a twin summary that stopped at the same point and never
   ran again. *)
let test_fw_held_view_keeps_answers () =
  let window = 24 and buckets = 4 in
  let data = Array.init 200 (fun i -> Float.of_int ((i * 37) mod 101) -. 50.0) in
  let mk () =
    let fw = FW.create ~window ~buckets ~epsilon:0.2 in
    FW.set_refresh_policy fw (Stream_histogram.Params.Every 5);
    fw
  in
  let cuts = [ 3; 24; 61; 130 ] in
  (* the same pushes and view cuts (a cut refreshes) up to point [upto] *)
  let drive fw ~upto ~on_cut =
    for i = 0 to upto - 1 do
      if List.mem i cuts then on_cut i (FW.view fw);
      FW.push fw data.(i)
    done
  in
  let live = mk () in
  let held = ref [] in
  drive live ~upto:(Array.length data) ~on_cut:(fun i v -> held := (i, v) :: !held);
  ignore (FW.current_error live);
  List.iter
    (fun (cut, view) ->
      Alcotest.(check bool) "source moved on" true
        (FW.generation live > FW.View.generation view);
      let twin = mk () in
      drive twin ~upto:cut ~on_cut:(fun _ _ -> ());
      same_view (Printf.sprintf "cut at %d" cut) view (FW.view twin))
    !held

(* [view_into] refills one view in place with exactly what [view] cuts:
   the same view is refilled from summaries of two geometries in turn
   (window, buckets and epsilon differ, so the ring, the level lists and
   the histogram's storage are replaced or grown), from empty windows
   through full ones; [same_view] reads the refilled histogram in place
   as well as through a copy.  Every histogram [current_histogram] took
   from the view stays bit-identical across all later refills, those
   from the summary with more buckets included: it is a copy, not the
   storage a refill rewrites. *)
let test_fw_view_into_refills () =
  let data = Array.init 300 (fun i -> Float.of_int ((i * 53) mod 97) -. 40.0) in
  let small = FW.create ~window:16 ~buckets:3 ~epsilon:0.3 in
  let large = FW.create ~window:48 ~buckets:5 ~epsilon:0.1 in
  let v = FW.view small in
  let series h = Array.map Int64.bits_of_float (H.to_series h) in
  let held = ref [] in
  for i = 0 to Array.length data - 1 do
    FW.push small data.(i);
    FW.push large data.(Array.length data - 1 - i);
    if i mod 7 = 0 then begin
      let src = if i mod 14 = 0 then large else small in
      if FW.View.length v > 0 then begin
        let h = FW.View.current_histogram v in
        held := (h, series h) :: !held
      end;
      FW.view_into src v;
      same_view (Printf.sprintf "refill at %d" i) v (FW.view src);
      List.iteri
        (fun age (h, before) ->
          if before <> series h then
            Alcotest.failf "refill at %d: the copy taken %d refills ago changed" i (age + 1))
        !held
    end
  done;
  Alcotest.(check bool) "copies held across refills" true (List.length !held > 30)

(* [a] with every HERROR cell read once, now: a record of what it
   answered, immune to later changes in what it was read from. *)
let frozen a =
  let cells = Array.init a.b (fun k -> Array.init (a.n + 1) (fun x -> a.herror ~k:(k + 1) ~x)) in
  { a with herror = (fun ~k ~x -> cells.(k - 1).(x)) }

(* A view holds the list set it was lent until it is refilled: its source
   refreshing twice between publications (the first refresh lets go of
   the set, the second takes a target from the same domain's pool) must
   leave every answer of the view bit-identical to what it answered when
   it was cut.  Pooling a set while a view still holds it hands it to the
   second refresh, which overwrites it, and fails this. *)
let test_fw_held_view_survives_refreshes () =
  let window = 64 and buckets = 5 and epsilon = 0.2 in
  let data = Array.init 400 (fun i -> Float.of_int ((i * 53) mod 97) -. 40.0) in
  let fw = FW.create ~window ~buckets ~epsilon in
  Array.iteri
    (fun i x ->
      FW.push fw x;
      if i mod 40 = 39 then begin
        let held = FW.view fw in
        let expect = frozen (of_view held) in
        for j = 1 to 2 do
          FW.push fw data.((i + (j * 11)) mod Array.length data);
          FW.refresh fw
        done;
        same_answers (Printf.sprintf "held at %d" i) expect (of_view held)
      end)
    data

(* Refilling a view lets go of the set it held, but its source still holds
   that set: one view is filled from summary [a], then refilled from [b]
   (on another stream, same level count), and [b] refreshes once more on
   the same domain before [a]'s answers are read.  [a], never refreshed in
   between, must answer bit for bit like an untouched twin that no view
   ever held.  Pooling a set when a view alone lets go of it hands [a]'s
   live lists to [b]'s refresh, and fails this.  The windows fill from
   empty, so the sets' list lengths go up and down between the two. *)
let test_fw_refill_keeps_source_lists () =
  let window = 256 and buckets = 8 and epsilon = 0.2 in
  let stream seed =
    Sh_gen.Source.take
      (Sh_gen.Workloads.network (Sh_util.Rng.create ~seed) Sh_gen.Workloads.default_network)
      (2 * window)
  in
  let xs = stream 21 and ys = stream 22 in
  let a = FW.create ~window ~buckets ~epsilon and b = FW.create ~window ~buckets ~epsilon in
  let twin = FW.create ~window ~buckets ~epsilon in
  let v = FW.view b in
  for i = 0 to (2 * window) - 1 do
    FW.push a xs.(i);
    FW.push twin xs.(i);
    FW.push b ys.(i);
    if i mod 32 = 31 then begin
      FW.view_into a v;
      same_answers (Printf.sprintf "view of a at %d" i) (of_live twin) (of_view v);
      FW.view_into b v;
      FW.push b ys.((i * 7) mod (2 * window));
      FW.refresh b;
      same_answers (Printf.sprintf "a after refill at %d" i) (of_live twin) (of_live a)
    end
  done

(* The HERROR memo table is one per domain, shared by every summary on
   it.  Summaries of different geometry (n, B, eps) push and refresh in
   interleaved order, and between one summary's rebuild and the next
   every interval list, every HERROR[x, k], the current error and the
   histogram of another are read live — each read claims the table from
   the summary that last used it.  All must match memo-off twins bit for
   bit.  The second ordering runs on a fresh domain, whose table grows at
   claim time: a small window claims it, then a larger one, then the small
   one again; the table keeps the largest geometry's size. *)
let test_fw_shared_memo_arena () =
  let interleave geoms ~steps =
    let mk memo (window, buckets, epsilon) =
      let fw = FW.create ~window ~buckets ~epsilon in
      FW.set_refresh_policy fw (Stream_histogram.Params.Every 3);
      FW.set_memoisation fw memo;
      fw
    in
    let live = Array.map (mk true) geoms and twin = Array.map (mk false) geoms in
    let count = Array.length geoms in
    let bits = Int64.bits_of_float in
    let compare_all step j =
      let fw = live.(j) and tw = twin.(j) in
      let what s = Printf.sprintf "step %d summary %d: %s" step j s in
      for k = 1 to FW.buckets fw - 1 do
        let rows fw =
          Array.to_list
            (Array.map (fun (a, ha, b, hb) -> (a, bits ha, b, bits hb)) (FW.intervals fw ~k))
        in
        if rows tw <> rows fw then Alcotest.failf "%s" (what (Printf.sprintf "intervals k=%d" k))
      done;
      same_answers (what "answers") (of_live tw) (of_live fw)
    in
    for step = 0 to steps - 1 do
      let i = step mod count in
      let v = Float.of_int (((step * 37) + (i * 11)) mod 97) -. 40.0 in
      FW.push live.(i) v;
      FW.push twin.(i) v;
      if step mod 2 = 0 then begin
        FW.refresh live.(i);
        FW.refresh twin.(i)
      end;
      compare_all step ((i + 1) mod count)
    done
  in
  interleave [| (24, 4, 0.2); (40, 6, 0.5); (17, 3, 0.1) |] ~steps:240;
  let empty, grown =
    Domain.join
      (Domain.spawn (fun () ->
           let empty = FW.memo_arena_words () in
           interleave [| (12, 3, 0.2); (80, 8, 0.25); (12, 3, 0.5) |] ~steps:180;
           (empty, FW.memo_arena_words ())))
  in
  let cells = (80 + 1) * (8 + 1) in
  Alcotest.(check bool) "a fresh domain's table is empty" true (empty < 16);
  Alcotest.(check bool) "the table holds the largest geometry claimed" true
    (grown >= 2 * cells && grown < (2 * cells) + 16);
  (* A lone summary claims the table only from itself, so its memo
     outcomes are those of a summary that owns its table: these values
     were recorded when every summary had one (network seed 9, 400
     arrivals, a live herror and current_error every fifth push). *)
  let data =
    Sh_gen.Source.take
      (Sh_gen.Workloads.network (Sh_util.Rng.create ~seed:9) Sh_gen.Workloads.default_network)
      400
  in
  let fw = FW.create ~window:64 ~buckets:6 ~epsilon:0.25 in
  FW.set_refresh_policy fw (Stream_histogram.Params.Every 7);
  Array.iteri
    (fun i v ->
      FW.push fw v;
      if i mod 5 = 0 then begin
        ignore (FW.herror fw ~k:(1 + (i mod 6)) ~x:((FW.length fw + 1) / 2));
        ignore (FW.current_error fw)
      end)
    data;
  ignore (FW.current_histogram fw);
  let c = FW.work_counters fw in
  Alcotest.(check (list int)) "lone summary: evaluations, memo probes, memo hits"
    [ 37770; 29369; 12923 ]
    [ c.FW.herror_evaluations; c.FW.memo_probes; c.FW.memo_hits ]

(* Golden answers, recorded as hex floats before the candidate scan began
   reading SQERROR straight off the prefix ring, from a seeded stream of
   83 points through a 32-point window: the ring wraps twice and the
   prefix sums rebase at pushes 32 and 64, so the stored cumulative values
   carry rebase rounding.  Every HERROR[x, k], the current error and the
   histogram must match bit for bit, on the live summary and on a view. *)
let test_fw_golden_answers () =
  let window = 32 and buckets = 4 and epsilon = 0.2 in
  let module Wk = Sh_gen.Workloads in
  let module Source = Sh_gen.Source in
  let data = Source.take (Wk.network (Sh_util.Rng.create ~seed:14) Wk.default_network) 83 in
  let fw = FW.create ~window ~buckets ~epsilon in
  FW.set_refresh_policy fw (Stream_histogram.Params.Every 5);
  Array.iter (FW.push fw) data;
  let view = FW.view fw in
  let err = 0x1.e6a4fd0bd0ap+17 in
  let hist =
    [ (1, 4, 0x1.1fcp+12); (5, 9, 0x1.3193333333333p+12);
      (10, 19, 0x1.1f04ccccccccdp+12); (20, 32, 0x1.14e6276276276p+12) ]
  in
  let herror =
    [|
      [| 0x0p+0; 0x0p+0; 0x1.861p+13; 0x1.0912aaaaaa8p+14; 0x1.1e68p+14; 0x1.e2826666668p+15;
         0x1.450daaaaaaap+17; 0x1.7d526db6db8p+17; 0x1.84cc7p+17; 0x1.b3fe1c71c7p+17;
         0x1.bcf70ccccccp+17; 0x1.1456ba2e8bap+18; 0x1.2b3abaaaaaap+18; 0x1.3674p+18;
         0x1.53d56db6db8p+18; 0x1.5893d555554p+18; 0x1.5d804p+18; 0x1.73cc0787878p+18;
         0x1.75f971c71c8p+18; 0x1.7b4d7286bccp+18; 0x1.bc66a333334p+18; 0x1.db6dbcf3cf4p+18;
         0x1.ea377745d18p+18; 0x1.0746a6f4deap+19; 0x1.1f1a5p+19; 0x1.32168p+19;
         0x1.73d4813b13cp+19; 0x1.9b0c9555554p+19; 0x1.ceab76db6dcp+19; 0x1.e9e3cp+19;
         0x1.eee5abbbbbcp+19; 0x1.f1a85ef7bep+19; 0x1.f287fp+19 |];
      [| 0x0p+0; 0x0p+0; 0x0p+0; 0x1.861p+13; 0x1.885p+13; 0x1.1e68p+14; 0x1.fae8p+14;
         0x1.01895555558p+15; 0x1.48018p+15; 0x1.4bd59999998p+15; 0x1.25cad555558p+16;
         0x1.5caadb6db6cp+17; 0x1.b9e6fp+17; 0x1.c6cf6222221p+17; 0x1.c8576ccccccp+17;
         0x1.d029a666666p+17; 0x1.d4547777776p+17; 0x1.d7b1e83a838p+17; 0x1.ddc27ccccccp+17;
         0x1.de9c0ccccccp+17; 0x1.09b60666666p+18; 0x1.106e4094f2p+18; 0x1.114bc666666p+18;
         0x1.1b544b52b52p+18; 0x1.2bb49d41d42p+18; 0x1.36b0f555556p+18; 0x1.8041c666666p+18;
         0x1.a31de848486p+18; 0x1.c3697286bccp+18; 0x1.c585ac20566p+18; 0x1.cbebdb40eb4p+18;
         0x1.0232bd1ad1bp+19; 0x1.0a0bd61bed5p+19 |];
      [| 0x0p+0; 0x0p+0; 0x0p+0; 0x0p+0; 0x1.2p+6; 0x1.885p+13; 0x1.1e68p+14; 0x1.8068p+14;
         0x1.01895555558p+15; 0x1.1eb59999998p+15; 0x1.4bd59999998p+15; 0x1.cd399999998p+15;
         0x1.d1059999998p+15; 0x1.d2b71999998p+15; 0x1.ec84p+15; 0x1.f8e4444444p+15;
         0x1.ff0d9999998p+15; 0x1.0c3eaccccccp+16; 0x1.1328cccccccp+16; 0x1.137ce666664p+16;
         0x1.8c1b86fb584p+16; 0x1.aee17777774p+16; 0x1.b557b91b91cp+16; 0x1.e637283a83cp+16;
         0x1.19524444446p+17; 0x1.33bf4666666p+17; 0x1.d23b5757576p+17; 0x1.0e151737376p+18;
         0x1.3657fe85e85p+18; 0x1.366c00a80a7p+18; 0x1.3fec6f2094ep+18; 0x1.6f5ca924926p+18;
         0x1.7f0edb26c9ap+18 |];
      [| 0x0p+0; 0x0p+0; 0x0p+0; 0x0p+0; 0x0p+0; 0x1.2p+6; 0x1.885p+13; 0x1.cb95555556p+13;
         0x1.5f1ap+14; 0x1.7a63333333p+14; 0x1.1eb59999998p+15; 0x1.4bd59999998p+15;
         0x1.5bd59999998p+15; 0x1.7336eeeeeecp+15; 0x1.79571999998p+15; 0x1.98ap+15;
         0x1.a94b444444p+15; 0x1.b6c10750748p+15; 0x1.cf035999998p+15; 0x1.d2699999998p+15;
         0x1.137ce666664p+16; 0x1.1cc96666664p+16; 0x1.2e82e666664p+16; 0x1.2fede666664p+16;
         0x1.38dfb33333p+16; 0x1.3b63bbbbbb8p+16; 0x1.c6f4e666664p+16; 0x1.ebece666664p+16;
         0x1.19f67333332p+17; 0x1.1e2ee666666p+17; 0x1.2afb44a7902p+17; 0x1.9dbee888886p+17;
         0x1.e6a4fd0bd0ap+17 |];
    |]
  in
  let hex = Printf.sprintf "%h" in
  let check_hist side h =
    Alcotest.(check (list (triple int int string)))
      (side ^ ": histogram buckets")
      (List.map (fun (lo, hi, v) -> (lo, hi, hex v)) hist)
      (Array.to_list (Array.map (fun b -> (b.H.lo, b.H.hi, hex b.H.value)) (H.buckets h)))
  in
  Alcotest.(check int) "window full" window (FW.length fw);
  Alcotest.(check string) "live: current_error" (hex err) (hex (FW.current_error fw));
  Alcotest.(check string) "view: current_error" (hex err) (hex (FW.View.current_error view));
  check_hist "live" (FW.current_histogram fw);
  check_hist "view" (FW.View.current_histogram view);
  for k = 1 to buckets do
    for x = 0 to window do
      let expect = hex herror.(k - 1).(x) in
      let what side = Printf.sprintf "%s: herror k=%d x=%d" side k x in
      Alcotest.(check string) (what "live") expect (hex (FW.herror fw ~k ~x));
      Alcotest.(check string) (what "view") expect (hex (FW.View.herror view ~k ~x))
    done
  done

(* Interval lists recorded when every list stored all four columns
   (a_idx, a_herror, b_idx, b_herror): digests of every level's rows, as
   [FW.intervals] reports them in hex, after a window's first refresh (one
   full-window slice) and after each [Every 16] warm refresh that follows.
   Lists keep only the right-end columns, so these pin the derived left
   ends and the re-evaluated a_herror to the values once stored. *)
let test_fw_intervals_golden () =
  let module Wk = Sh_gen.Workloads in
  let module Source = Sh_gen.Source in
  let hex = Printf.sprintf "%h" in
  let digest rows_of buckets =
    let buf = Buffer.create 4096 in
    for k = 1 to buckets - 1 do
      Array.iter
        (fun (a, ha, b, hb) ->
          Buffer.add_string buf (Printf.sprintf "%d,%s,%d,%s;" a (hex ha) b (hex hb)))
        (rows_of ~k);
      Buffer.add_char buf '|'
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let check ~seed ~window ~buckets expected =
    let len = window + (16 * (List.length expected - 1)) in
    let data = Source.take (Wk.network (Sh_util.Rng.create ~seed) Wk.default_network) len in
    let fw = FW.create ~window ~buckets ~epsilon:0.2 in
    FW.set_refresh_policy fw (Stream_histogram.Params.Every 16);
    List.iteri
      (fun s dig ->
        let pos, len = if s = 0 then (0, window) else (window + ((s - 1) * 16), 16) in
        FW.push_slice fw data ~pos ~len;
        let what side = Printf.sprintf "n=%d refresh %d: %s intervals" window s side in
        let v = FW.view fw in
        Alcotest.(check string) (what "live") dig (digest (FW.intervals fw) buckets);
        Alcotest.(check string) (what "view") dig (digest (FW.View.intervals v) buckets))
      expected
  in
  check ~seed:14 ~window:32 ~buckets:4
    [ "b79dee0e63362d1c3334d25e2cd09ed8"; "7676b2ca34961ac7900e60964c79d87b";
      "fb25765b938d751b10a88c49ddfd04db"; "659a54ecfbc890df104f1eddd162fe50" ];
  check ~seed:21 ~window:256 ~buckets:8
    [ "311b8d830277897c4b5ce687b75330b3"; "1f86f1b12a8e20618352bf53707568e3";
      "21c8961fb5cf31857307fbfae8aba7e3"; "685e514032c68efafcec10bec70de0c0";
      "22cab101333a2101bae1d7a323a6111a" ]

(* The list invariants the two-column storage relies on, on live
   summaries and on views, after warm and cold refreshes of random
   windows: every level's right endpoints rise strictly and end at n, the
   reported left ends are a_0 = 1 and a_r = b_(r-1) + 1, and both reported
   HERROR columns equal HERROR at those positions, bit for bit. *)
let prop_fw_list_invariants =
  Helpers.qcheck_case ~count:40 ~name:"interval lists: contiguous cover, stored herror exact"
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* workload = gen_twin_workload in
      let* window = int_range 1 48 in
      let* b = int_range 2 8 in
      let* eps = oneofl [ 0.01; 0.1; 0.5; 1.0 ] in
      let* len = int_range 0 (3 * window) in
      let* slice = int_range 1 9 in
      let* cold = bool in
      let* memo = bool in
      return (seed, workload, window, b, eps, len, slice, cold, memo))
    (fun (seed, workload, window, b, eps, len, slice, cold, memo) ->
      let data = twin_data ~seed workload len in
      let fw = FW.create ~window ~buckets:b ~epsilon:eps in
      FW.set_memoisation fw memo;
      let bits = Int64.bits_of_float in
      (* a_0 = 1, a_r = b_(r-1) + 1 and a_r <= b_r: the right ends rise
         strictly; the last one is n when the next left end is n + 1 *)
      let valid ~n rows ~herror =
        let ok = ref true and next_a = ref 1 in
        Array.iter
          (fun (a, ha, b, hb) ->
            if a <> !next_a || b < a then ok := false;
            if bits ha <> bits (herror ~x:a) || bits hb <> bits (herror ~x:b) then ok := false;
            next_a := b + 1)
          rows;
        !ok && !next_a = n + 1
      in
      let ok = ref true in
      let pos = ref 0 in
      while !pos <= len do
        let take = min slice (len - !pos) in
        FW.push_slice fw data ~pos:!pos ~len:take;
        pos := !pos + max take 1;
        FW.refresh ~cold fw;
        let v = FW.view fw in
        let n = FW.length fw in
        for k = 1 to b - 1 do
          if not (valid ~n (FW.intervals fw ~k) ~herror:(FW.herror fw ~k)) then ok := false;
          if not (valid ~n (FW.View.intervals v ~k) ~herror:(FW.View.herror v ~k)) then ok := false
        done
      done;
      !ok)

(* Answers recorded before the CreateList searches were seeded, for a
   window's first refresh (one full-window [push_slice], no previous lists)
   and the [Every 16] warm refreshes after it.  Each digest covers every
   HERROR[x, k] (x = 0 .. 256, k = 1 .. 8) and the histogram buckets,
   rendered as hex floats, so a single changed bit fails it; the live
   summary and a view must both match.  The spike stream adds 1e6 outliers
   to small-integer data. *)
let test_fw_first_refresh_golden () =
  let window = 256 and buckets = 8 and epsilon = 0.2 and slices = 4 in
  let hex = Printf.sprintf "%h" in
  let digest ~herror ~hist =
    let buf = Buffer.create 65536 in
    for k = 1 to buckets do
      for x = 0 to window do
        Buffer.add_string buf (hex (herror ~k ~x));
        Buffer.add_char buf ';'
      done
    done;
    Array.iter
      (fun bk -> Buffer.add_string buf (Printf.sprintf "%d,%d,%s;" bk.H.lo bk.H.hi (hex bk.H.value)))
      (H.buckets hist);
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let check name data expected =
    let fw = FW.create ~window ~buckets ~epsilon in
    FW.set_refresh_policy fw (Stream_histogram.Params.Every 16);
    List.iteri
      (fun s (err, dig) ->
        let pos, len = if s = 0 then (0, window) else (window + ((s - 1) * 16), 16) in
        FW.push_slice fw data ~pos ~len;
        let what side = Printf.sprintf "%s slice %d: %s" name s side in
        Alcotest.(check bool) (what "refreshed by the slice") false (FW.needs_refresh fw);
        let v = FW.view fw in
        Alcotest.(check string) (what "current_error") (hex err) (hex (FW.current_error fw));
        Alcotest.(check string) (what "live digest") dig
          (digest ~herror:(FW.herror fw) ~hist:(FW.current_histogram fw));
        Alcotest.(check string) (what "view digest") dig
          (digest ~herror:(FW.View.herror v) ~hist:(FW.View.current_histogram v)))
      expected
  in
  let module Wk = Sh_gen.Workloads in
  let module Source = Sh_gen.Source in
  let len = window + (slices * 16) in
  check "network"
    (Source.take (Wk.network (Sh_util.Rng.create ~seed:15) Wk.default_network) len)
    [ (0x1.22d5159716bep+22, "b2750ca27235aa84f5f21c63fd6f8ced");
      (0x1.209a4e10ed08p+22, "2b310af501ceea8926a162fb32352a34");
      (0x1.0c15c72a2498p+22, "19fe1bbe179a8db5ffc5886e85d0df52");
      (0x1.15ea0bf5f062p+22, "0a25d6361d38c367c610f2042b3e0fc9");
      (0x1.04b44a3b84e2p+22, "9778bca4d5a13278fadf11f1b7e144af") ];
  check "spike"
    (Array.init len (fun i ->
         Float.of_int ((i * 37) mod 101) +. if i mod 41 = 7 then 1e6 else 0.0))
    [ (0x1.a2cf747082776p+41, "7c52ba8f15a052912a4d778630414db0");
      (0x1.52e25c69c73d7p+41, "aad119a1fb7b08780e5042547951dbf9");
      (0x1.53b2ff77defbfp+41, "1328bc1457669c112044c7491e4972fa");
      (0x1.55527d4a39cbdp+41, "c7d3556a99af10ea7b9988187373305e");
      (0x1.538edda096cep+41, "98fb9e2f1cd84efe33815ad7254b4214") ]

(* -------------------------------------------------------- agglomerative *)

let test_ag_accessors () =
  let ag = AG.create ~buckets:4 ~epsilon:0.25 in
  Alcotest.(check int) "buckets" 4 (AG.buckets ag);
  Helpers.check_close "epsilon" 0.25 (AG.epsilon ag);
  Alcotest.(check int) "count" 0 (AG.count ag);
  Helpers.check_close "empty error" 0.0 (AG.current_error ag);
  Alcotest.check_raises "empty histogram"
    (Invalid_argument "Agglomerative.current_histogram: empty stream") (fun () ->
      ignore (AG.current_histogram ag))

let test_ag_single_bucket () =
  let ag = AG.create ~buckets:1 ~epsilon:0.1 in
  feed_ag ag [| 1.0; 3.0 |];
  Helpers.check_close "B=1 error" 2.0 (AG.current_error ag);
  let h = AG.current_histogram ag in
  Alcotest.(check int) "one bucket" 1 (H.bucket_count h);
  Helpers.check_close "mean" 2.0 (H.point_estimate h 1)

let test_ag_step_data_zero_error () =
  let ag = AG.create ~buckets:3 ~epsilon:0.1 in
  let data = Array.concat [ Array.make 20 1.0; Array.make 20 5.0; Array.make 20 2.0 ] in
  feed_ag ag data;
  Helpers.check_close "exact on 3-step data" 0.0 (AG.current_error ag);
  let h = AG.current_histogram ag in
  Helpers.check_close "reconstruction exact" 0.0 (H.sse_against h (P.make data))

let prop_ag_guarantee =
  Helpers.qcheck_case ~count:40 ~name:"agglomerative SSE within (1+eps) of optimal"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:2 ~max_len:120 ~vmax:1000 () in
      let* b = int_range 1 6 in
      let* eps = oneofl [ 0.01; 0.1; 0.5; 1.0 ] in
      return (data, b, eps))
    (fun (data, b, eps) ->
      let ag = AG.create ~buckets:b ~epsilon:eps in
      feed_ag ag data;
      let p = P.make data in
      let opt = V.optimal_error p ~buckets:b in
      let err = AG.current_error ag in
      let sse = H.sse_against (AG.current_histogram ag) p in
      within_guarantee ~eps ~opt err && within_guarantee ~eps ~opt sse)

let prop_ag_guarantee_every_prefix =
  Helpers.qcheck_case ~count:10 ~name:"agglomerative guarantee holds at every prefix"
    QCheck2.Gen.(
      let* stream = array_size (int_range 10 80) (int_range 0 300) in
      return (Array.map Float.of_int stream))
    (fun stream ->
      let b = 3 and eps = 0.2 in
      let ag = AG.create ~buckets:b ~epsilon:eps in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          AG.push ag v;
          if i mod 5 = 0 then begin
            let p = P.of_sub stream ~pos:0 ~len:(i + 1) in
            let opt = V.optimal_error p ~buckets:b in
            if not (within_guarantee ~eps ~opt (AG.current_error ag)) then ok := false
          end)
        stream;
      !ok)

let test_ag_space_sublinear () =
  (* Space must stay polylogarithmic in the stream length: push 50k points
     and check the queue total against the paper's O((B^2/eps) log n) with
     a generous constant. *)
  let b = 5 and eps = 0.2 in
  let ag = AG.create ~buckets:b ~epsilon:eps in
  let rng = Helpers.rng ~seed:4 in
  let n = 50_000 in
  for _ = 1 to n do
    AG.push ag (Float.of_int (Sh_util.Rng.int rng 10_000))
  done;
  let delta = eps /. (2.0 *. Float.of_int b) in
  let per_queue = 3.0 /. delta *. (log (Float.of_int n *. 1e8) /. log 2.0) in
  let bound = int_of_float (per_queue *. Float.of_int (b - 1)) + 64 in
  Alcotest.(check bool) "space within paper bound" true (AG.space_in_entries ag <= bound);
  Alcotest.(check int) "interval_counts consistent" (AG.space_in_entries ag)
    (Array.fold_left ( + ) 0 (AG.interval_counts ag))

let test_ag_monotone_error () =
  (* HERROR[N, B] never decreases as the stream grows. *)
  let ag = AG.create ~buckets:2 ~epsilon:0.1 in
  let rng = Helpers.rng ~seed:5 in
  let prev = ref 0.0 in
  let ok = ref true in
  for _ = 1 to 500 do
    AG.push ag (Float.of_int (Sh_util.Rng.int rng 100));
    let e = AG.current_error ag in
    if e < !prev -. 1e-6 then ok := false;
    prev := e
  done;
  Alcotest.(check bool) "monotone non-decreasing" true !ok

(* --------------------------------------------------------- exact window *)

module EW = Stream_histogram.Exact_window

let test_ew_matches_vopt_on_window () =
  let data = Array.init 120 (fun i -> Float.of_int ((i * 53) mod 97)) in
  let ew = EW.create ~window:48 ~buckets:5 in
  Array.iter (EW.push ew) data;
  let window = Array.sub data (120 - 48) 48 in
  let p = P.make window in
  Helpers.check_close "optimal error of window" (V.optimal_error p ~buckets:5)
    (EW.current_error ew);
  Helpers.check_close "histogram achieves it" (V.optimal_error p ~buckets:5)
    (H.sse_against (EW.current_histogram ew) p)

let test_ew_is_lower_bound_for_fw () =
  let data = Array.init 200 (fun i -> Float.of_int ((i * 17) mod 211)) in
  let ew = EW.create ~window:64 ~buckets:4 in
  let fw = FW.create ~window:64 ~buckets:4 ~epsilon:0.1 in
  Array.iter (fun v -> EW.push ew v; FW.push fw v) data;
  Alcotest.(check bool) "exact <= approximate" true
    (EW.current_error ew <= FW.current_error fw +. 1e-6)

let test_ew_partial_and_empty () =
  let ew = EW.create ~window:10 ~buckets:2 in
  Alcotest.check_raises "empty" (Invalid_argument "Exact_window.current_histogram: empty window")
    (fun () -> ignore (EW.current_error ew));
  EW.push ew 5.0;
  Alcotest.(check int) "length" 1 (EW.length ew);
  Helpers.check_close "single point" 0.0 (EW.current_error ew)

(* ------------------------------------------------------ input validation *)

let test_non_finite_rejected () =
  let fw = FW.create ~window:4 ~buckets:2 ~epsilon:0.1 in
  FW.push fw 1.0;
  FW.push fw 2.0;
  let err_before = FW.current_error fw in
  let hist_before = H.to_series (FW.current_histogram fw) in
  List.iter
    (fun (label, v) ->
      Alcotest.check_raises label (Invalid_argument "Fixed_window.push: non-finite value")
        (fun () -> FW.push fw v))
    [ ("fw nan", Float.nan); ("fw inf", Float.infinity); ("fw -inf", Float.neg_infinity) ];
  (* rejection must happen before any state is touched: the window, its
     error, and its histogram are exactly as they were *)
  Alcotest.(check int) "fw length unchanged" 2 (FW.length fw);
  Helpers.check_close "fw error unchanged" err_before (FW.current_error fw);
  Alcotest.(check (array (float 0.0)))
    "fw histogram unchanged" hist_before
    (H.to_series (FW.current_histogram fw));
  let ag = AG.create ~buckets:2 ~epsilon:0.1 in
  AG.push ag 3.0;
  List.iter
    (fun (label, v) ->
      Alcotest.check_raises label (Invalid_argument "Agglomerative.push: non-finite value")
        (fun () -> AG.push ag v))
    [ ("ag nan", Float.nan); ("ag inf", Float.infinity); ("ag -inf", Float.neg_infinity) ];
  Alcotest.(check int) "ag count unchanged" 1 (AG.count ag);
  let ew = EW.create ~window:4 ~buckets:2 in
  EW.push ew 4.0;
  List.iter
    (fun (label, v) ->
      Alcotest.check_raises label (Invalid_argument "Exact_window.push: non-finite value")
        (fun () -> EW.push ew v))
    [ ("ew nan", Float.nan); ("ew inf", Float.infinity); ("ew -inf", Float.neg_infinity) ];
  Alcotest.(check int) "ew length unchanged" 1 (EW.length ew)

(* ------------------------------------------------- cross-algorithm ties *)

let prop_fw_and_ag_agree_on_full_window =
  Helpers.qcheck_case ~count:25 ~name:"fixed-window and agglomerative agree when window = stream"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:2 ~max_len:80 ~vmax:500 () in
      let* b = int_range 1 5 in
      return (data, b))
    (fun (data, b) ->
      (* Both answer the same question on identical inputs, so both must
         land within the same guarantee band of the same optimum. *)
      let eps = 0.1 in
      let n = Array.length data in
      let fw = FW.create ~window:n ~buckets:b ~epsilon:eps in
      let ag = AG.create ~buckets:b ~epsilon:eps in
      feed_fw fw data;
      feed_ag ag data;
      let opt = V.optimal_error (P.make data) ~buckets:b in
      within_guarantee ~eps ~opt (FW.current_error fw)
      && within_guarantee ~eps ~opt (AG.current_error ag))

let () =
  Alcotest.run "stream_histogram"
    [
      ( "paper_example",
        [
          Alcotest.test_case "example 1 after slide" `Quick test_paper_example_1;
          Alcotest.test_case "example 1 first window" `Quick test_paper_example_1_first_window;
        ] );
      ( "fixed_window",
        [
          Alcotest.test_case "accessors" `Quick test_fw_accessors;
          Alcotest.test_case "validation" `Quick test_fw_validation;
          Alcotest.test_case "partial window" `Quick test_fw_partial_window;
          Alcotest.test_case "constant stream" `Quick test_fw_constant_stream;
          Alcotest.test_case "bucket count" `Quick test_fw_bucket_count_bounded;
          Alcotest.test_case "lazy vs eager" `Quick test_fw_lazy_vs_eager;
          Alcotest.test_case "push batch" `Quick test_fw_push_batch;
          Alcotest.test_case "degenerate sizes" `Quick test_fw_degenerate_sizes;
          Alcotest.test_case "refresh idempotent" `Quick test_fw_refresh_idempotent;
          Alcotest.test_case "work counters" `Quick test_fw_work_counters;
          Alcotest.test_case "work counters golden" `Quick test_fw_work_counters_golden;
          Alcotest.test_case "flush discipline" `Quick test_fw_flush_discipline;
          Alcotest.test_case "slide reuses memory" `Quick test_fw_slide_reuses_memory;
          Alcotest.test_case "push allocation budget" `Quick test_fw_push_alloc_budget;
          Alcotest.test_case "interval bound" `Quick test_fw_interval_count_bound;
          Alcotest.test_case "held view keeps its answers" `Quick test_fw_held_view_keeps_answers;
          Alcotest.test_case "view_into refills like view" `Quick test_fw_view_into_refills;
          Alcotest.test_case "held view survives two refreshes" `Quick
            test_fw_held_view_survives_refreshes;
          Alcotest.test_case "refilled view keeps source lists" `Quick
            test_fw_refill_keeps_source_lists;
          Alcotest.test_case "memo table shared per domain" `Quick test_fw_shared_memo_arena;
          Alcotest.test_case "golden answers" `Quick test_fw_golden_answers;
          Alcotest.test_case "first refresh golden" `Quick test_fw_first_refresh_golden;
          Alcotest.test_case "intervals golden" `Quick test_fw_intervals_golden;
          prop_fw_list_invariants;
          prop_fw_guarantee;
          prop_fw_guarantee_while_sliding;
          prop_fw_herror_brackets_exact;
        ] );
      ( "warm_start",
        [
          prop_warm_equals_cold;
          prop_memo_equals_unmemo_equals_cold;
          Alcotest.test_case "3x fewer herror evals" `Quick test_fw_warm_speedup;
          Alcotest.test_case "policy eager" `Quick test_fw_policy_eager;
          Alcotest.test_case "policy every" `Quick test_fw_policy_every;
          Alcotest.test_case "policy every:1 boundary" `Quick test_fw_policy_every_one;
          Alcotest.test_case "push_slice" `Quick test_fw_push_slice;
          Alcotest.test_case "policies agree" `Quick test_fw_policy_matches_lazy;
          Alcotest.test_case "policy validation" `Quick test_fw_policy_validation;
          Alcotest.test_case "best_split counted" `Quick test_best_split_counted;
        ] );
      ( "agglomerative",
        [
          Alcotest.test_case "accessors" `Quick test_ag_accessors;
          Alcotest.test_case "single bucket" `Quick test_ag_single_bucket;
          Alcotest.test_case "step data" `Quick test_ag_step_data_zero_error;
          Alcotest.test_case "space sublinear" `Quick test_ag_space_sublinear;
          Alcotest.test_case "monotone error" `Quick test_ag_monotone_error;
          prop_ag_guarantee;
          prop_ag_guarantee_every_prefix;
        ] );
      ( "exact_window",
        [
          Alcotest.test_case "matches vopt" `Quick test_ew_matches_vopt_on_window;
          Alcotest.test_case "lower bound for fw" `Quick test_ew_is_lower_bound_for_fw;
          Alcotest.test_case "partial and empty" `Quick test_ew_partial_and_empty;
          Alcotest.test_case "non-finite rejected" `Quick test_non_finite_rejected;
        ] );
      ("cross", [ prop_fw_and_ag_agree_on_full_window ]);
    ]
