(* End-to-end pipelines: stream generation -> synopsis maintenance ->
   query estimation -> error evaluation, crossing every library. *)

module Rng = Sh_util.Rng
module Source = Sh_gen.Source
module Wk = Sh_gen.Workloads
module P = Sh_prefix.Prefix_sums
module RB = Sh_window.Ring_buffer
module H = Sh_histogram.Histogram
module V = Sh_histogram.Vopt
module FW = Stream_histogram.Fixed_window
module AG = Stream_histogram.Agglomerative
module Syn = Sh_wavelet.Synopsis
module E = Sh_query.Estimator
module Q = Sh_query.Workload
module Ev = Sh_query.Evaluate

(* Fixed-window pipeline over a realistic network stream: at several slide
   positions the fixed-window histogram must answer range sums more
   accurately than an equal-space wavelet, and both must beat nothing at
   all (the global-mean estimator). *)
let test_fixed_window_pipeline () =
  let rng = Rng.create ~seed:2024 in
  let stream = Source.take (Wk.network rng Wk.default_network) 4096 in
  let w = 512 and b = 24 in
  let fw = FW.create ~window:w ~buckets:b ~epsilon:0.1 in
  let ring = RB.create ~capacity:w in
  let qrng = Rng.create ~seed:7 in
  let checks = ref 0 in
  Array.iteri
    (fun i v ->
      FW.push fw v;
      RB.push ring v;
      if i >= w - 1 && (i + 1) mod 1024 = 0 then begin
        incr checks;
        let window = RB.to_array ring in
        let truth = E.exact (P.make window) in
        let queries = Q.random_ranges qrng ~n:w ~count:300 in
        let hist_err =
          (Ev.range_sum_errors ~truth (E.of_histogram (FW.current_histogram fw)) queries)
            .Sh_util.Metrics.mae
        in
        let wavelet_err =
          (Ev.range_sum_errors ~truth (E.of_wavelet (Syn.build window ~coeffs:b)) queries)
            .Sh_util.Metrics.mae
        in
        let mean = Sh_util.Stats.mean window in
        let flat_err =
          (Ev.range_sum_errors ~truth (E.of_series (Array.make w mean)) queries)
            .Sh_util.Metrics.mae
        in
        Alcotest.(check bool)
          (Printf.sprintf "histogram beats flat at %d (%.1f vs %.1f)" i hist_err flat_err)
          true (hist_err <= flat_err +. 1e-6);
        Alcotest.(check bool)
          (Printf.sprintf "histogram competitive with wavelet at %d (%.1f vs %.1f)" i hist_err
             wavelet_err)
          true
          (hist_err <= (2.0 *. wavelet_err) +. 1e-6)
      end)
    stream;
  Alcotest.(check bool) "pipeline exercised" true (!checks >= 3)

(* Agglomerative pipeline: one pass over a "warehouse" table, then
   approximate querying against exact answers, with accuracy close to the
   optimal histogram's. *)
let test_agglomerative_pipeline () =
  let rng = Rng.create ~seed:11 in
  let data = Source.take (Wk.step_signal rng ~segment_mean:64 ~noise_stddev:4.0 ()) 2048 in
  let b = 16 in
  let ag = AG.create ~buckets:b ~epsilon:0.1 in
  Array.iter (AG.push ag) data;
  let p = P.make data in
  let truth = E.exact p in
  let queries = Q.random_ranges (Rng.create ~seed:3) ~n:2048 ~count:400 in
  let ag_hist = AG.current_histogram ag in
  let opt_hist = V.build_prefix p ~buckets:b in
  let mae h = (Ev.range_sum_errors ~truth (E.of_histogram h) queries).Sh_util.Metrics.mae in
  let ag_mae = mae ag_hist and opt_mae = mae opt_hist in
  (* SSE guarantee transfers loosely to query error; assert a generous
     factor plus slack for the near-zero-error regime. *)
  Alcotest.(check bool)
    (Printf.sprintf "agglomerative mae %.2f close to optimal %.2f" ag_mae opt_mae)
    true
    (ag_mae <= (3.0 *. opt_mae) +. 50.0)

(* Histogram synopses (this paper) vs APCA (prior work) on similarity
   search: with equal budgets the optimal-placement synopsis must produce
   tighter lower bounds, hence no more candidates on average — the
   Section 5.2 claim. *)
let test_similarity_pipeline () =
  let rng = Rng.create ~seed:31 in
  let series = Wk.series_family rng ~count:40 ~len:128 ~shapes:8 ~noise:5.0 in
  let m = 8 in
  let apca =
    Sh_timeseries.Similarity.make_collection ~name:"apca"
      ~synopsis:(fun s -> Sh_timeseries.Apca.build s ~segments:m)
      series
  in
  let hist =
    Sh_timeseries.Similarity.make_collection ~name:"hist"
      ~synopsis:(fun s -> Sh_timeseries.Segments.of_histogram (V.build s ~buckets:m))
      series
  in
  let total_fp coll =
    let acc = ref 0 in
    Array.iteri
      (fun i q ->
        if i mod 4 = 0 then begin
          let _, stats = Sh_timeseries.Similarity.range_search coll ~query:q ~radius:60.0 in
          acc := !acc + stats.Sh_timeseries.Similarity.false_positives
        end)
      series;
    !acc
  in
  let fp_apca = total_fp apca and fp_hist = total_fp hist in
  Alcotest.(check bool)
    (Printf.sprintf "histogram false positives (%d) <= apca (%d) + slack" fp_hist fp_apca)
    true
    (fp_hist <= fp_apca + 3)

(* The full stack is deterministic end to end: same seeds, same outputs. *)
let test_end_to_end_determinism () =
  let run () =
    let rng = Rng.create ~seed:5 in
    let stream = Source.take (Wk.network rng Wk.default_network) 1024 in
    let fw = FW.create ~window:256 ~buckets:8 ~epsilon:0.2 in
    Array.iter (FW.push fw) stream;
    (FW.current_error fw, H.to_series (FW.current_histogram fw))
  in
  let e1, s1 = run () in
  let e2, s2 = run () in
  Helpers.check_close "same error" e1 e2;
  Alcotest.(check (array (float 0.0))) "same histogram" s1 s2

(* GK quantiles and histograms agree on coarse distribution shape. *)
let test_quantile_cross_check () =
  let rng = Rng.create ~seed:6 in
  let data = Source.take (Wk.uniform_noise rng ~lo:0.0 ~hi:1000.0) 20_000 in
  let g = Sh_gk.Gk.create ~epsilon:0.01 in
  Array.iter (Sh_gk.Gk.insert g) data;
  let med = Sh_gk.Gk.quantile g 0.5 in
  let true_med = Sh_util.Stats.median data in
  Alcotest.(check bool)
    (Printf.sprintf "GK median %.0f near true %.0f" med true_med)
    true
    (Float.abs (med -. true_med) < 30.0)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "fixed-window querying" `Slow test_fixed_window_pipeline;
          Alcotest.test_case "agglomerative warehouse" `Quick test_agglomerative_pipeline;
          Alcotest.test_case "similarity search" `Quick test_similarity_pipeline;
          Alcotest.test_case "determinism" `Quick test_end_to_end_determinism;
          Alcotest.test_case "quantile cross-check" `Quick test_quantile_cross_check;
        ] );
    ]
