(* Extension benchmark (beyond the paper's own tables): a shoot-out of
   every sequence synopsis in the repository at equal space. *)

module Rng = Sh_util.Rng
module Source = Sh_gen.Source
module Wk = Sh_gen.Workloads
module P = Sh_prefix.Prefix_sums
module V = Sh_histogram.Vopt
module Heur = Sh_histogram.Heuristics
module AG = Stream_histogram.Agglomerative
module Syn = Sh_wavelet.Synopsis
module SW = Sh_wavelet.Streaming
module E = Sh_query.Estimator
module Q = Sh_query.Workload
module Ev = Sh_query.Evaluate

let synopses scale =
  let n, buckets, queries =
    match scale with
    | Bench_config.Small -> (2_000, 16, 200)
    | Bench_config.Default -> (8_000, 32, 500)
    | Bench_config.Full -> (32_000, 32, 1_000)
  in
  Report.section "EXT-SYNOPSES: every sequence synopsis at equal space, range-sum accuracy";
  Report.note "n=%d points per workload, B=%d buckets / coefficients, %d queries (avg |error|)"
    n buckets queries;
  let workloads =
    [
      ("network", Source.take (Wk.network (Rng.create ~seed:71) Wk.default_network) n);
      ("steps", Source.take (Wk.step_signal (Rng.create ~seed:72) ~segment_mean:(n / 50) ()) n);
      ("uniform", Source.take (Wk.uniform_noise (Rng.create ~seed:73) ~lo:0.0 ~hi:10_000.0) n);
    ]
  in
  let method_names =
    [ "vopt"; "agglomerative"; "greedy"; "equiwidth"; "haar"; "streaming-haar" ]
  in
  let run data name =
    let p = P.make data in
    let est =
      match name with
      | "vopt" -> E.of_histogram (V.build_prefix p ~buckets)
      | "agglomerative" ->
        let ag = AG.create ~buckets ~epsilon:0.1 in
        Array.iter (AG.push ag) data;
        E.of_histogram (AG.current_histogram ag)
      | "greedy" -> E.of_histogram (Heur.greedy_merge p ~buckets)
      | "equiwidth" -> E.of_histogram (Heur.equi_width p ~buckets)
      | "haar" -> E.of_wavelet (Syn.build data ~coeffs:buckets)
      | "streaming-haar" ->
        let sw = SW.create ~budget:buckets in
        Array.iter (SW.push sw) data;
        E.of_streaming_wavelet sw
      | _ -> assert false
    in
    let truth = E.exact p in
    let qs = Q.random_ranges (Rng.create ~seed:74) ~n ~count:queries in
    (Ev.range_sum_errors ~truth est qs).Sh_util.Metrics.mae
  in
  let rows =
    List.map
      (fun (wname, data) -> wname :: List.map (fun m -> Report.fmt_g (run data m)) method_names)
      workloads
  in
  Report.table ~headers:("workload" :: method_names) rows
