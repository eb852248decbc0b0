(* Extension benchmarks (beyond the paper's own tables): a shoot-out of
   every sequence synopsis in the repository at equal space, and a
   selectivity-estimation comparison for the value-domain histograms. *)

module Rng = Sh_util.Rng
module Source = Sh_gen.Source
module Wk = Sh_gen.Workloads
module P = Sh_prefix.Prefix_sums
module V = Sh_histogram.Vopt
module Heur = Sh_histogram.Heuristics
module AG = Stream_histogram.Agglomerative
module Syn = Sh_wavelet.Synopsis
module SW = Sh_wavelet.Streaming
module Dct = Sh_wavelet.Dct
module E = Sh_query.Estimator
module Q = Sh_query.Workload
module Ev = Sh_query.Evaluate
module VH = Sh_selectivity.Value_histogram

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
    [ "vopt"; "agglomerative"; "greedy"; "equiwidth"; "haar"; "streaming-haar"; "dct" ]
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
      | "dct" ->
        let d = Dct.build data ~coeffs:buckets in
        {
          E.name = "dct";
          n = Dct.length d;
          point = Dct.point_estimate d;
          range_sum = Dct.range_sum_estimate d;
        }
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

let selectivity scale =
  let n, buckets, queries =
    match scale with
    | Bench_config.Small -> (20_000, 20, 50)
    | Bench_config.Default -> (100_000, 25, 100)
    | Bench_config.Full -> (500_000, 32, 200)
  in
  Report.section "EXT-SELECTIVITY: value-domain histograms on a skewed column";
  Report.note "%d tuples, Zipf(1.1) over 10k values, B=%d; avg |selectivity error| over %d random range predicates"
    n buckets queries;
  let rng = Rng.create ~seed:81 in
  let column = Array.init n (fun _ -> Float.of_int (Rng.zipf rng ~n:10_000 ~skew:1.1)) in
  let truth lo hi =
    let c = Array.fold_left (fun a v -> if v >= lo && v <= hi then a + 1 else a) 0 column in
    Float.of_int c /. Float.of_int n
  in
  let qrng = Rng.create ~seed:82 in
  let predicates =
    Array.init queries (fun _ ->
        (* skew the predicate starts like the data so hot ranges get hit *)
        let lo = Float.of_int (Rng.zipf qrng ~n:10_000 ~skew:1.1) in
        let hi = lo +. Float.of_int (Rng.int qrng 500) in
        (lo, hi))
  in
  let g = Sh_gk.Gk.create ~epsilon:0.005 in
  Array.iter (Sh_gk.Gk.insert g) column;
  let methods =
    [
      ("equi-width", VH.selectivity_range (VH.equi_width column ~buckets));
      ("equi-depth", VH.selectivity_range (VH.equi_depth column ~buckets));
      ("equi-depth-GK (1-pass)", VH.selectivity_range (VH.equi_depth_of_gk g ~buckets));
      ("v-optimal", VH.selectivity_range (VH.v_optimal column ~buckets ~domain_bins:(16 * buckets)));
      ( "wavelet [MVW]",
        Sh_selectivity.Wavelet_histogram.selectivity_range
          (Sh_selectivity.Wavelet_histogram.build column ~coeffs:buckets
             ~domain_bins:(16 * buckets)) );
    ]
  in
  let rows =
    List.map
      (fun (name, sel) ->
        let err = ref 0.0 and worst = ref 0.0 in
        Array.iter
          (fun (lo, hi) ->
            let e = Float.abs (sel ~lo ~hi -. truth lo hi) in
            err := !err +. e;
            worst := Float.max !worst e)
          predicates;
        [
          name;
          Printf.sprintf "%.5f" (!err /. Float.of_int queries);
          Printf.sprintf "%.5f" !worst;
        ])
      methods
  in
  Report.table ~headers:[ "method"; "avg |sel error|"; "worst |sel error|" ] rows
