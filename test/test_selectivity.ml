module VH = Sh_selectivity.Value_histogram
module Gk = Sh_gk.Gk
module Rng = Sh_util.Rng

let true_selectivity data lo hi =
  let n = Array.length data in
  let c = Array.fold_left (fun acc v -> if v >= lo && v <= hi then acc + 1 else acc) 0 data in
  Float.of_int c /. Float.of_int n

let uniform_data ~seed ~n ~hi =
  let rng = Rng.create ~seed in
  Array.init n (fun _ -> Float.of_int (Rng.int rng hi))

(* ------------------------------------------------------------ building *)

let test_equi_width_structure () =
  let h = VH.equi_width [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 |] ~buckets:4 in
  Alcotest.(check int) "buckets" 4 (VH.bucket_count h);
  Helpers.check_close "total covered" 1.0 (VH.selectivity_range h ~lo:0.0 ~hi:7.0)

let test_equi_depth_counts () =
  let data = Array.init 100 Float.of_int in
  let h = VH.equi_depth data ~buckets:4 in
  Alcotest.(check int) "buckets" 4 (VH.bucket_count h);
  (* each quartile holds 25 values *)
  Array.iter
    (fun b -> Helpers.check_close "equal depth" 25.0 b.VH.count)
    (h : VH.t).VH.buckets

let test_empty_rejected () =
  Alcotest.check_raises "equi_width empty" (Invalid_argument "Value_histogram.equi_width: empty data")
    (fun () -> ignore (VH.equi_width [||] ~buckets:2));
  Alcotest.check_raises "equi_depth empty" (Invalid_argument "Value_histogram.equi_depth: empty data")
    (fun () -> ignore (VH.equi_depth [||] ~buckets:2))

let test_constant_data () =
  let h = VH.equi_width (Array.make 10 5.0) ~buckets:3 in
  Helpers.check_close "all mass findable" 1.0 (VH.selectivity_range h ~lo:4.0 ~hi:6.0)

(* ----------------------------------------------------------- estimation *)

let test_range_selectivity_uniform () =
  let data = uniform_data ~seed:1 ~n:20_000 ~hi:1000 in
  List.iter
    (fun (name, h) ->
      List.iter
        (fun (lo, hi) ->
          let est = VH.selectivity_range h ~lo ~hi in
          let tru = true_selectivity data lo hi in
          Alcotest.(check bool)
            (Printf.sprintf "%s [%g,%g]: est %.4f vs true %.4f" name lo hi est tru)
            true
            (Float.abs (est -. tru) < 0.02))
        [ (0.0, 999.0); (100.0, 199.0); (250.0, 749.0); (900.0, 999.0) ])
    [
      ("equi_width", VH.equi_width data ~buckets:50);
      ("equi_depth", VH.equi_depth data ~buckets:50);
      ("v_optimal", VH.v_optimal data ~buckets:50 ~domain_bins:200);
    ]

let test_skewed_data_vopt_beats_equiwidth () =
  (* Zipf-like skew: most mass at small values.  V-optimal and equi-depth
     adapt; equi-width wastes buckets on the empty tail. *)
  let rng = Rng.create ~seed:3 in
  let data = Array.init 20_000 (fun _ -> Float.of_int (Rng.zipf rng ~n:1000 ~skew:1.2)) in
  let queries = List.init 20 (fun i -> (Float.of_int (i + 1), Float.of_int (i + 2))) in
  let total_err h =
    List.fold_left
      (fun acc (lo, hi) ->
        acc +. Float.abs (VH.selectivity_range h ~lo ~hi -. true_selectivity data lo hi))
      0.0 queries
  in
  let ew = total_err (VH.equi_width data ~buckets:20) in
  let ed = total_err (VH.equi_depth data ~buckets:20) in
  let vo = total_err (VH.v_optimal data ~buckets:20 ~domain_bins:500) in
  Alcotest.(check bool)
    (Printf.sprintf "equi-depth (%.3f) beats equi-width (%.3f) on skew" ed ew)
    true (ed < ew);
  Alcotest.(check bool)
    (Printf.sprintf "v-optimal (%.3f) beats equi-width (%.3f) on skew" vo ew)
    true (vo < ew)

let test_eq_selectivity () =
  (* 10 distinct values, each appearing 100 times: the uniform-spread
     assumption holds exactly, so every equality predicate is ~0.1 *)
  let data = Array.init 1000 (fun i -> Float.of_int (i mod 10)) in
  let h = VH.v_optimal data ~buckets:5 ~domain_bins:10 in
  let est = VH.selectivity_eq h 7.0 in
  Alcotest.(check bool)
    (Printf.sprintf "point selectivity %.3f near 0.1" est)
    true
    (Float.abs (est -. 0.1) < 0.02)

let test_estimate_count () =
  let data = Array.init 1000 Float.of_int in
  let h = VH.equi_depth data ~buckets:10 in
  let c = VH.estimate_count h ~lo:0.0 ~hi:999.0 in
  Helpers.check_close ~eps:1e-6 "full count" 1000.0 c

let test_out_of_domain_queries () =
  let h = VH.equi_width [| 10.0; 20.0; 30.0 |] ~buckets:2 in
  Helpers.check_close "below domain" 0.0 (VH.selectivity_range h ~lo:(-10.0) ~hi:5.0);
  Helpers.check_close "above domain" 0.0 (VH.selectivity_range h ~lo:50.0 ~hi:60.0);
  Helpers.check_close "inverted" 0.0 (VH.selectivity_range h ~lo:25.0 ~hi:15.0);
  Helpers.check_close "superset clamps to 1" 1.0 (VH.selectivity_range h ~lo:(-100.0) ~hi:100.0)

(* --------------------------------------------------- wavelet histograms *)

module WH = Sh_selectivity.Wavelet_histogram

let test_wavelet_histogram_uniform () =
  let data = uniform_data ~seed:9 ~n:20_000 ~hi:1000 in
  let h = WH.build data ~coeffs:40 ~domain_bins:256 in
  Alcotest.(check bool) "budget respected" true (WH.stored_coefficients h <= 40);
  Helpers.check_close ~eps:1e-9 "total" 20_000.0 (WH.total h);
  List.iter
    (fun (lo, hi) ->
      let est = WH.selectivity_range h ~lo ~hi in
      let tru = true_selectivity data lo hi in
      Alcotest.(check bool)
        (Printf.sprintf "[%g,%g] est %.4f vs true %.4f" lo hi est tru)
        true
        (Float.abs (est -. tru) < 0.03))
    [ (0.0, 999.0); (100.0, 199.0); (250.0, 749.0) ]

let test_wavelet_histogram_exact_with_full_budget () =
  (* enough coefficients: the frequency vector reconstructs exactly, so
     bin-aligned predicates are answered exactly *)
  let data = Array.init 400 (fun i -> Float.of_int (i mod 8)) in
  let h = WH.build data ~coeffs:8 ~domain_bins:8 in
  Helpers.check_close ~eps:1e-6 "half the domain" 0.5
    (WH.selectivity_range h ~lo:0.0 ~hi:3.5);
  Helpers.check_close ~eps:1e-6 "count scaling" 400.0 (WH.estimate_count h ~lo:(-1.0) ~hi:8.0)

let test_wavelet_histogram_bounds () =
  let data = uniform_data ~seed:10 ~n:500 ~hi:100 in
  let h = WH.build data ~coeffs:8 ~domain_bins:32 in
  Helpers.check_close "below domain" 0.0 (WH.selectivity_range h ~lo:(-50.0) ~hi:(-10.0));
  Helpers.check_close "inverted" 0.0 (WH.selectivity_range h ~lo:60.0 ~hi:40.0);
  let s = WH.selectivity_range h ~lo:(-1e9) ~hi:1e9 in
  Alcotest.(check bool) "clamped" true (s >= 0.0 && s <= 1.0);
  Alcotest.check_raises "empty" (Invalid_argument "Wavelet_histogram.build: empty data")
    (fun () -> ignore (WH.build [||] ~coeffs:4 ~domain_bins:4))

(* --------------------------------------------------------- gk streaming *)

let test_equi_depth_of_gk_matches_offline () =
  let data = uniform_data ~seed:7 ~n:50_000 ~hi:10_000 in
  let g = Gk.create ~epsilon:0.005 in
  Array.iter (Gk.insert g) data;
  let streaming = VH.equi_depth_of_gk g ~buckets:20 in
  let offline = VH.equi_depth data ~buckets:20 in
  List.iter
    (fun (lo, hi) ->
      let s = VH.selectivity_range streaming ~lo ~hi in
      let o = VH.selectivity_range offline ~lo ~hi in
      Alcotest.(check bool)
        (Printf.sprintf "[%g,%g] streaming %.4f vs offline %.4f" lo hi s o)
        true
        (Float.abs (s -. o) < 0.03))
    [ (0.0, 4999.0); (1000.0, 2000.0); (9000.0, 9999.0) ]

let test_gk_empty_rejected () =
  let g = Gk.create ~epsilon:0.1 in
  Alcotest.check_raises "empty summary"
    (Invalid_argument "Value_histogram.equi_depth_of_gk: empty summary") (fun () ->
      ignore (VH.equi_depth_of_gk g ~buckets:4))

(* ------------------------------------------------------------ properties *)

let prop_selectivity_additive =
  Helpers.qcheck_case ~count:50 ~name:"adjacent ranges sum to their union"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:10 ~max_len:200 ~vmax:100 () in
      let* mid = int_range 10 90 in
      return (data, Float.of_int mid))
    (fun (data, mid) ->
      let h = VH.equi_depth data ~buckets:8 in
      let a = VH.selectivity_range h ~lo:(-1.0) ~hi:mid in
      let b = VH.selectivity_range h ~lo:(mid +. 1e-9) ~hi:200.0 in
      let both = VH.selectivity_range h ~lo:(-1.0) ~hi:200.0 in
      Float.abs (a +. b -. both) < 1e-6)

let prop_selectivity_bounded =
  Helpers.qcheck_case ~count:50 ~name:"selectivity stays in [0,1]"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:1 ~max_len:200 ~vmax:1000 () in
      let* lo = float_range (-100.0) 1100.0 in
      let* span = float_range 0.0 500.0 in
      return (data, lo, span))
    (fun (data, lo, span) ->
      List.for_all
        (fun h ->
          let s = VH.selectivity_range h ~lo ~hi:(lo +. span) in
          s >= 0.0 && s <= 1.0)
        [
          VH.equi_width data ~buckets:7;
          VH.equi_depth data ~buckets:7;
          VH.v_optimal data ~buckets:7 ~domain_bins:50;
        ])

let () =
  Alcotest.run "sh_selectivity"
    [
      ( "building",
        [
          Alcotest.test_case "equi-width structure" `Quick test_equi_width_structure;
          Alcotest.test_case "equi-depth counts" `Quick test_equi_depth_counts;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "constant data" `Quick test_constant_data;
        ] );
      ( "estimation",
        [
          Alcotest.test_case "uniform ranges" `Quick test_range_selectivity_uniform;
          Alcotest.test_case "skewed data" `Quick test_skewed_data_vopt_beats_equiwidth;
          Alcotest.test_case "equality predicate" `Quick test_eq_selectivity;
          Alcotest.test_case "count scaling" `Quick test_estimate_count;
          Alcotest.test_case "out-of-domain" `Quick test_out_of_domain_queries;
          prop_selectivity_additive;
          prop_selectivity_bounded;
        ] );
      ( "wavelet_histogram",
        [
          Alcotest.test_case "uniform accuracy" `Quick test_wavelet_histogram_uniform;
          Alcotest.test_case "full budget exact" `Quick test_wavelet_histogram_exact_with_full_budget;
          Alcotest.test_case "bounds" `Quick test_wavelet_histogram_bounds;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "gk equi-depth" `Quick test_equi_depth_of_gk_matches_offline;
          Alcotest.test_case "gk empty" `Quick test_gk_empty_rejected;
        ] );
    ]
