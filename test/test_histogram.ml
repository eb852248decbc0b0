module P = Sh_prefix.Prefix_sums
module H = Sh_histogram.Histogram
module V = Sh_histogram.Vopt
module Heur = Sh_histogram.Heuristics

(* ------------------------------------------------------------ Histogram *)

let test_make_validation () =
  let bucket lo hi value = { H.lo; hi; value } in
  Alcotest.check_raises "gap" (Invalid_argument "Histogram.make: buckets must be contiguous")
    (fun () -> ignore (H.make ~n:4 [| bucket 1 2 0.0; bucket 4 4 0.0 |]));
  Alcotest.check_raises "wrong start" (Invalid_argument "Histogram.make: first bucket must start at 1")
    (fun () -> ignore (H.make ~n:4 [| bucket 2 4 0.0 |]));
  Alcotest.check_raises "wrong end" (Invalid_argument "Histogram.make: last bucket must end at n")
    (fun () -> ignore (H.make ~n:4 [| bucket 1 3 0.0 |]));
  Alcotest.check_raises "no buckets" (Invalid_argument "Histogram.make: at least one bucket required")
    (fun () -> ignore (H.make ~n:4 [||]))

let test_of_boundaries () =
  let p = P.make [| 1.0; 3.0; 10.0; 20.0 |] in
  let h = H.of_boundaries p ~boundaries:[| 2; 4 |] in
  Alcotest.(check int) "buckets" 2 (H.bucket_count h);
  Helpers.check_close "first mean" 2.0 (H.point_estimate h 1);
  Helpers.check_close "second mean" 15.0 (H.point_estimate h 3)

let test_point_and_find () =
  let p = P.make (Array.init 10 Float.of_int) in
  let h = H.of_boundaries p ~boundaries:[| 3; 7; 10 |] in
  let b = H.find_bucket h 4 in
  Alcotest.(check int) "bucket lo" 4 b.H.lo;
  Alcotest.(check int) "bucket hi" 7 b.H.hi;
  Alcotest.check_raises "oob" (Invalid_argument "Histogram.find_bucket: index out of range")
    (fun () -> ignore (H.find_bucket h 11))

let test_range_sum_overlap () =
  (* buckets [1..2]=1.5 [3..4]=3.5; query [2..3] = 1.5 + 3.5 *)
  let p = P.make [| 1.0; 2.0; 3.0; 4.0 |] in
  let h = H.of_boundaries p ~boundaries:[| 2; 4 |] in
  Helpers.check_close "overlap" 5.0 (H.range_sum_estimate h ~lo:2 ~hi:3);
  Helpers.check_close "full" 10.0 (H.range_sum_estimate h ~lo:1 ~hi:4);
  Helpers.check_close "empty" 0.0 (H.range_sum_estimate h ~lo:3 ~hi:2);
  Helpers.check_close "avg" 2.5 (H.range_avg_estimate h ~lo:2 ~hi:3)

let test_to_series () =
  let p = P.make [| 1.0; 3.0; 5.0; 5.0 |] in
  let h = H.of_boundaries p ~boundaries:[| 2; 4 |] in
  Alcotest.(check (array (float 1e-9))) "series" [| 2.0; 2.0; 5.0; 5.0 |] (H.to_series h)

let prop_range_sum_matches_series =
  Helpers.qcheck_case ~name:"range_sum_estimate equals sum of to_series" (Helpers.gen_data ())
    (fun data ->
      let n = Array.length data in
      let p = P.make data in
      let b = max 1 (n / 3) in
      let h = V.build_prefix p ~buckets:b in
      let series = H.to_series h in
      let ok = ref true in
      for lo = 1 to n do
        for hi = lo to n do
          let direct = H.range_sum_estimate h ~lo ~hi in
          let via_series = Helpers.naive_range_sum series lo hi in
          if not (Helpers.close ~eps:1e-6 direct via_series) then ok := false
        done
      done;
      !ok)

let prop_sse_against_matches_naive =
  Helpers.qcheck_case ~name:"sse_against equals SSE of to_series" (Helpers.gen_data ())
    (fun data ->
      let p = P.make data in
      let h = V.build_prefix p ~buckets:3 in
      Helpers.close ~eps:1e-6 (H.sse_against h p) (Sh_util.Metrics.sse (H.to_series h) data))

(* ----------------------------------------------------------------- Vopt *)

let test_vopt_known () =
  (* 0,0,10,10 with 2 buckets: split at 2, zero error. *)
  let h = V.build [| 0.0; 0.0; 10.0; 10.0 |] ~buckets:2 in
  Alcotest.(check int) "buckets" 2 (H.bucket_count h);
  Helpers.check_close "zero error" 0.0 (H.sse_against h (P.make [| 0.0; 0.0; 10.0; 10.0 |]));
  let b = H.find_bucket h 1 in
  Alcotest.(check int) "boundary" 2 b.H.hi

let test_vopt_single_bucket () =
  let data = [| 1.0; 2.0; 3.0 |] in
  let p = P.make data in
  Helpers.check_close "B=1 error is SQERROR(1,n)" (P.sqerror p ~lo:1 ~hi:3)
    (V.optimal_error p ~buckets:1)

let test_vopt_enough_buckets_zero () =
  let data = [| 5.0; 1.0; 9.0; 2.0 |] in
  let p = P.make data in
  Helpers.check_close "B>=n zero" 0.0 (V.optimal_error p ~buckets:4);
  Helpers.check_close "B>n zero" 0.0 (V.optimal_error p ~buckets:10);
  let h = V.build_prefix p ~buckets:10 in
  Alcotest.(check int) "capped buckets" 4 (H.bucket_count h)

let prop_vopt_matches_brute_force =
  Helpers.qcheck_case ~count:60 ~name:"DP equals exhaustive enumeration"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:1 ~max_len:10 ~vmax:20 () in
      let* b = int_range 1 4 in
      return (data, b))
    (fun (data, b) ->
      let p = P.make data in
      let dp = V.optimal_error p ~buckets:b in
      let brute = Helpers.brute_force_optimal_error data b in
      Helpers.close ~eps:1e-6 dp brute)

let prop_vopt_build_achieves_error =
  Helpers.qcheck_case ~name:"built histogram SSE equals optimal_error"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:1 ~max_len:40 () in
      let* b = int_range 1 6 in
      return (data, b))
    (fun (data, b) ->
      let p = P.make data in
      let h = V.build_prefix p ~buckets:b in
      Helpers.close ~eps:1e-6 (H.sse_against h p) (V.optimal_error p ~buckets:b))

(* The paper's second monotonicity lemma: HERROR[i, k] is non-decreasing
   in i for fixed k. *)
let prop_herror_monotone =
  Helpers.qcheck_case ~name:"HERROR[i,k] non-decreasing in i"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:2 ~max_len:40 () in
      let* b = int_range 1 5 in
      return (data, b))
    (fun (data, b) ->
      let row = V.herror_row (P.make data) ~buckets:b in
      let ok = ref true in
      for i = 1 to Array.length row - 2 do
        if row.(i) > row.(i + 1) +. 1e-6 then ok := false
      done;
      !ok)

let prop_more_buckets_never_worse =
  Helpers.qcheck_case ~name:"optimal error decreases with more buckets"
    (Helpers.gen_data ~min_len:2 ~max_len:40 ())
    (fun data ->
      let p = P.make data in
      let ok = ref true in
      let prev = ref infinity in
      for b = 1 to 6 do
        let e = V.optimal_error p ~buckets:b in
        if e > !prev +. 1e-6 then ok := false;
        prev := e
      done;
      !ok)

(* ----------------------------------------------------------- Heuristics *)

let prop_heuristics_valid_and_dominated =
  Helpers.qcheck_case ~name:"heuristics are valid and never beat the optimum"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:1 ~max_len:40 () in
      let* b = int_range 1 6 in
      return (data, b))
    (fun (data, b) ->
      let p = P.make data in
      let opt = V.optimal_error p ~buckets:b in
      let check h =
        H.bucket_count h <= b && H.sse_against h p >= opt -. 1e-6
      in
      check (Heur.equi_width p ~buckets:b)
      && check (Heur.max_diff p ~values:data ~buckets:b)
      && check (Heur.greedy_merge p ~buckets:b))

let test_equi_width_exact_counts () =
  let p = P.make (Array.init 10 Float.of_int) in
  let h = Heur.equi_width p ~buckets:5 in
  Alcotest.(check int) "buckets" 5 (H.bucket_count h);
  Array.iter (fun b -> Alcotest.(check int) "width 2" 2 (b.H.hi - b.H.lo + 1))
    (H.buckets h)

let test_max_diff_places_boundary_at_jump () =
  let data = [| 1.0; 1.0; 1.0; 50.0; 50.0; 50.0 |] in
  let h = Heur.max_diff (P.make data) ~values:data ~buckets:2 in
  let b = H.find_bucket h 1 in
  Alcotest.(check int) "cut at the jump" 3 b.H.hi;
  Helpers.check_close "zero error" 0.0 (H.sse_against h (P.make data))

let test_greedy_merge_step_data () =
  let data = [| 2.0; 2.0; 2.0; 9.0; 9.0; 9.0; 4.0; 4.0 |] in
  let p = P.make data in
  let h = Heur.greedy_merge p ~buckets:3 in
  Alcotest.(check int) "buckets" 3 (H.bucket_count h);
  Helpers.check_close "perfect on step data" 0.0 (H.sse_against h p)

let () =
  Alcotest.run "sh_histogram"
    [
      ( "histogram",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "of_boundaries" `Quick test_of_boundaries;
          Alcotest.test_case "find bucket" `Quick test_point_and_find;
          Alcotest.test_case "range sum overlap" `Quick test_range_sum_overlap;
          Alcotest.test_case "to_series" `Quick test_to_series;
          prop_range_sum_matches_series;
          prop_sse_against_matches_naive;
        ] );
      ( "vopt",
        [
          Alcotest.test_case "known split" `Quick test_vopt_known;
          Alcotest.test_case "single bucket" `Quick test_vopt_single_bucket;
          Alcotest.test_case "enough buckets" `Quick test_vopt_enough_buckets_zero;
          prop_vopt_matches_brute_force;
          prop_vopt_build_achieves_error;
          prop_herror_monotone;
          prop_more_buckets_never_worse;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "equi-width counts" `Quick test_equi_width_exact_counts;
          Alcotest.test_case "max-diff boundary" `Quick test_max_diff_places_boundary_at_jump;
          Alcotest.test_case "greedy merge step" `Quick test_greedy_merge_step_data;
          prop_heuristics_valid_and_dominated;
        ] );
    ]
