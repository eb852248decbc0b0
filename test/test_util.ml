module Rng = Sh_util.Rng
module Stats = Sh_util.Stats
module Metrics = Sh_util.Metrics
module Heap = Sh_util.Heap
module Vec = Sh_util.Vec

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy tracks original" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr equal
  done;
  Alcotest.(check bool) "split streams differ" true (!equal < 4)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_covers () =
  let r = Rng.create ~seed:4 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int r 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create ~seed:6 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r ~mean:3.0 ~stddev:2.0) in
  Alcotest.(check bool) "mean close" true (Float.abs (Stats.mean xs -. 3.0) < 0.1);
  Alcotest.(check bool) "stddev close" true (Float.abs (Stats.stddev xs -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:8 in
  let xs = Array.init 20000 (fun _ -> Rng.exponential r ~rate:0.5) in
  Alcotest.(check bool) "mean close to 1/rate" true (Float.abs (Stats.mean xs -. 2.0) < 0.1);
  Alcotest.(check bool) "non-negative" true (Array.for_all (fun x -> x >= 0.0) xs)

let test_rng_pareto_scale () =
  let r = Rng.create ~seed:9 in
  let xs = Array.init 1000 (fun _ -> Rng.pareto r ~shape:2.0 ~scale:5.0) in
  Alcotest.(check bool) "at least scale" true (Array.for_all (fun x -> x >= 5.0) xs)

let test_rng_zipf_bounds () =
  let r = Rng.create ~seed:10 in
  for _ = 1 to 1000 do
    let v = Rng.zipf r ~n:50 ~skew:1.2 in
    Alcotest.(check bool) "rank in [1,n]" true (v >= 1 && v <= 50)
  done

let test_rng_zipf_skew () =
  let r = Rng.create ~seed:11 in
  let counts = Array.make 51 0 in
  for _ = 1 to 20000 do
    let v = Rng.zipf r ~n:50 ~skew:1.5 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 1 dominates rank 10" true (counts.(1) > 3 * counts.(10));
  Alcotest.(check bool) "rank 1 most frequent" true
    (Array.for_all (fun c -> c <= counts.(1)) (Array.sub counts 2 49))

let test_rng_zipf_n1 () =
  let r = Rng.create ~seed:12 in
  Alcotest.(check int) "n=1 gives 1" 1 (Rng.zipf r ~n:1 ~skew:1.0)

(* ---------------------------------------------------------------- Stats *)

let test_stats_sum_empty () = Helpers.check_close "empty sum" 0.0 (Stats.sum [||])

let test_stats_sum_kahan () =
  (* 1e16 + 1 repeated: naive summation loses the ones. *)
  let xs = Array.init 11 (fun i -> if i = 0 then 1e16 else 1.0) in
  Helpers.check_close "compensated" (1e16 +. 10.0) (Stats.sum xs)

let test_stats_mean_var () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Helpers.check_close "mean" 5.0 (Stats.mean xs);
  Helpers.check_close "variance" 4.0 (Stats.variance xs);
  Helpers.check_close "stddev" 2.0 (Stats.stddev xs)

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0; 2.0 |] in
  Helpers.check_close "min" (-1.0) lo;
  Helpers.check_close "max" 7.0 hi

let test_stats_quantile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Helpers.check_close "median" 3.0 (Stats.median xs);
  Helpers.check_close "q0" 1.0 (Stats.quantile xs 0.0);
  Helpers.check_close "q1" 5.0 (Stats.quantile xs 1.0);
  Helpers.check_close "q interpolated" 1.5 (Stats.quantile xs 0.125)

let test_stats_histogram_counts () =
  let xs = [| 0.0; 0.5; 1.0; 2.5; 10.0; -5.0 |] in
  let counts = Stats.histogram_counts xs ~bins:4 ~lo:0.0 ~hi:4.0 in
  Alcotest.(check (array int)) "counts with clamping" [| 3; 1; 1; 1 |] counts

let quantile_matches_sorted =
  Helpers.qcheck_case ~name:"quantile 0/1 are min/max"
    (Helpers.gen_data ())
    (fun data ->
      let lo, hi = Stats.min_max data in
      Helpers.close (Stats.quantile data 0.0) lo && Helpers.close (Stats.quantile data 1.0) hi)

(* -------------------------------------------------------------- Metrics *)

let test_metrics_exact () =
  let s = Metrics.summarize ~estimates:[| 1.0; 2.0 |] ~truths:[| 1.0; 2.0 |] in
  Helpers.check_close "mae" 0.0 s.Metrics.mae;
  Helpers.check_close "rmse" 0.0 s.Metrics.rmse;
  Helpers.check_close "max" 0.0 s.Metrics.max_abs

let test_metrics_known () =
  let s = Metrics.summarize ~estimates:[| 3.0; 0.0 |] ~truths:[| 1.0; 4.0 |] in
  Helpers.check_close "mae" 3.0 s.Metrics.mae;
  Helpers.check_close "rmse" (sqrt (((2.0 *. 2.0) +. (4.0 *. 4.0)) /. 2.0)) s.Metrics.rmse;
  Helpers.check_close "max" 4.0 s.Metrics.max_abs;
  Helpers.check_close "rel" ((2.0 +. 1.0) /. 2.0) s.Metrics.mean_rel

let test_metrics_sse () =
  Helpers.check_close "sse" 5.0 (Metrics.sse [| 1.0; 2.0 |] [| 2.0; 4.0 |])

let test_metrics_validation () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Metrics.sse: arrays must be equal-length")
    (fun () -> ignore (Metrics.sse [| 1.0 |] [| 1.0; 2.0 |]))

(* ----------------------------------------------------------------- Heap *)

let heap_sorts =
  Helpers.qcheck_case ~name:"heap pops in sorted order"
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.of_list ~cmp:compare xs in
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare xs)

let test_heap_basics () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Heap.add h 5;
  Heap.add h 1;
  Heap.add h 3;
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check int) "pop order" 1 (Heap.pop_exn h);
  Alcotest.(check int) "pop order" 3 (Heap.pop_exn h);
  Alcotest.(check int) "pop order" 5 (Heap.pop_exn h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

(* ------------------------------------------------------------------ Vec *)

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check int) "last" 99 (Vec.last v);
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  Alcotest.(check int) "iter" 4950 !sum;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 100));
  Alcotest.check_raises "last empty" (Invalid_argument "Vec.last: empty") (fun () ->
      ignore (Vec.last (Vec.create ())))

(* Named for the [to_array] it once read; [get] and [iter] now. *)
let vec_matches_list =
  Helpers.qcheck_case ~name:"vec to_array equals pushed list"
    QCheck2.Gen.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      let got = List.init (Vec.length v) (Vec.get v) in
      let iterated = ref [] in
      Vec.iter (fun x -> iterated := x :: !iterated) v;
      got = xs && List.rev !iterated = xs)

let () =
  Alcotest.run "sh_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers" `Quick test_rng_int_covers;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pareto scale" `Quick test_rng_pareto_scale;
          Alcotest.test_case "zipf bounds" `Quick test_rng_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "zipf n=1" `Quick test_rng_zipf_n1;
        ] );
      ( "stats",
        [
          Alcotest.test_case "sum empty" `Quick test_stats_sum_empty;
          Alcotest.test_case "kahan sum" `Quick test_stats_sum_kahan;
          Alcotest.test_case "mean/var" `Quick test_stats_mean_var;
          Alcotest.test_case "min/max" `Quick test_stats_min_max;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "histogram counts" `Quick test_stats_histogram_counts;
          quantile_matches_sorted;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "exact" `Quick test_metrics_exact;
          Alcotest.test_case "known errors" `Quick test_metrics_known;
          Alcotest.test_case "sse" `Quick test_metrics_sse;
          Alcotest.test_case "validation" `Quick test_metrics_validation;
        ] );
      ("heap", [ Alcotest.test_case "basics" `Quick test_heap_basics; heap_sorts ]);
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          vec_matches_list;
        ] );
    ]
