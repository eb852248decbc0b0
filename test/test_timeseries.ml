module Seg = Sh_timeseries.Segments
module Paa = Sh_timeseries.Paa
module Apca = Sh_timeseries.Apca
module Sim = Sh_timeseries.Similarity
module W = Sh_gen.Workloads
module Rng = Sh_util.Rng

let gen_series ?(min_len = 2) ?(max_len = 64) () =
  QCheck2.Gen.(
    let* len = int_range min_len max_len in
    let* ints = array_size (return len) (int_range (-100) 100) in
    return (Array.map Float.of_int ints))

(* --------------------------------------------------------------- Segments *)

let test_segments_validation () =
  Alcotest.check_raises "wrong end" (Invalid_argument "Segments.make: last segment must end at n")
    (fun () -> ignore (Seg.make ~n:4 [| { Seg.hi = 3; value = 0.0 } |]));
  Alcotest.check_raises "not increasing"
    (Invalid_argument "Segments.make: endpoints must strictly increase") (fun () ->
      ignore (Seg.make ~n:2 [| { Seg.hi = 2; value = 0.0 }; { Seg.hi = 2; value = 0.0 } |]));
  Alcotest.check_raises "no segments" (Invalid_argument "Segments.make: at least one segment required")
    (fun () -> ignore (Seg.make ~n:4 [||]))

let test_segments_to_series () =
  let s = Seg.make ~n:5 [| { Seg.hi = 2; value = 1.0 }; { Seg.hi = 5; value = 9.0 } |] in
  Alcotest.(check (array (float 1e-9))) "series" [| 1.0; 1.0; 9.0; 9.0; 9.0 |] (Seg.to_series s);
  Alcotest.(check int) "count" 2 (Seg.segment_count s)

let test_segments_of_histogram () =
  let h = Sh_histogram.Vopt.build [| 1.0; 1.0; 7.0; 7.0 |] ~buckets:2 in
  let s = Seg.of_histogram h in
  Alcotest.(check (array (float 1e-9))) "series" [| 1.0; 1.0; 7.0; 7.0 |] (Seg.to_series s)

let test_euclidean_known () =
  Helpers.check_close "3-4-5" 5.0 (Seg.euclidean [| 0.0; 0.0 |] [| 3.0; 4.0 |])

(* The central correctness property of the whole similarity study: the
   lower-bounding distance never exceeds the true distance, for every
   synopsis construction in the repository. *)
let prop_lower_bound_sound =
  Helpers.qcheck_case ~count:60 ~name:"LB(Q, approx(C)) <= D(Q, C) for all synopses"
    QCheck2.Gen.(
      let* series = gen_series ~min_len:2 ~max_len:48 () in
      let* query_ints = array_size (return (Array.length series)) (int_range (-100) 100) in
      let* m = int_range 1 8 in
      return (series, Array.map Float.of_int query_ints, m))
    (fun (series, query, m) ->
      let d = Seg.euclidean query series in
      let check build =
        let s = build series in
        Seg.lower_bound_distance ~query s <= d +. 1e-6
      in
      check (fun c -> Paa.build c ~segments:m)
      && check (fun c -> Apca.build c ~segments:m)
      && check (fun c -> Apca.build_optimal c ~segments:m)
      && check (fun c -> Seg.of_histogram (Sh_histogram.Vopt.build c ~buckets:m)))

let prop_lower_bound_zero_on_self =
  Helpers.qcheck_case ~name:"LB of a series against its own synopsis is 0"
    QCheck2.Gen.(
      let* series = gen_series () in
      let* m = int_range 1 6 in
      return (series, m))
    (fun (series, m) ->
      let s = Apca.build series ~segments:m in
      Seg.lower_bound_distance ~query:series s <= 1e-9)

let test_sse_of_approximation () =
  let data = [| 1.0; 3.0; 10.0; 10.0 |] in
  let s = Seg.of_means data ~boundaries:[| 2; 4 |] in
  (* segment means 2 and 10: SSE = 1 + 1 + 0 + 0 *)
  Helpers.check_close "sse" 2.0 (Seg.sse_of_approximation data s)

(* -------------------------------------------------------------- PAA/APCA *)

let test_paa_equal_segments () =
  let s = Paa.build (Array.init 8 Float.of_int) ~segments:4 in
  Alcotest.(check int) "4 segments" 4 (Seg.segment_count s);
  Alcotest.(check (array (float 1e-9)))
    "pair means" [| 0.5; 0.5; 2.5; 2.5; 4.5; 4.5; 6.5; 6.5 |]
    (Seg.to_series s)

let prop_apca_budget =
  Helpers.qcheck_case ~name:"APCA respects the segment budget"
    QCheck2.Gen.(
      let* series = gen_series () in
      let* m = int_range 1 10 in
      return (series, m))
    (fun (series, m) ->
      Seg.segment_count (Apca.build series ~segments:m) <= m
      && Seg.segment_count (Apca.build_optimal series ~segments:m) <= m)

let prop_optimal_beats_heuristic =
  Helpers.qcheck_case ~count:60 ~name:"V-optimal segmentation SSE <= APCA heuristic SSE"
    QCheck2.Gen.(
      let* series = gen_series ~min_len:4 ~max_len:64 () in
      let* m = int_range 1 8 in
      return (series, m))
    (fun (series, m) ->
      let heur = Seg.sse_of_approximation series (Apca.build series ~segments:m) in
      let opt = Seg.sse_of_approximation series (Apca.build_optimal series ~segments:m) in
      opt <= heur +. 1e-6)

let test_apca_step_function_exact () =
  let data = Array.concat [ Array.make 8 1.0; Array.make 8 9.0 ] in
  let s = Apca.build data ~segments:2 in
  Helpers.check_close "step recovered exactly" 0.0 (Seg.sse_of_approximation data s)

(* ------------------------------------------------------------ Similarity *)

let family () =
  let rng = Rng.create ~seed:77 in
  W.series_family rng ~count:30 ~len:64 ~shapes:5 ~noise:3.0

let make_collections () =
  let series = family () in
  let apca = Sim.make_collection ~name:"apca" ~synopsis:(fun s -> Apca.build s ~segments:6) series in
  let hist =
    Sim.make_collection ~name:"hist"
      ~synopsis:(fun s -> Seg.of_histogram (Sh_histogram.Vopt.build s ~buckets:6))
      series
  in
  (series, apca, hist)

let brute_force_range series query radius =
  let hits = ref [] in
  Array.iteri (fun i s -> if Seg.euclidean query s <= radius then hits := i :: !hits) series;
  List.rev !hits

let test_range_search_no_false_dismissals () =
  let series, apca, hist = make_collections () in
  let query = series.(0) in
  List.iter
    (fun radius ->
      let expected = brute_force_range series query radius in
      let got_a, stats_a = Sim.range_search apca ~query ~radius in
      let got_h, stats_h = Sim.range_search hist ~query ~radius in
      Alcotest.(check (list int)) "apca exact results" expected (List.sort compare got_a);
      Alcotest.(check (list int)) "hist exact results" expected (List.sort compare got_h);
      Alcotest.(check int) "apca accounting" stats_a.Sim.candidates
        (stats_a.Sim.false_positives + stats_a.Sim.true_matches);
      Alcotest.(check int) "hist accounting" stats_h.Sim.candidates
        (stats_h.Sim.false_positives + stats_h.Sim.true_matches))
    [ 10.0; 50.0; 150.0; 1000.0 ]

let test_knn_matches_brute_force () =
  let series, apca, hist = make_collections () in
  let query = series.(7) in
  let brute =
    let ds = Array.mapi (fun i s -> (i, Seg.euclidean query s)) series in
    Array.sort (fun (_, a) (_, b) -> compare a b) ds;
    Array.sub ds 0 5
  in
  let check (results, _) =
    List.iteri
      (fun j (i, d) ->
        let bi, bd = brute.(j) in
        Helpers.check_close "distance" bd d;
        Alcotest.(check int) "index" bi i)
      results
  in
  check (Sim.knn_search apca ~query ~k:5);
  check (Sim.knn_search hist ~query ~k:5)

let test_knn_self_is_nearest () =
  let series, apca, _ = make_collections () in
  let results, _ = Sim.knn_search apca ~query:series.(3) ~k:1 in
  match results with
  | [ (i, d) ] ->
    Alcotest.(check int) "self" 3 i;
    Helpers.check_close "zero distance" 0.0 d
  | _ -> Alcotest.fail "expected exactly one result"

let test_pruning_power_positive () =
  (* With tight radii most of the collection must be pruned by synopses. *)
  let series, apca, hist = make_collections () in
  let query = series.(0) in
  let _, sa = Sim.range_search apca ~query ~radius:10.0 in
  let _, sh = Sim.range_search hist ~query ~radius:10.0 in
  Alcotest.(check bool) "apca prunes" true (sa.Sim.pruning_power > 0.5);
  Alcotest.(check bool) "hist prunes" true (sh.Sim.pruning_power > 0.5)

let test_sliding_windows () =
  let data = Array.init 10 Float.of_int in
  let ws = Sim.sliding_windows data ~w:4 ~step:3 in
  Alcotest.(check int) "count" 3 (Array.length ws);
  let start, first = ws.(0) in
  Alcotest.(check int) "first start" 0 start;
  Alcotest.(check (array (float 1e-9))) "first window" [| 0.0; 1.0; 2.0; 3.0 |] first;
  let start2, _ = ws.(2) in
  Alcotest.(check int) "last start" 6 start2

let test_subsequence_collection () =
  let rng = Rng.create ~seed:5 in
  let data = Sh_gen.Source.take (W.random_walk rng ()) 200 in
  let coll, starts =
    Sim.subsequence_collection ~name:"sub" ~synopsis:(fun s -> Paa.build s ~segments:4) ~data
      ~w:32 ~step:8
  in
  Alcotest.(check int) "one synopsis per window" (Array.length starts)
    (Array.length coll.Sim.series);
  (* A query equal to an actual window must be found at distance 0. *)
  let query = Array.sub data 64 32 in
  let hits, _ = Sim.range_search coll ~query ~radius:1e-9 in
  Alcotest.(check bool) "window found" true
    (List.exists (fun i -> starts.(i) = 64) hits)

let test_knn_validation () =
  let _, apca, _ = make_collections () in
  Alcotest.check_raises "bad k" (Invalid_argument "Similarity.knn_search: k must be >= 1")
    (fun () -> ignore (Sim.knn_search apca ~query:(Array.make 64 0.0) ~k:0))

let () =
  Alcotest.run "sh_timeseries"
    [
      ( "segments",
        [
          Alcotest.test_case "validation" `Quick test_segments_validation;
          Alcotest.test_case "to_series" `Quick test_segments_to_series;
          Alcotest.test_case "of_histogram" `Quick test_segments_of_histogram;
          Alcotest.test_case "euclidean" `Quick test_euclidean_known;
          Alcotest.test_case "sse" `Quick test_sse_of_approximation;
          prop_lower_bound_sound;
          prop_lower_bound_zero_on_self;
        ] );
      ( "paa_apca",
        [
          Alcotest.test_case "paa segments" `Quick test_paa_equal_segments;
          Alcotest.test_case "apca step exact" `Quick test_apca_step_function_exact;
          prop_apca_budget;
          prop_optimal_beats_heuristic;
        ] );
      ( "similarity",
        [
          Alcotest.test_case "range no false dismissals" `Quick test_range_search_no_false_dismissals;
          Alcotest.test_case "knn matches brute force" `Quick test_knn_matches_brute_force;
          Alcotest.test_case "knn self" `Quick test_knn_self_is_nearest;
          Alcotest.test_case "pruning power" `Quick test_pruning_power_positive;
          Alcotest.test_case "sliding windows" `Quick test_sliding_windows;
          Alcotest.test_case "subsequence collection" `Quick test_subsequence_collection;
          Alcotest.test_case "knn validation" `Quick test_knn_validation;
        ] );
    ]
