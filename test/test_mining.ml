module HH = Sh_mining.Heavy_hitters
module Rng = Sh_util.Rng

(* ---------------------------------------------------------- heavy hitters *)

let test_hh_exact_when_small () =
  let h = HH.create ~capacity:10 in
  List.iter (fun v -> HH.add h v) [ 1.0; 2.0; 1.0; 3.0; 1.0; 2.0 ];
  Alcotest.(check int) "count of 1" 3 (HH.estimate h 1.0);
  Alcotest.(check int) "count of 2" 2 (HH.estimate h 2.0);
  Alcotest.(check int) "total" 6 (HH.total h)

let test_hh_guarantee () =
  (* value 7 occurs 30% of the time among uniform noise; a capacity-9
     summary must retain it with estimate within n/10 of truth *)
  let h = HH.create ~capacity:9 in
  let rng = Rng.create ~seed:12 in
  let n = 10_000 in
  let true_sevens = ref 0 in
  for _ = 1 to n do
    if Rng.float rng 1.0 < 0.3 then begin
      incr true_sevens;
      HH.add h 7.0
    end
    else HH.add h (Float.of_int (100 + Rng.int rng 1000))
  done;
  let est = HH.estimate h 7.0 in
  Alcotest.(check bool) "estimate never exceeds truth" true (est <= !true_sevens);
  Alcotest.(check bool)
    (Printf.sprintf "estimate %d within n/(k+1) of truth %d" est !true_sevens)
    true
    (!true_sevens - est <= n / 10);
  (* and it must appear in the heavy hitters at threshold 0.15 *)
  Alcotest.(check bool) "reported as heavy" true
    (List.mem_assoc 7.0 (HH.heavy_hitters h ~threshold:0.15))

let test_hh_batched_counts () =
  let h = HH.create ~capacity:4 in
  HH.add ~count:100 h 1.0;
  HH.add ~count:50 h 2.0;
  Alcotest.(check int) "batched count" 100 (HH.estimate h 1.0);
  Alcotest.(check int) "total" 150 (HH.total h)

let test_hh_tracked_sorted () =
  let h = HH.create ~capacity:8 in
  List.iter (fun v -> HH.add h v) [ 5.0; 5.0; 5.0; 2.0; 2.0; 9.0 ];
  match HH.tracked h with
  | (v1, c1) :: (v2, c2) :: _ ->
    Alcotest.(check (pair (float 0.0) int)) "most frequent first" (5.0, 3) (v1, c1);
    Alcotest.(check (pair (float 0.0) int)) "second" (2.0, 2) (v2, c2)
  | _ -> Alcotest.fail "expected at least two tracked values"

let test_hh_work_counters () =
  let h = HH.create ~capacity:2 in
  HH.add h 1.0;
  HH.add h 2.0;
  (* third distinct value with both slots taken: one Misra-Gries decrement
     round that evicts both zeroed counters *)
  HH.add h 3.0;
  let c = HH.work_counters h in
  Alcotest.(check int) "observations equal total" (HH.total h) c.HH.observations;
  Alcotest.(check int) "observations" 3 c.HH.observations;
  Alcotest.(check int) "adds" 3 c.HH.adds;
  Alcotest.(check int) "decrement rounds" 1 c.HH.decrement_rounds;
  Alcotest.(check int) "evictions" 2 c.HH.evictions;
  (* the summary owns its counts: a telemetry reset leaves them *)
  Sh_obs.Obs.reset ();
  Alcotest.(check bool) "counters survive Obs.reset" true (c = HH.work_counters h)

let prop_hh_underestimates =
  Helpers.qcheck_case ~count:50 ~name:"MG estimates never exceed true counts"
    QCheck2.Gen.(
      let* values = list_size (int_range 1 500) (int_range 0 20) in
      let* cap = int_range 1 8 in
      return (values, cap))
    (fun (values, cap) ->
      let h = HH.create ~capacity:cap in
      List.iter (fun v -> HH.add h (Float.of_int v)) values;
      let n = List.length values in
      List.for_all
        (fun v ->
          let truth = List.length (List.filter (( = ) v) values) in
          let est = HH.estimate h (Float.of_int v) in
          est <= truth && truth - est <= n / (cap + 1))
        (List.sort_uniq compare values))

let () =
  Alcotest.run "sh_mining"
    [
      ( "heavy_hitters",
        [
          Alcotest.test_case "exact small" `Quick test_hh_exact_when_small;
          Alcotest.test_case "guarantee" `Quick test_hh_guarantee;
          Alcotest.test_case "batched" `Quick test_hh_batched_counts;
          Alcotest.test_case "sorted" `Quick test_hh_tracked_sorted;
          Alcotest.test_case "work counters" `Quick test_hh_work_counters;
          prop_hh_underestimates;
        ] );
    ]
