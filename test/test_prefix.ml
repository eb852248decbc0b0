module P = Sh_prefix.Prefix_sums
module SP = Sh_prefix.Sliding_prefix

(* ---------------------------------------------------------- Prefix_sums *)

let test_basic () =
  let p = P.make [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "length" 4 (P.length p);
  Helpers.check_close "full sum" 10.0 (P.range_sum p ~lo:1 ~hi:4);
  Helpers.check_close "sub sum" 5.0 (P.range_sum p ~lo:2 ~hi:3);
  Helpers.check_close "single" 3.0 (P.range_sum p ~lo:3 ~hi:3);
  Helpers.check_close "empty" 0.0 (P.range_sum p ~lo:3 ~hi:2);
  Helpers.check_close "sqsum" 13.0 (P.range_sqsum p ~lo:2 ~hi:3);
  Helpers.check_close "mean" 2.5 (P.range_mean p ~lo:1 ~hi:4)

let test_bounds_checked () =
  let p = P.make [| 1.0; 2.0 |] in
  Alcotest.check_raises "lo too small" (Invalid_argument "Prefix_sums: range out of bounds")
    (fun () -> ignore (P.range_sum p ~lo:0 ~hi:1));
  Alcotest.check_raises "hi too big" (Invalid_argument "Prefix_sums: range out of bounds")
    (fun () -> ignore (P.range_sum p ~lo:1 ~hi:3))

let test_of_sub () =
  let data = [| 9.0; 1.0; 2.0; 3.0; 9.0 |] in
  let p = P.of_sub data ~pos:1 ~len:3 in
  Alcotest.(check int) "length" 3 (P.length p);
  Helpers.check_close "sum" 6.0 (P.range_sum p ~lo:1 ~hi:3)

let test_sqerror_constant_zero () =
  let p = P.make [| 5.0; 5.0; 5.0 |] in
  Helpers.check_close "constant data has zero sqerror" 0.0 (P.sqerror p ~lo:1 ~hi:3)

let test_sqerror_known () =
  (* values 1,3: mean 2, SSE = 1 + 1 = 2 *)
  let p = P.make [| 1.0; 3.0 |] in
  Helpers.check_close "sse" 2.0 (P.sqerror p ~lo:1 ~hi:2)

let prop_sums_match_naive =
  Helpers.qcheck_case ~name:"range_sum matches naive" (Helpers.gen_data ()) (fun data ->
      let p = P.make data in
      let n = Array.length data in
      let ok = ref true in
      for lo = 1 to n do
        for hi = lo to n do
          if not (Helpers.close (P.range_sum p ~lo ~hi) (Helpers.naive_range_sum data lo hi))
          then ok := false
        done
      done;
      !ok)

let prop_sqerror_matches_naive =
  Helpers.qcheck_case ~name:"sqerror matches naive SSE-about-mean" (Helpers.gen_data ())
    (fun data ->
      let p = P.make data in
      let n = Array.length data in
      let ok = ref true in
      for lo = 1 to n do
        for hi = lo to n do
          if not (Helpers.close ~eps:1e-6 (P.sqerror p ~lo ~hi) (Helpers.naive_sqerror data lo hi))
          then ok := false
        done
      done;
      !ok)

(* The paper's first monotonicity lemma: for fixed j, SQERROR[i+1, j] is
   non-increasing as i increases. *)
let prop_sqerror_monotone =
  Helpers.qcheck_case ~name:"SQERROR[i+1,j] non-increasing in i" (Helpers.gen_data ())
    (fun data ->
      let p = P.make data in
      let n = Array.length data in
      let ok = ref true in
      let j = n in
      for i = 1 to n - 1 do
        if P.sqerror p ~lo:(i + 1) ~hi:j > P.sqerror p ~lo:i ~hi:j +. 1e-6 then ok := false
      done;
      !ok)

(* -------------------------------------------------------- Sliding_prefix *)

let test_sliding_basic () =
  let sp = SP.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (SP.capacity sp);
  Alcotest.(check int) "empty" 0 (SP.length sp);
  SP.push sp 1.0;
  SP.push sp 2.0;
  Alcotest.(check int) "partial" 2 (SP.length sp);
  Helpers.check_close "partial sum" 3.0 (SP.range_sum sp ~lo:1 ~hi:2);
  SP.push sp 3.0;
  SP.push sp 4.0;
  (* window is now 2,3,4 *)
  Alcotest.(check int) "full" 3 (SP.length sp);
  Helpers.check_close "window sum" 9.0 (SP.range_sum sp ~lo:1 ~hi:3);
  Helpers.check_close "oldest" 2.0 (SP.range_sum sp ~lo:1 ~hi:1);
  Helpers.check_close "sqsum" 25.0 (SP.range_sqsum sp ~lo:2 ~hi:3)

let test_sliding_bounds () =
  let sp = SP.create ~capacity:2 in
  SP.push sp 1.0;
  Alcotest.check_raises "beyond length" (Invalid_argument "Sliding_prefix: range out of bounds")
    (fun () -> ignore (SP.range_sum sp ~lo:1 ~hi:2))

(* Drive a long stream through a small window, crossing many rebase
   boundaries, and compare every range query against a naive recompute. *)
let prop_sliding_matches_naive =
  Helpers.qcheck_case ~count:50 ~name:"sliding window matches naive across rebase"
    QCheck2.Gen.(
      let* cap = int_range 1 12 in
      let* stream = array_size (int_range 1 100) (int_range 0 50) in
      return (cap, Array.map Float.of_int stream))
    (fun (cap, stream) ->
      let sp = SP.create ~capacity:cap in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          SP.push sp v;
          let len = min (i + 1) cap in
          if SP.length sp <> len then ok := false;
          let window = Array.sub stream (i + 1 - len) len in
          for lo = 1 to len do
            for hi = lo to len do
              let expect = Helpers.naive_range_sum window lo hi in
              if not (Helpers.close ~eps:1e-6 (SP.range_sum sp ~lo ~hi) expect) then ok := false;
              let expect_sq = Helpers.naive_sqerror window lo hi in
              if not (Helpers.close ~eps:1e-5 (SP.sqerror sp ~lo ~hi) expect_sq) then ok := false
            done
          done)
        stream;
      !ok)

(* [blit_into] makes an exact copy whatever the source does next, and
   [push_slice] is [push] of each value in turn: both compared bit for bit
   against a structure fed point by point, across rebase ticks. *)
let test_sliding_blit_and_push_slice () =
  let cap = 5 in
  let values = Array.init 40 (fun i -> Float.of_int ((i * 29) mod 31) -. 7.5) in
  let one = SP.create ~capacity:cap and sliced = SP.create ~capacity:cap in
  let copy = SP.create ~capacity:cap in
  let answers sp =
    let n = SP.length sp in
    List.concat_map
      (fun lo ->
        List.concat_map
          (fun hi ->
            List.map Int64.bits_of_float
              [ SP.range_sum sp ~lo ~hi; SP.range_sqsum sp ~lo ~hi; SP.sqerror sp ~lo ~hi ])
          (List.init (n - lo + 1) (( + ) lo)))
      (List.init n (( + ) 1))
  in
  let pos = ref 0 in
  List.iter
    (fun len ->
      for i = !pos to !pos + len - 1 do
        SP.push one values.(i)
      done;
      SP.push_slice sliced values ~pos:!pos ~len;
      pos := !pos + len;
      Alcotest.(check (list int64)) (Printf.sprintf "push_slice after %d points" !pos)
        (answers one) (answers sliced);
      SP.blit_into ~src:one ~dst:copy;
      let at_blit = answers one in
      SP.push one 1000.0;
      Alcotest.(check (list int64)) "blit copy unmoved by later pushes" at_blit (answers copy);
      SP.blit_into ~src:sliced ~dst:one)
    [ 0; 1; 3; 7; 2; 11; 5; 9 ];
  Alcotest.check_raises "capacities must match"
    (Invalid_argument "Sliding_prefix.blit_into: capacities differ") (fun () ->
      SP.blit_into ~src:one ~dst:(SP.create ~capacity:(cap + 1)))

let test_sliding_rebase_precision () =
  (* Large cumulative totals must not corrupt small window sums after many
     pushes: the periodic rebase keeps magnitudes bounded. *)
  let sp = SP.create ~capacity:4 in
  for i = 1 to 100_000 do
    SP.push sp (Float.of_int (i mod 7))
  done;
  (* last four values pushed: i = 99997..100000 -> mod 7 = 2,3,4,5 *)
  Helpers.check_close ~eps:1e-9 "sum exact" 14.0 (SP.range_sum sp ~lo:1 ~hi:4);
  Helpers.check_close ~eps:1e-9 "sqsum exact" 54.0 (SP.range_sqsum sp ~lo:1 ~hi:4)

let test_sliding_drift_regression () =
  (* The warm-start fixed-window path leans harder on the ring arithmetic:
     stream >= 100x the capacity through a small window and assert sqerror
     never drifts more than 1e-6 (relative) from a direct recomputation on
     the raw window — at the default rebase period and at the worst case
     rebase_every = 1. *)
  let cap = 8 in
  let total = 120 * cap in
  (* fractional values with a slow upward trend stress cancellation in the
     cumulative sums more than small integers do *)
  let value i = (Float.of_int ((i * 37) mod 101) /. 7.0) +. (Float.of_int i *. 0.25) in
  let run ?rebase_every label =
    let sp =
      match rebase_every with
      | None -> SP.create ~capacity:cap
      | Some rebase_every -> SP.create_rebasing ~rebase_every ~capacity:cap
    in
    let raw = Array.make cap 0.0 in
    for i = 0 to total - 1 do
      SP.push sp (value i);
      raw.((i mod cap)) <- value i;
      let len = SP.length sp in
      (* window oldest-first: positions i-len+1 .. i of the stream *)
      let window = Array.init len (fun j -> raw.((i - len + 1 + j) mod cap)) in
      for lo = 1 to len do
        for hi = lo to len do
          let expect = Helpers.naive_sqerror window lo hi in
          let got = SP.sqerror sp ~lo ~hi in
          if not (Helpers.close ~eps:1e-6 expect got) then
            Alcotest.failf "%s: sqerror drifted at t=%d [%d,%d]: expected %.12g, got %.12g"
              label i lo hi expect got
        done
      done
    done
  in
  run "default rebase";
  run ~rebase_every:1 "rebase_every=1"

let () =
  Alcotest.run "sh_prefix"
    [
      ( "prefix_sums",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "bounds" `Quick test_bounds_checked;
          Alcotest.test_case "of_sub" `Quick test_of_sub;
          Alcotest.test_case "sqerror constant" `Quick test_sqerror_constant_zero;
          Alcotest.test_case "sqerror known" `Quick test_sqerror_known;
          prop_sums_match_naive;
          prop_sqerror_matches_naive;
          prop_sqerror_monotone;
        ] );
      ( "sliding_prefix",
        [
          Alcotest.test_case "basic" `Quick test_sliding_basic;
          Alcotest.test_case "bounds" `Quick test_sliding_bounds;
          Alcotest.test_case "rebase precision" `Quick test_sliding_rebase_precision;
          Alcotest.test_case "blit_into and push_slice" `Quick test_sliding_blit_and_push_slice;
          Alcotest.test_case "drift regression" `Quick test_sliding_drift_regression;
          prop_sliding_matches_naive;
        ] );
    ]
