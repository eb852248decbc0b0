module Haar = Sh_wavelet.Haar
module Syn = Sh_wavelet.Synopsis

let gen_pow2_data =
  QCheck2.Gen.(
    let* log_n = int_range 0 6 in
    let n = 1 lsl log_n in
    let* ints = array_size (return n) (int_range (-100) 100) in
    return (Array.map Float.of_int ints))

(* ----------------------------------------------------------------- Haar *)

let test_pow2_helpers () =
  Alcotest.(check bool) "1 is pow2" true (Haar.is_pow2 1);
  Alcotest.(check bool) "8 is pow2" true (Haar.is_pow2 8);
  Alcotest.(check bool) "12 is not" false (Haar.is_pow2 12);
  Alcotest.(check bool) "0 is not" false (Haar.is_pow2 0);
  Alcotest.(check int) "next 1" 1 (Haar.next_pow2 1);
  Alcotest.(check int) "next 5" 8 (Haar.next_pow2 5);
  Alcotest.(check int) "next 8" 8 (Haar.next_pow2 8)

let test_transform_known () =
  (* [a,b] -> [(a+b)/sqrt2, (a-b)/sqrt2] *)
  let c = Haar.transform [| 3.0; 1.0 |] in
  Helpers.check_close "avg coeff" (4.0 /. sqrt 2.0) c.(0);
  Helpers.check_close "detail" (2.0 /. sqrt 2.0) c.(1)

let test_transform_constant () =
  let c = Haar.transform (Array.make 8 5.0) in
  Helpers.check_close "scaling carries everything" (5.0 *. sqrt 8.0) c.(0);
  for i = 1 to 7 do
    Helpers.check_close "details vanish" 0.0 c.(i)
  done

let test_transform_rejects_non_pow2 () =
  Alcotest.check_raises "non-pow2" (Invalid_argument "Haar.transform: length must be a power of two")
    (fun () -> ignore (Haar.transform (Array.make 3 0.0)))

let prop_roundtrip =
  Helpers.qcheck_case ~name:"inverse . transform = id" gen_pow2_data (fun data ->
      let back = Haar.inverse (Haar.transform data) in
      Array.for_all2 (fun a b -> Helpers.close ~eps:1e-9 a b) data back)

let prop_parseval =
  Helpers.qcheck_case ~name:"transform preserves L2 norm (Parseval)" gen_pow2_data (fun data ->
      let norm xs = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
      Helpers.close ~eps:1e-9 (norm data) (norm (Haar.transform data)))

let prop_linearity =
  Helpers.qcheck_case ~name:"transform is linear" gen_pow2_data (fun data ->
      let scaled = Haar.transform (Array.map (fun x -> 3.0 *. x) data) in
      let direct = Array.map (fun c -> 3.0 *. c) (Haar.transform data) in
      Array.for_all2 (fun a b -> Helpers.close ~eps:1e-9 a b) scaled direct)

let test_basis_orthonormal () =
  let n = 16 in
  for a = 0 to n - 1 do
    for b = a to n - 1 do
      let dot = ref 0.0 in
      for pos = 0 to n - 1 do
        dot := !dot +. (Haar.basis_value ~n ~coeff:a ~pos *. Haar.basis_value ~n ~coeff:b ~pos)
      done;
      let expected = if a = b then 1.0 else 0.0 in
      Helpers.check_close ~eps:1e-9 (Printf.sprintf "dot(%d,%d)" a b) expected !dot
    done
  done

let test_basis_matches_transform () =
  (* Reconstructing from ALL coefficients via basis_value must reproduce
     the data: v_i = sum_k c_k psi_k(i). *)
  let data = [| 4.0; -2.0; 7.0; 0.0; 1.0; 1.0; 3.0; -5.0 |] in
  let c = Haar.transform data in
  let n = 8 in
  for pos = 0 to n - 1 do
    let v = ref 0.0 in
    for k = 0 to n - 1 do
      v := !v +. (c.(k) *. Haar.basis_value ~n ~coeff:k ~pos)
    done;
    Helpers.check_close "pointwise reconstruction" data.(pos) !v
  done

let prop_basis_prefix_sum =
  Helpers.qcheck_case ~name:"basis_prefix_sum equals naive partial sums"
    QCheck2.Gen.(
      let* log_n = int_range 0 5 in
      return (1 lsl log_n))
    (fun n ->
      let ok = ref true in
      for k = 0 to n - 1 do
        for p = 0 to n do
          let naive = ref 0.0 in
          for pos = 0 to p - 1 do
            naive := !naive +. Haar.basis_value ~n ~coeff:k ~pos
          done;
          if not (Helpers.close ~eps:1e-9 !naive (Haar.basis_prefix_sum ~n ~coeff:k ~prefix:p))
          then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------- Synopsis *)

let test_synopsis_all_coeffs_exact () =
  let data = [| 4.0; -2.0; 7.0; 0.0; 1.0; 1.0; 3.0; -5.0 |] in
  let s = Syn.build data ~coeffs:8 in
  Alcotest.(check (array (float 1e-9))) "exact reconstruction" data (Syn.to_series s);
  Helpers.check_close "zero sse" 0.0 (Syn.sse_against s data);
  for i = 1 to 8 do
    Helpers.check_close "point" data.(i - 1) (Syn.point_estimate s i)
  done

let test_synopsis_budget_respected () =
  let data = Array.init 64 (fun i -> Float.of_int ((i * 13) mod 29)) in
  let s = Syn.build data ~coeffs:10 in
  Alcotest.(check bool) "at most 10 stored" true (Syn.stored_coefficients s <= 10)

let prop_synopsis_range_sum_consistent =
  Helpers.qcheck_case ~name:"range_sum_estimate equals sum over to_series"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:1 ~max_len:40 () in
      let* budget = int_range 1 10 in
      return (data, budget))
    (fun (data, budget) ->
      let s = Syn.build data ~coeffs:budget in
      let series = Syn.to_series s in
      let n = Array.length data in
      let ok = ref true in
      for lo = 1 to n do
        for hi = lo to n do
          let direct = Syn.range_sum_estimate s ~lo ~hi in
          let via = Helpers.naive_range_sum series lo hi in
          if not (Helpers.close ~eps:1e-6 direct via) then ok := false
        done
      done;
      !ok)

let prop_topk_is_l2_optimal_selection =
  (* Keeping the largest coefficients must never have higher SSE than any
     other subset of the same size: check against keeping the SMALLEST. *)
  Helpers.qcheck_case ~count:50 ~name:"top-k beats bottom-k in SSE" gen_pow2_data (fun data ->
      let n = Array.length data in
      if n < 4 then true
      else begin
        let budget = n / 2 in
        let top = Syn.build data ~coeffs:budget in
        (* bottom-k reconstruction: zero out the top-k coefficients *)
        let all = Haar.transform data in
        let idx = Array.init n (fun i -> i) in
        Array.sort (fun a b -> compare (Float.abs all.(a)) (Float.abs all.(b))) idx;
        let keep = Array.sub idx 0 budget in
        let sparse = Array.make n 0.0 in
        Array.iter (fun k -> sparse.(k) <- all.(k)) keep;
        let bottom_series = Haar.inverse sparse in
        let bottom_sse = Sh_util.Metrics.sse bottom_series data in
        Syn.sse_against top data <= bottom_sse +. 1e-6
      end)

let test_synopsis_non_pow2_padding () =
  let data = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let s = Syn.build data ~coeffs:8 in
  Alcotest.(check int) "length is original" 5 (Syn.length s);
  (* With a full budget the original range must still reconstruct exactly. *)
  Alcotest.(check (array (float 1e-9))) "exact on original range" data (Syn.to_series s)

let test_synopsis_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Synopsis.build: empty data") (fun () ->
      ignore (Syn.build [||] ~coeffs:1));
  Alcotest.check_raises "bad budget"
    (Invalid_argument "Synopsis.build: coefficient budget must be >= 1") (fun () ->
      ignore (Syn.build [| 1.0 |] ~coeffs:0));
  let s = Syn.build [| 1.0; 2.0 |] ~coeffs:1 in
  Alcotest.check_raises "point oob" (Invalid_argument "Synopsis.point_estimate: index out of range")
    (fun () -> ignore (Syn.point_estimate s 3))

(* ------------------------------------------------------------ Streaming *)

module Str = Sh_wavelet.Streaming

let test_streaming_exact_with_full_budget () =
  List.iter
    (fun n ->
      let data = Array.init n (fun i -> Float.of_int (((i * 37) mod 41) - 20)) in
      let s = Str.create ~budget:(max 1 n) in
      Array.iter (Str.push s) data;
      Alcotest.(check int) "count" n (Str.count s);
      Array.iteri
        (fun i v -> Helpers.check_close ~eps:1e-9 (Printf.sprintf "n=%d i=%d" n i) v
            (Str.point_estimate s (i + 1)))
        data)
    [ 1; 2; 3; 7; 8; 13; 16; 33 ]

let test_streaming_step_function_cheap () =
  (* one dyadic step: a single detail coefficient suffices *)
  let data = Array.append (Array.make 8 5.0) (Array.make 8 9.0) in
  let s = Str.create ~budget:1 in
  Array.iter (Str.push s) data;
  Array.iteri
    (fun i v -> Helpers.check_close "exact with budget 1" v (Str.point_estimate s (i + 1)))
    data

let prop_streaming_range_sum_consistent =
  Helpers.qcheck_case ~name:"streaming range_sum equals sum over to_series"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:1 ~max_len:50 () in
      let* budget = int_range 1 10 in
      return (data, budget))
    (fun (data, budget) ->
      let s = Str.create ~budget in
      Array.iter (Str.push s) data;
      let series = Str.to_series s in
      let n = Array.length data in
      let ok = ref true in
      for lo = 1 to n do
        for hi = lo to n do
          if
            not
              (Helpers.close ~eps:1e-6
                 (Str.range_sum_estimate s ~lo ~hi)
                 (Helpers.naive_range_sum series lo hi))
          then ok := false
        done
      done;
      !ok)

let prop_streaming_budget_respected =
  Helpers.qcheck_case ~name:"streaming never stores more than the budget"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:1 ~max_len:200 () in
      let* budget = int_range 1 8 in
      return (data, budget))
    (fun (data, budget) ->
      let s = Str.create ~budget in
      Array.iter (Str.push s) data;
      Str.stored_coefficients s <= budget)

let test_streaming_bigger_budget_better () =
  let rng = Helpers.rng ~seed:55 in
  let data = Array.init 256 (fun _ -> Float.of_int (Sh_util.Rng.int rng 1000)) in
  let sse budget =
    let s = Str.create ~budget in
    Array.iter (Str.push s) data;
    Sh_util.Metrics.sse (Str.to_series s) data
  in
  Alcotest.(check bool) "budget 64 beats budget 2" true (sse 64 < sse 2);
  Helpers.check_close ~eps:1e-6 "budget 256 exact" 0.0 (sse 256)

let test_streaming_validation () =
  Alcotest.check_raises "budget" (Invalid_argument "Streaming.create: budget must be >= 1")
    (fun () -> ignore (Str.create ~budget:0));
  let s = Str.create ~budget:4 in
  Alcotest.check_raises "nan" (Invalid_argument "Streaming.push: non-finite value") (fun () ->
      Str.push s Float.nan);
  Str.push s 1.0;
  Alcotest.check_raises "point oob" (Invalid_argument "Streaming.point_estimate: index out of range")
    (fun () -> ignore (Str.point_estimate s 2))

let () =
  Alcotest.run "sh_wavelet"
    [
      ( "haar",
        [
          Alcotest.test_case "pow2 helpers" `Quick test_pow2_helpers;
          Alcotest.test_case "known transform" `Quick test_transform_known;
          Alcotest.test_case "constant data" `Quick test_transform_constant;
          Alcotest.test_case "rejects non-pow2" `Quick test_transform_rejects_non_pow2;
          Alcotest.test_case "basis orthonormal" `Quick test_basis_orthonormal;
          Alcotest.test_case "basis matches transform" `Quick test_basis_matches_transform;
          prop_roundtrip;
          prop_parseval;
          prop_linearity;
          prop_basis_prefix_sum;
        ] );
      ( "synopsis",
        [
          Alcotest.test_case "all coeffs exact" `Quick test_synopsis_all_coeffs_exact;
          Alcotest.test_case "budget respected" `Quick test_synopsis_budget_respected;
          Alcotest.test_case "non-pow2 padding" `Quick test_synopsis_non_pow2_padding;
          Alcotest.test_case "validation" `Quick test_synopsis_validation;
          prop_synopsis_range_sum_consistent;
          prop_topk_is_l2_optimal_selection;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "exact with full budget" `Quick test_streaming_exact_with_full_budget;
          Alcotest.test_case "dyadic step" `Quick test_streaming_step_function_cheap;
          Alcotest.test_case "bigger budget better" `Quick test_streaming_bigger_budget_better;
          Alcotest.test_case "validation" `Quick test_streaming_validation;
          prop_streaming_range_sum_consistent;
          prop_streaming_budget_respected;
        ] );
    ]
