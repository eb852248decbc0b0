module Gk = Sh_gk.Gk
module Rng = Sh_util.Rng

(* GK's guarantee with repeated values: v occupies the ranks
   #{x < v} + 1 .. #{x <= v}, and that interval must come within
   allow + 1 (one for rounding) of the target rank ceil(phi n).  The
   interval is exact, not widened by v's multiplicity, so a stream of a
   few repeated values is checked as tightly as one of distinct values. *)
let rank_ok data ~allow ~phi v =
  let n = Array.length data in
  let target = Float.of_int (max 1 (int_of_float (ceil (phi *. Float.of_int n)))) in
  let below = ref 0 and upto = ref 0 in
  Array.iter
    (fun x ->
      if x < v then incr below;
      if x <= v then incr upto)
    data;
  Float.of_int (!below + 1) -. (allow +. 1.0) <= target
  && target <= Float.of_int !upto +. allow +. 1.0

(* A stream over [distinct] values skewed towards the smallest: each
   draw is value index floor(distinct * u^3) for a uniform u, so the low
   values repeat heavily. *)
let skewed rng ~distinct n =
  Array.init n (fun _ ->
      let u = Rng.float rng 1.0 in
      1.5 *. Float.of_int (int_of_float (Float.of_int distinct *. u *. u *. u)))

let skewed_distincts = [ 1; 2; 3; 8; 50 ]

let phis = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

let check_rank_guarantee ~eps data =
  let g = Gk.create ~epsilon:eps in
  Array.iter (Gk.insert g) data;
  let allow = eps *. Float.of_int (Array.length data) in
  List.for_all (fun phi -> rank_ok data ~allow ~phi (Gk.quantile g phi)) phis

let test_gk_validation () =
  Alcotest.check_raises "epsilon too big" (Invalid_argument "Gk.create: epsilon must be in (0, 1)")
    (fun () -> ignore (Gk.create ~epsilon:1.0));
  let g = Gk.create ~epsilon:0.1 in
  Alcotest.check_raises "empty quantile" (Invalid_argument "Gk.quantile: empty summary") (fun () ->
      ignore (Gk.quantile g 0.5));
  Gk.insert g 1.0;
  Alcotest.check_raises "phi oob" (Invalid_argument "Gk.quantile: phi out of [0, 1]") (fun () ->
      ignore (Gk.quantile g 1.5))

let test_gk_exact_small () =
  let g = Gk.create ~epsilon:0.05 in
  List.iter (Gk.insert g) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  Alcotest.(check int) "count" 5 (Gk.count g);
  Helpers.check_close "min" 1.0 (Gk.quantile g 0.0);
  Helpers.check_close "max" 5.0 (Gk.quantile g 1.0);
  Helpers.check_close "median" 3.0 (Gk.quantile g 0.5)

let test_gk_sorted_stream () =
  let data = Array.init 5000 Float.of_int in
  Alcotest.(check bool) "guarantee on sorted data" true (check_rank_guarantee ~eps:0.02 data)

let test_gk_reverse_stream () =
  let data = Array.init 5000 (fun i -> Float.of_int (5000 - i)) in
  Alcotest.(check bool) "guarantee on reverse-sorted data" true (check_rank_guarantee ~eps:0.02 data)

(* One stream in six is wide (values 0 .. 10,000); the rest are skewed
   over 1 to 50 distinct values, where every answer is a heavily
   repeated value. *)
let prop_gk_rank_guarantee =
  Helpers.qcheck_case ~count:50 ~name:"GK epsilon-rank guarantee on random streams"
    QCheck2.Gen.(
      let* n = int_range 50 2000 in
      let* distinct = oneofl (0 :: skewed_distincts) in
      let* eps = oneofl [ 0.001; 0.01; 0.05; 0.1; 0.2 ] in
      let* data =
        if distinct = 0 then
          map (Array.map Float.of_int) (array_size (return n) (int_range 0 10_000))
        else map (fun seed -> skewed (Rng.create ~seed) ~distinct n) int
      in
      return (data, eps))
    (fun (data, eps) -> check_rank_guarantee ~eps data)

(* rank_bounds x = (lo, hi) reads lo off the last tuple whose value is
   <= x, so lo never exceeds #{y <= x}; the next tuple's value is > x, so
   #{y <= x} stays below its rmax, which the invariant g + delta <=
   2 eps n keeps within 2 eps n of lo.  Probes run below, inside and above
   the stream, on the same wide and skewed streams as the rank property. *)
let check_rank_bounds ~eps data =
  let g = Gk.create ~epsilon:eps in
  Array.iter (Gk.insert g) data;
  let slack = int_of_float (2.0 *. eps *. Float.of_int (Array.length data)) + 1 in
  let probes = Array.append [| -1.0; 1e9 |] (Array.sub data 0 (min 64 (Array.length data))) in
  Array.for_all
    (fun x ->
      let lo, hi = Gk.rank_bounds g x in
      let r = Array.fold_left (fun acc y -> if y <= x then acc + 1 else acc) 0 data in
      lo <= hi && lo <= r && r <= lo + slack)
    probes

let prop_gk_rank_bounds =
  Helpers.qcheck_case ~count:50 ~name:"rank bounds within 2 eps n on random streams"
    QCheck2.Gen.(
      let* n = int_range 50 2000 in
      let* distinct = oneofl (0 :: skewed_distincts) in
      let* eps = oneofl [ 0.001; 0.01; 0.05; 0.1; 0.2 ] in
      let* data =
        if distinct = 0 then
          map (Array.map Float.of_int) (array_size (return n) (int_range 0 10_000))
        else map (fun seed -> skewed (Rng.create ~seed) ~distinct n) int
      in
      return (data, eps))
    (fun (data, eps) -> check_rank_bounds ~eps data)

let test_gk_space_sublinear () =
  let g = Gk.create ~epsilon:0.01 in
  let rng = Rng.create ~seed:21 in
  let n = 100_000 in
  for _ = 1 to n do
    Gk.insert g (Rng.float rng 1.0)
  done;
  (* Space O((1/eps) log (eps n)); generous constant. *)
  let bound = int_of_float (30.0 /. 0.01) in
  Alcotest.(check bool)
    (Printf.sprintf "summary size %d stays far below n" (Gk.size g))
    true
    (Gk.size g < bound)

let test_gk_rank_bounds () =
  let g = Gk.create ~epsilon:0.1 in
  Array.iter (Gk.insert g) (Array.init 100 Float.of_int);
  let lo, hi = Gk.rank_bounds g 50.0 in
  Alcotest.(check bool) "bounds order" true (lo <= hi);
  Alcotest.(check bool) "enclose true rank 51" true (lo <= 51 + 10 && hi >= 51 - 10)

(* Queries flush the insert buffer: asked at points that fall mid-buffer,
   every answer must still hold the epsilon n guarantee over the prefix
   inserted so far.  One wide stream at eps = 0.02 is queried every 37
   inserts (coprime to its 25-slot buffer); skewed streams of 1 to 50
   distinct values, at eps from 0.001 to 0.2, every 97. *)
let check_interleaved ~eps ~every data =
  let g = Gk.create ~epsilon:eps in
  Array.iteri
    (fun i v ->
      Gk.insert g v;
      if (i + 1) mod every = 0 then begin
        let prefix = Array.sub data 0 (i + 1) in
        let allow = eps *. Float.of_int (i + 1) in
        List.iter
          (fun phi ->
            let q = Gk.quantile g phi in
            if not (rank_ok prefix ~allow ~phi q) then
              Alcotest.failf "eps=%g n=%d phi=%g: answer %g outside the rank bound" eps (i + 1)
                phi q)
          phis
      end)
    data;
  Alcotest.(check int) "count" (Array.length data) (Gk.count g)

let test_gk_interleaved_queries () =
  let rng = Rng.create ~seed:77 in
  check_interleaved ~eps:0.02 ~every:37
    (Array.init 5000 (fun _ -> Float.of_int (Rng.int rng 10_000)));
  List.iter
    (fun distinct ->
      List.iter
        (fun eps -> check_interleaved ~eps ~every:97 (skewed rng ~distinct 5000))
        [ 0.001; 0.01; 0.05; 0.2 ])
    skewed_distincts

let test_gk_reset () =
  let rng = Rng.create ~seed:79 in
  let data = Array.init 3000 (fun _ -> Rng.float rng 1.0) in
  let used = Gk.create ~epsilon:0.01 in
  Array.iter (Gk.insert used) (Array.map (fun x -> x +. 5.0) data);
  Gk.reset used;
  Alcotest.(check int) "reset count" 0 (Gk.count used);
  let fresh = Gk.create ~epsilon:0.01 in
  Array.iter (Gk.insert fresh) data;
  Array.iter (Gk.insert used) data;
  Alcotest.(check int) "size" (Gk.size fresh) (Gk.size used);
  List.iter
    (fun phi ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "phi=%g" phi) (Gk.quantile fresh phi)
        (Gk.quantile used phi))
    phis

(* The steady state allocates nothing per insert: values go into the flat
   buffer, flushes sort and merge in place, and the columns stop growing
   once they hold the summary.  The values come pre-boxed in a list, so
   the loop itself allocates nothing either. *)
let test_gk_insert_alloc () =
  let g = Gk.create ~epsilon:0.001 in
  let rng = Rng.create ~seed:80 in
  let values n = List.init n (fun _ -> Rng.float rng 1.0) in
  let warm = values 100_000 and measured = values 100_000 in
  List.iter (Gk.insert g) warm;
  let w0 = Gc.minor_words () in
  List.iter (Gk.insert g) measured;
  let per_insert = (Gc.minor_words () -. w0) /. 100_000.0 in
  if per_insert > 0.1 then Alcotest.failf "%.3f minor words per insert (> 0.1)" per_insert

let () =
  Alcotest.run "sh_quantile"
    [
      ( "gk",
        [
          Alcotest.test_case "validation" `Quick test_gk_validation;
          Alcotest.test_case "exact small" `Quick test_gk_exact_small;
          Alcotest.test_case "sorted stream" `Quick test_gk_sorted_stream;
          Alcotest.test_case "reverse stream" `Quick test_gk_reverse_stream;
          Alcotest.test_case "space sublinear" `Quick test_gk_space_sublinear;
          Alcotest.test_case "rank bounds" `Quick test_gk_rank_bounds;
          prop_gk_rank_guarantee;
          Alcotest.test_case "queries interleaved mid-buffer" `Quick test_gk_interleaved_queries;
          Alcotest.test_case "reset equals fresh" `Quick test_gk_reset;
          Alcotest.test_case "insert allocation" `Quick test_gk_insert_alloc;
        ] );
      ("gk_bounds", [ prop_gk_rank_bounds ]);
    ]
