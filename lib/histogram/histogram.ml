module Prefix_sums = Sh_prefix.Prefix_sums

type bucket = { lo : int; hi : int; value : float }
type t = { n : int; his : int array; values : float array }

(* --- the estimate kernel --------------------------------------------- *)

(* Bucket [i] of the columns covers [lo_of his i .. his.(i)]: buckets are
   contiguous from 1, so left ends are derived. *)
let[@inline] lo_of his i = if i = 0 then 1 else his.(i - 1) + 1

(* The bucket covering index [i], by binary search in O(log count). *)
let index_in ~his ~count i =
  let lo = ref 0 and hi = ref (count - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if his.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo

let point_in ~his ~values ~count i = values.(index_in ~his ~count i)

let range_sum_in ~his ~values ~count ~lo ~hi =
  if lo > hi then 0.0
  else begin
    let acc = ref 0.0 in
    let i = ref 0 in
    (* Skip buckets entirely left of the range, then accumulate overlaps. *)
    while his.(!i) < lo do
      incr i
    done;
    let continue = ref true in
    while !continue && !i < count do
      let b_lo = lo_of his !i in
      if b_lo > hi then continue := false
      else begin
        let o_lo = max b_lo lo and o_hi = min his.(!i) hi in
        acc := !acc +. (Float.of_int (o_hi - o_lo + 1) *. values.(!i));
        incr i
      end
    done;
    !acc
  end

(* --- construction ------------------------------------------------------ *)

let of_columns ~n ~his ~values ~count =
  if n < 1 then invalid_arg "Histogram.of_columns: n must be >= 1";
  if count < 1 then invalid_arg "Histogram.of_columns: at least one bucket required";
  if his.(count - 1) <> n then invalid_arg "Histogram.of_columns: last bucket must end at n";
  for i = 0 to count - 1 do
    if lo_of his i > his.(i) then invalid_arg "Histogram.of_columns: empty bucket"
  done;
  { n; his = Array.sub his 0 count; values = Array.sub values 0 count }

let make ~n buckets =
  let count = Array.length buckets in
  if n < 1 then invalid_arg "Histogram.make: n must be >= 1";
  if count = 0 then invalid_arg "Histogram.make: at least one bucket required";
  if buckets.(0).lo <> 1 then invalid_arg "Histogram.make: first bucket must start at 1";
  if buckets.(count - 1).hi <> n then invalid_arg "Histogram.make: last bucket must end at n";
  for i = 0 to count - 1 do
    let b = buckets.(i) in
    if b.lo > b.hi then invalid_arg "Histogram.make: empty bucket";
    if i > 0 && b.lo <> buckets.(i - 1).hi + 1 then
      invalid_arg "Histogram.make: buckets must be contiguous"
  done;
  { n; his = Array.map (fun b -> b.hi) buckets; values = Array.map (fun b -> b.value) buckets }

let of_boundaries prefix ~boundaries =
  let n = Prefix_sums.length prefix in
  let count = Array.length boundaries in
  if count = 0 || boundaries.(count - 1) <> n then
    invalid_arg "Histogram.of_boundaries: last boundary must equal n";
  let values =
    Array.mapi
      (fun i hi ->
        let lo = lo_of boundaries i in
        if lo > hi then invalid_arg "Histogram.of_boundaries: boundaries must increase";
        Prefix_sums.range_mean prefix ~lo ~hi)
      boundaries
  in
  { n; his = Array.copy boundaries; values }

(* --- queries ----------------------------------------------------------- *)

let bucket_count t = Array.length t.his
let bucket t i = { lo = lo_of t.his i; hi = t.his.(i); value = t.values.(i) }
let buckets t = Array.init (bucket_count t) (bucket t)

let check_index t i =
  if i < 1 || i > t.n then invalid_arg "Histogram.find_bucket: index out of range"

let find_bucket t i =
  check_index t i;
  bucket t (index_in ~his:t.his ~count:(bucket_count t) i)

let point_estimate t i =
  check_index t i;
  point_in ~his:t.his ~values:t.values ~count:(bucket_count t) i

let range_sum_estimate t ~lo ~hi =
  if lo <= hi && (lo < 1 || hi > t.n) then
    invalid_arg "Histogram.range_sum_estimate: range out of bounds";
  range_sum_in ~his:t.his ~values:t.values ~count:(bucket_count t) ~lo ~hi

let range_avg_estimate t ~lo ~hi =
  if lo > hi then 0.0
  else range_sum_estimate t ~lo ~hi /. Float.of_int (hi - lo + 1)

let to_series t =
  let out = Array.make t.n 0.0 in
  Array.iteri
    (fun i hi ->
      for j = lo_of t.his i to hi do
        out.(j - 1) <- t.values.(i)
      done)
    t.his;
  out

let sse_against t prefix =
  if Prefix_sums.length prefix <> t.n then
    invalid_arg "Histogram.sse_against: length mismatch";
  (* Per bucket: sum_{i} (v_i - h)^2 = SQSUM - 2 h SUM + len h^2. *)
  let acc = ref 0.0 in
  Array.iteri
    (fun i hi ->
      let lo = lo_of t.his i and value = t.values.(i) in
      let s = Prefix_sums.range_sum prefix ~lo ~hi in
      let q = Prefix_sums.range_sqsum prefix ~lo ~hi in
      let len = Float.of_int (hi - lo + 1) in
      acc := !acc +. Float.max 0.0 (q -. (2.0 *. value *. s) +. (len *. value *. value)))
    t.his;
  !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>histogram n=%d B=%d" t.n (bucket_count t);
  Array.iteri
    (fun i hi -> Format.fprintf ppf "@,  [%d..%d] = %.6g" (lo_of t.his i) hi t.values.(i))
    t.his;
  Format.fprintf ppf "@]"
