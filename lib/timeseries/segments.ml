module Histogram = Sh_histogram.Histogram
module Prefix_sums = Sh_prefix.Prefix_sums

type segment = { hi : int; value : float }
type t = { n : int; segments : segment array }

let make ~n segments =
  let count = Array.length segments in
  if n < 1 then invalid_arg "Segments.make: n must be >= 1";
  if count = 0 then invalid_arg "Segments.make: at least one segment required";
  if segments.(count - 1).hi <> n then invalid_arg "Segments.make: last segment must end at n";
  for i = 1 to count - 1 do
    if segments.(i).hi <= segments.(i - 1).hi then
      invalid_arg "Segments.make: endpoints must strictly increase"
  done;
  if segments.(0).hi < 1 then invalid_arg "Segments.make: endpoints must be >= 1";
  { n; segments = Array.copy segments }

let of_histogram h =
  make ~n:h.Histogram.n
    (Array.map (fun b -> { hi = b.Histogram.hi; value = b.Histogram.value }) (Histogram.buckets h))

let of_means data ~boundaries =
  let prefix = Prefix_sums.make data in
  let n = Array.length data in
  let segs =
    Array.mapi
      (fun i hi ->
        let lo = if i = 0 then 1 else boundaries.(i - 1) + 1 in
        { hi; value = Prefix_sums.range_mean prefix ~lo ~hi })
      boundaries
  in
  make ~n segs

let segment_count t = Array.length t.segments

let to_series t =
  let out = Array.make t.n 0.0 in
  let lo = ref 1 in
  Array.iter
    (fun s ->
      for i = !lo to s.hi do
        out.(i - 1) <- s.value
      done;
      lo := s.hi + 1)
    t.segments;
  out

let euclidean a b =
  if Array.length a <> Array.length b then invalid_arg "Segments.euclidean: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let lower_bound_distance ~query t =
  if Array.length query <> t.n then invalid_arg "Segments.lower_bound_distance: length mismatch";
  let acc = ref 0.0 in
  let lo = ref 1 in
  let running = ref 0.0 in
  (* One pass over the query accumulates each segment's query mean. *)
  Array.iter
    (fun s ->
      for i = !lo to s.hi do
        running := !running +. query.(i - 1)
      done;
      let len = Float.of_int (s.hi - !lo + 1) in
      let qmean = !running /. len in
      let d = qmean -. s.value in
      acc := !acc +. (len *. d *. d);
      running := 0.0;
      lo := s.hi + 1)
    t.segments;
  sqrt !acc

let sse_of_approximation data t =
  if Array.length data <> t.n then invalid_arg "Segments.sse_of_approximation: length mismatch";
  Sh_util.Metrics.sse (to_series t) data
