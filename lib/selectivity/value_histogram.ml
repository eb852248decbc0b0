module Gk = Sh_gk.Gk
module Obs = Sh_obs.Obs
module M = Sh_obs.Metric

(* Selectivity estimates are issued per query-optimizer probe; the
   global counters expose probe volume. *)
let c_range_estimates = Obs.counter "sel.range_estimates"
let c_eq_estimates = Obs.counter "sel.eq_estimates"

type bucket = { lo_v : float; hi_v : float; count : float; distinct : float }
type t = { total : float; buckets : bucket array }

let bucket_count t = Array.length t.buckets

let validate buckets =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Value_histogram: at least one bucket required";
  for i = 0 to n - 1 do
    if buckets.(i).hi_v < buckets.(i).lo_v then invalid_arg "Value_histogram: inverted bucket";
    if i > 0 && buckets.(i).lo_v <> buckets.(i - 1).hi_v then
      invalid_arg "Value_histogram: buckets must tile the value range"
  done

let make ~total buckets =
  validate buckets;
  { total; buckets }

(* Count of distinct values in a sorted array slice. *)
let distinct_in_sorted sorted lo_i hi_i =
  if hi_i < lo_i then 0.0
  else begin
    let d = ref 1 in
    for i = lo_i + 1 to hi_i do
      if sorted.(i) <> sorted.(i - 1) then incr d
    done;
    Float.of_int !d
  end

let equi_width data ~buckets =
  let n = Array.length data in
  if n = 0 then invalid_arg "Value_histogram.equi_width: empty data";
  let b = max 1 buckets in
  let lo, hi = Sh_util.Stats.min_max data in
  let hi = if hi = lo then lo +. 1.0 else hi in
  let width = (hi -. lo) /. Float.of_int b in
  let counts = Array.make b 0 in
  let seen = Array.make b [] in
  Array.iter
    (fun v ->
      let i = int_of_float ((v -. lo) /. width) in
      let i = if i < 0 then 0 else if i >= b then b - 1 else i in
      counts.(i) <- counts.(i) + 1;
      seen.(i) <- v :: seen.(i))
    data;
  let bucket i =
    let values = Array.of_list seen.(i) in
    Array.sort compare values;
    {
      lo_v = lo +. (Float.of_int i *. width);
      hi_v = (if i = b - 1 then hi else lo +. (Float.of_int (i + 1) *. width));
      count = Float.of_int counts.(i);
      distinct = Float.max 1.0 (distinct_in_sorted values 0 (Array.length values - 1));
    }
  in
  make ~total:(Float.of_int n) (Array.init b bucket)

let of_boundaries_sorted sorted ~cuts =
  (* [cuts] are indices into [sorted]: bucket i covers sorted.(cuts.(i-1) .. cuts.(i)-1). *)
  let n = Array.length sorted in
  let b = Array.length cuts in
  let bucket i =
    let start = if i = 0 then 0 else cuts.(i - 1) in
    let stop = cuts.(i) - 1 in
    let lo_v = if i = 0 then sorted.(0) else sorted.(cuts.(i - 1)) in
    let hi_v = if i = b - 1 then sorted.(n - 1) else sorted.(cuts.(i)) in
    {
      lo_v;
      hi_v;
      count = Float.of_int (stop - start + 1);
      distinct = Float.max 1.0 (distinct_in_sorted sorted start stop);
    }
  in
  make ~total:(Float.of_int n) (Array.init b bucket)

let equi_depth data ~buckets =
  let n = Array.length data in
  if n = 0 then invalid_arg "Value_histogram.equi_depth: empty data";
  let b = min (max 1 buckets) n in
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let cuts = Array.init b (fun i -> max (i + 1) (n * (i + 1) / b)) in
  cuts.(b - 1) <- n;
  of_boundaries_sorted sorted ~cuts

let equi_depth_of_gk g ~buckets =
  if Gk.count g = 0 then invalid_arg "Value_histogram.equi_depth_of_gk: empty summary";
  let b = max 1 buckets in
  let n = Float.of_int (Gk.count g) in
  let q i = Gk.quantile g (Float.of_int i /. Float.of_int b) in
  let bucket i =
    let lo_v = q i and hi_v = q (i + 1) in
    {
      lo_v;
      hi_v = Float.max hi_v lo_v;
      count = n /. Float.of_int b;
      (* the summary does not track distinct counts: assume a spread
         proportional to the bucket's value extent, floored at 1 *)
      distinct = Float.max 1.0 (Float.abs (hi_v -. lo_v));
    }
  in
  make ~total:n (Array.init b bucket)

let v_optimal data ~buckets ~domain_bins =
  let n = Array.length data in
  if n = 0 then invalid_arg "Value_histogram.v_optimal: empty data";
  if domain_bins < 1 then invalid_arg "Value_histogram.v_optimal: domain_bins must be >= 1";
  let lo, hi = Sh_util.Stats.min_max data in
  let hi' = if hi = lo then lo +. 1.0 else hi in
  let width = (hi' -. lo) /. Float.of_int domain_bins in
  let freq = Array.make domain_bins 0.0 in
  let distinct_seen = Array.make domain_bins [] in
  Array.iter
    (fun v ->
      let i = int_of_float ((v -. lo) /. width) in
      let i = if i < 0 then 0 else if i >= domain_bins then domain_bins - 1 else i in
      freq.(i) <- freq.(i) +. 1.0;
      distinct_seen.(i) <- v :: distinct_seen.(i))
    data;
  (* V-optimal partition of the frequency vector: buckets of the value
     domain inside which frequencies are near-constant. *)
  let h = Sh_histogram.Vopt.build freq ~buckets:(max 1 buckets) in
  let buckets' =
    Array.map
      (fun bk ->
        let count = ref 0.0 and values = ref [] in
        for cell = bk.Sh_histogram.Histogram.lo - 1 to bk.Sh_histogram.Histogram.hi - 1 do
          count := !count +. freq.(cell);
          values := List.rev_append distinct_seen.(cell) !values
        done;
        let sorted = Array.of_list !values in
        Array.sort compare sorted;
        {
          lo_v = lo +. (Float.of_int (bk.Sh_histogram.Histogram.lo - 1) *. width);
          hi_v =
            (if bk.Sh_histogram.Histogram.hi = domain_bins then hi'
             else lo +. (Float.of_int bk.Sh_histogram.Histogram.hi *. width));
          count = !count;
          distinct = Float.max 1.0 (distinct_in_sorted sorted 0 (Array.length sorted - 1));
        })
      h.Sh_histogram.Histogram.buckets
  in
  make ~total:(Float.of_int n) buckets'

(* Value-domain selectivity from a published fixed-window read view: each
   bucket of the view's index histogram contributes its width (tuple
   count) as a mass point at its mean value; sorted and coalesced, the
   mass points become tiling value ranges [v_i, v_{i+1}) under the usual
   uniform-spread reading (the last range is the point [v_max, v_max]).
   A B-bucket sketch of the value distribution, buildable wait-free from
   the query plane while ingest continues. *)
let of_window_view v =
  match Stream_histogram.Fixed_window.View.histogram v with
  | None -> invalid_arg "Value_histogram.of_window_view: empty window view"
  | Some h ->
    let module H = Sh_histogram.Histogram in
    let pts =
      Array.map
        (fun b -> (b.H.value, Float.of_int (b.H.hi - b.H.lo + 1)))
        h.H.buckets
    in
    Array.sort (fun (a, _) (b, _) -> compare a b) pts;
    (* coalesce buckets sharing a mean value *)
    let merged = ref [] in
    Array.iter
      (fun (value, count) ->
        match !merged with
        | (v0, c0) :: rest when v0 = value -> merged := (v0, c0 +. count) :: rest
        | _ -> merged := (value, count) :: !merged)
      pts;
    let pts = Array.of_list (List.rev !merged) in
    let m = Array.length pts in
    let bucket i =
      let value, count = pts.(i) in
      let hi_v = if i = m - 1 then value else fst pts.(i + 1) in
      { lo_v = value; hi_v; count; distinct = 1.0 }
    in
    make ~total:(Float.of_int h.H.n) (Array.init m bucket)

let overlap_fraction b ~lo ~hi =
  (* fraction of bucket [b]'s value extent covered by [lo, hi], uniform
     spread assumption; point-width buckets count fully when touched *)
  let width = b.hi_v -. b.lo_v in
  if width <= 0.0 then if lo <= b.lo_v && b.lo_v <= hi then 1.0 else 0.0
  else begin
    let o_lo = Float.max lo b.lo_v and o_hi = Float.min hi b.hi_v in
    if o_hi <= o_lo then 0.0 else (o_hi -. o_lo) /. width
  end

let selectivity_range t ~lo ~hi =
  M.incr c_range_estimates;
  if hi < lo || t.total <= 0.0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iter (fun b -> acc := !acc +. (b.count *. overlap_fraction b ~lo ~hi)) t.buckets;
    Float.min 1.0 (Float.max 0.0 (!acc /. t.total))
  end

let selectivity_eq t v =
  M.incr c_eq_estimates;
  if t.total <= 0.0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iteri
      (fun i b ->
        let touches =
          (v >= b.lo_v && v < b.hi_v)
          || (i = Array.length t.buckets - 1 && v = b.hi_v)
        in
        if touches then acc := !acc +. (b.count /. b.distinct))
      t.buckets;
    Float.min 1.0 (!acc /. t.total)
  end

let estimate_count t ~lo ~hi = selectivity_range t ~lo ~hi *. t.total

let pp ppf t =
  Format.fprintf ppf "@[<v>value histogram total=%g B=%d" t.total (Array.length t.buckets);
  Array.iter
    (fun b ->
      Format.fprintf ppf "@,  [%g, %g) count=%g distinct=%g" b.lo_v b.hi_v b.count b.distinct)
    t.buckets;
  Format.fprintf ppf "@]"
