module Histogram = Sh_histogram.Histogram
module Vec = Sh_util.Vec

(* One interval of a level-k queue.  The right endpoint [idx] slides
   forward while HERROR[idx, k] stays within (1 + delta) of the value at
   the interval start; the running prefix sums are stored at the endpoint
   so SQERROR between any two endpoints is O(1) — the algorithm never
   retains the stream itself. *)
type entry = {
  mutable idx : int;
  mutable sum : float;    (* SUM[1 .. idx] *)
  mutable sqsum : float;  (* SQSUM[1 .. idx] *)
  mutable herror : float; (* HERROR[idx, k] *)
  a_herror : float;       (* HERROR at the interval's start *)
}

type t = {
  params : Params.t;
  queues : entry Vec.t array; (* queues.(k-1) is the level-k queue, k = 1 .. B-1 *)
  herr : float array;         (* scratch: herr.(k) = HERROR[n, k] of this step *)
  mutable n : int;
  mutable sum : float;
  mutable sqsum : float;
  mutable last_error : float; (* HERROR[n, B] from the latest push *)
}

let create ~buckets ~epsilon =
  let params = Params.make ~buckets ~epsilon in
  let buckets = params.Params.buckets in
  {
    params;
    queues = Array.init (max 0 (buckets - 1)) (fun _ -> Vec.create ());
    herr = Array.make (buckets + 1) 0.0;
    n = 0;
    sum = 0.0;
    sqsum = 0.0;
    last_error = 0.0;
  }

let buckets t = t.params.Params.buckets
let epsilon t = t.params.Params.epsilon
let count t = t.n

(* SQERROR[e.idx + 1 .. idx] from stored prefix sums, clamped against
   floating-point cancellation. *)
let sqerror_from e ~idx ~sum ~sqsum =
  let len = Float.of_int (idx - e.idx) in
  let s = sum -. e.sum in
  let q = sqsum -. e.sqsum in
  Float.max 0.0 (q -. (s *. s /. len))

let push t v =
  if not (Float.is_finite v) then invalid_arg "Agglomerative.push: non-finite value";
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  t.sqsum <- t.sqsum +. (v *. v);
  let b = buckets t in
  let n = t.n in
  (* HERROR[n, 1] = SQERROR[1, n]. *)
  t.herr.(1) <- Float.max 0.0 (t.sqsum -. (t.sum *. t.sum /. Float.of_int n));
  for k = 2 to b do
    if k >= n then t.herr.(k) <- 0.0
    else begin
      (* Minimise over right endpoints of the level-(k-1) queue; all of
         them are <= n-1 since queues were last extended at point n-1.
         Stored herror values are non-decreasing along the queue, so stop
         as soon as one alone reaches the current best. *)
      let q = t.queues.(k - 2) in
      let best = ref infinity in
      let i = ref 0 in
      let len = Vec.length q in
      let continue = ref true in
      while !continue && !i < len do
        let e = Vec.get q !i in
        if e.herror >= !best then continue := false
        else begin
          if e.idx <= n - 1 then begin
            let cand = e.herror +. sqerror_from e ~idx:n ~sum:t.sum ~sqsum:t.sqsum in
            if cand < !best then best := cand
          end;
          incr i
        end
      done;
      t.herr.(k) <- (if !best = infinity then 0.0 else !best)
    end
  done;
  (* Lines 7-10 of Figure 3: extend the last interval of each queue, or
     start a new one when the error has grown past the (1 + delta) slack. *)
  let delta = t.params.Params.delta in
  for k = 1 to b - 1 do
    let q = t.queues.(k - 1) in
    let fresh () =
      Vec.push q
        {
          idx = n;
          sum = t.sum;
          sqsum = t.sqsum;
          herror = t.herr.(k);
          a_herror = t.herr.(k);
        }
    in
    if Vec.is_empty q then fresh ()
    else begin
      let last = Vec.last q in
      if t.herr.(k) > (1.0 +. delta) *. last.a_herror then fresh ()
      else begin
        last.idx <- n;
        last.sum <- t.sum;
        last.sqsum <- t.sqsum;
        last.herror <- t.herr.(k)
      end
    end
  done;
  t.last_error <- t.herr.(b)

let current_error t = t.last_error

(* Reconstruction walks the queues top-down.  At each level we split off
   the last bucket at the best stored endpoint strictly before the current
   position; if the level-(k-1) queue has no such endpoint (the prefix is
   still inside its first, zero-error interval) we cascade to lower-level
   queues, whose intervals are finer early in the stream. *)
let current_histogram t =
  if t.n = 0 then invalid_arg "Agglomerative.current_histogram: empty stream";
  let bucket_between e_lo ~idx ~sum =
    let lo = e_lo.idx + 1 in
    let len = Float.of_int (idx - e_lo.idx) in
    { Histogram.lo; hi = idx; value = (sum -. e_lo.sum) /. len }
  in
  let origin = { idx = 0; sum = 0.0; sqsum = 0.0; herror = 0.0; a_herror = 0.0 } in
  let rec recon ~idx ~sum ~sqsum ~k acc =
    if idx <= 0 then acc
    else if k <= 1 then bucket_between origin ~idx ~sum :: acc
    else begin
      (* Deepest available level first is k-1; cascade down when it has no
         endpoint before [idx]. *)
      let rec pick level =
        if level < 1 then None
        else begin
          let q = t.queues.(level - 1) in
          let best = ref infinity and best_e = ref None in
          Vec.iter
            (fun e ->
              if e.idx < idx then begin
                let cand = e.herror +. sqerror_from e ~idx ~sum ~sqsum in
                if cand < !best then begin
                  best := cand;
                  best_e := Some e
                end
              end)
            q;
          match !best_e with
          | Some e -> Some (level, e)
          | None -> pick (level - 1)
        end
      in
      match pick (k - 1) with
      | None -> bucket_between origin ~idx ~sum :: acc
      | Some (level, e) ->
        recon ~idx:e.idx ~sum:e.sum ~sqsum:e.sqsum ~k:level
          (bucket_between e ~idx ~sum :: acc)
    end
  in
  let bs = recon ~idx:t.n ~sum:t.sum ~sqsum:t.sqsum ~k:(buckets t) [] in
  Histogram.make ~n:t.n (Array.of_list bs)

let space_in_entries t = Array.fold_left (fun acc q -> acc + Vec.length q) 0 t.queues
let interval_counts t = Array.map Vec.length t.queues
