module Histogram = Sh_histogram.Histogram
module Vec = Sh_util.Vec
module Obs = Sh_obs.Obs
module M = Sh_obs.Metric

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
  a_idx : int;
  a_herror : float;
}

type work_counters = {
  pushes : int;
  candidate_evaluations : int;
  intervals_built : int;
  intervals_extended : int;
}

type t = {
  params : Params.t;
  horizon : int;              (* nominal window for Summary_intf parity;
                                 max_int = the whole stream (the GKS01
                                 algorithm is inherently unbounded) *)
  queues : entry Vec.t array; (* queues.(k-1) is the level-k queue, k = 1 .. B-1 *)
  herr : float array;         (* scratch: herr.(k) = HERROR[n, k] of this step *)
  mutable n : int;
  mutable sum : float;
  mutable sqsum : float;
  mutable last_error : float; (* HERROR[n, B] from the latest push *)
  c_pushes : M.counter;
  c_cand : M.counter;
  c_built : M.counter;
  c_extended : M.counter;
}

let mk ~params ~horizon =
  if horizon < 1 then invalid_arg "Agglomerative.create: window must be >= 1";
  let buckets = params.Params.buckets in
  let labels = [ ("instance", Obs.instance "ag") ] in
  let c name = Obs.counter ~labels name in
  {
    params;
    horizon;
    queues = Array.init (max 0 (buckets - 1)) (fun _ -> Vec.create ());
    herr = Array.make (buckets + 1) 0.0;
    n = 0;
    sum = 0.0;
    sqsum = 0.0;
    last_error = 0.0;
    c_pushes = c "ag.pushes";
    c_cand = c "ag.candidate_evals";
    c_built = c "ag.intervals_built";
    c_extended = c "ag.intervals_extended";
  }

let create_with_delta ~buckets ~epsilon ~delta =
  mk ~params:(Params.make_with_delta ~buckets ~epsilon ~delta) ~horizon:max_int

let create ~buckets ~epsilon =
  create_with_delta ~buckets ~epsilon ~delta:(epsilon /. (2.0 *. Float.of_int buckets))

let create_windowed ~window ~buckets ~epsilon =
  mk
    ~params:
      (Params.make_with_delta ~buckets ~epsilon
         ~delta:(epsilon /. (2.0 *. Float.of_int buckets)))
    ~horizon:window

let buckets t = t.params.Params.buckets
let epsilon t = t.params.Params.epsilon
let window t = t.horizon
let count t = t.n
let length t = t.n

(* SQERROR[e.idx + 1 .. idx] from stored prefix sums, clamped against
   floating-point cancellation. *)
let sqerror_from e ~idx ~sum ~sqsum =
  let len = Float.of_int (idx - e.idx) in
  let s = sum -. e.sum in
  let q = sqsum -. e.sqsum in
  Float.max 0.0 (q -. (s *. s /. len))

let push t v =
  if not (Float.is_finite v) then invalid_arg "Agglomerative.push: non-finite value";
  M.incr t.c_pushes;
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
        M.incr t.c_cand;
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
      M.incr t.c_built;
      Vec.push q
        {
          idx = n;
          sum = t.sum;
          sqsum = t.sqsum;
          herror = t.herr.(k);
          a_idx = n;
          a_herror = t.herr.(k);
        }
    in
    if Vec.is_empty q then fresh ()
    else begin
      let last = Vec.last q in
      if t.herr.(k) > (1.0 +. delta) *. last.a_herror then fresh ()
      else begin
        M.incr t.c_extended;
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
  Obs.with_span "ag.histogram" @@ fun () ->
  let bucket_between e_lo ~idx ~sum =
    let lo = e_lo.idx + 1 in
    let len = Float.of_int (idx - e_lo.idx) in
    { Histogram.lo; hi = idx; value = (sum -. e_lo.sum) /. len }
  in
  let origin = { idx = 0; sum = 0.0; sqsum = 0.0; herror = 0.0; a_idx = 0; a_herror = 0.0 } in
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

let work_counters t =
  {
    pushes = M.value t.c_pushes;
    candidate_evaluations = M.value t.c_cand;
    intervals_built = M.value t.c_built;
    intervals_extended = M.value t.c_extended;
  }

(* --- persistence ---------------------------------------------------- *)

module Codec = Sh_persist.Codec

let name = "agglomerative"
let summary_tag = Char.code 'A'

let encode buf t =
  Codec.put_u8 buf summary_tag;
  Codec.put_varint buf (buckets t);
  Codec.put_float buf (epsilon t);
  Codec.put_float buf t.params.Params.delta;
  Codec.put_varint buf t.horizon;
  Codec.put_varint buf t.n;
  Codec.put_float buf t.sum;
  Codec.put_float buf t.sqsum;
  Codec.put_float buf t.last_error;
  (* [herr] is per-push scratch, fully rewritten by the next push; the
     queues are the real small-space state (Figure 3). *)
  Array.iter
    (fun q ->
       Codec.put_varint buf (Vec.length q);
       Vec.iter
         (fun e ->
            Codec.put_varint buf e.idx;
            Codec.put_float buf e.sum;
            Codec.put_float buf e.sqsum;
            Codec.put_float buf e.herror;
            Codec.put_varint buf e.a_idx;
            Codec.put_float buf e.a_herror)
         q)
    t.queues

let get_finite r what =
  let v = Codec.get_float r in
  if not (Float.is_finite v) then
    Codec.corruptf "Agglomerative.decode: non-finite %s" what;
  v

let decode r =
  let tag = Codec.get_u8 r in
  if tag <> summary_tag then
    Codec.corruptf "Agglomerative.decode: tag %d is not an agglomerative payload"
      tag;
  let buckets = Codec.get_varint r in
  let epsilon = Codec.get_float r in
  let delta = Codec.get_float r in
  let horizon = Codec.get_varint r in
  let n = Codec.get_varint r in
  let sum = get_finite r "running sum" in
  let sqsum = get_finite r "running sqsum" in
  let last_error = get_finite r "last error" in
  let t =
    try mk ~params:(Params.make_with_delta ~buckets ~epsilon ~delta) ~horizon
    with Invalid_argument m -> Codec.corruptf "Agglomerative.decode: %s" m
  in
  t.n <- n;
  t.sum <- sum;
  t.sqsum <- sqsum;
  t.last_error <- last_error;
  Array.iter
    (fun q ->
       let len = Codec.get_varint r in
       let prev_idx = ref 0 in
       for _ = 1 to len do
         let idx = Codec.get_varint r in
         let sum = get_finite r "entry sum" in
         let sqsum = get_finite r "entry sqsum" in
         let herror = get_finite r "entry herror" in
         let a_idx = Codec.get_varint r in
         let a_herror = get_finite r "entry a_herror" in
         if idx <= !prev_idx || idx > n then
           Codec.corruptf
             "Agglomerative.decode: entry idx %d out of order (prev %d, n %d)"
             idx !prev_idx n;
         if a_idx < 1 || a_idx > idx then
           Codec.corruptf "Agglomerative.decode: entry a_idx %d outside [1, %d]"
             a_idx idx;
         prev_idx := idx;
         Vec.push q { idx; sum; sqsum; herror; a_idx; a_herror }
       done)
    t.queues;
  t

(* Strict Summary_intf.S conformance for the whole-stream maintainer: the
   primary API keeps its historical no-window [create] (and [count]); this
   view is what generic durability and test code programs against. *)
module Summary = struct
  type nonrec t = t

  let name = name
  let create = create_windowed
  let window = window
  let buckets = buckets
  let epsilon = epsilon
  let length = length
  let push = push
  let current_error = current_error
  let current_histogram = current_histogram
  let encode = encode
  let decode = decode
end
