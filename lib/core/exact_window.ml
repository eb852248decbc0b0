module RB = Sh_window.Ring_buffer
module P = Sh_prefix.Prefix_sums

type t = {
  ring : RB.t;
  buckets : int;
  scratch : float array;
  (* Query scratch, reused across calls: the prefix-sum pair is refilled
     in place once the window length stabilises, and the O(n^2 B) DP runs
     inside one owned workspace — per-query allocation is just the result
     histogram.  [prefix_cache] is keyed by window length because a
     Prefix_sums.t has a fixed length; while the window is still filling
     each new length allocates one last time. *)
  vopt : Sh_histogram.Vopt.scratch;
  mutable prefix_cache : P.t option;
}

let create ~window ~buckets =
  if buckets < 1 then invalid_arg "Exact_window.create: buckets must be >= 1";
  let ring = RB.create ~capacity:window in
  {
    ring;
    buckets;
    scratch = Array.make (RB.capacity ring) 0.0;
    vopt = Sh_histogram.Vopt.scratch ();
    prefix_cache = None;
  }

let window t = RB.capacity t.ring
let buckets t = t.buckets
let length t = RB.length t.ring

let push t v =
  if not (Float.is_finite v) then invalid_arg "Exact_window.push: non-finite value";
  RB.push t.ring v

(* The exact baseline recomputes prefix sums of the whole window per
   query — the O(n) cost the streaming algorithm avoids. *)
let prefix t =
  let n = RB.length t.ring in
  if n = 0 then invalid_arg "Exact_window.current_histogram: empty window";
  RB.blit_to t.ring t.scratch;
  match t.prefix_cache with
  | Some p when P.length p = n ->
    P.refill_sub p t.scratch ~pos:0 ~len:n;
    p
  | _ ->
    let p = P.of_sub t.scratch ~pos:0 ~len:n in
    t.prefix_cache <- Some p;
    p

let current_histogram t =
  Sh_histogram.Vopt.build_prefix_with t.vopt (prefix t) ~buckets:t.buckets

let current_error t =
  Sh_histogram.Vopt.optimal_error_with t.vopt (prefix t) ~buckets:t.buckets

let sse t h = Sh_histogram.Histogram.sse_against h (prefix t)
