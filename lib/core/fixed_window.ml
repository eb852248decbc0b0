module Sliding_prefix = Sh_prefix.Sliding_prefix
module Histogram = Sh_histogram.Histogram
module Obs = Sh_obs.Obs
module M = Sh_obs.Metric

(* The level-k list covers [1 .. n] with intervals [a .. b] inside which
   the (non-decreasing) function HERROR[., k] varies by at most a
   (1 + delta) factor, and candidates are evaluated at right endpoints
   only (Section 4.2.1).  The intervals are contiguous — a_0 = 1 and
   a_r = b_(r-1) + 1 — so a list stores two columns: the right endpoints
   and HERROR[b, k] at each.  Rows live in flat int/float arrays, so a
   refresh that clears and refills every list allocates nothing once the
   arrays of the sets it recycles (see [list_set]) reach steady
   capacity. *)
type level = {
  mutable b : int array;    (* right endpoints, rows [0, len) *)
  mutable hb : float array; (* HERROR[b, k] at each *)
  mutable len : int;
}

let new_level () = { b = [||]; hb = [||]; len = 0 }

(* Left end of row [r]: the lists cover [1 .. n] contiguously. *)
let[@inline] row_start b r = if r = 0 then 1 else Array.unsafe_get b (r - 1) + 1

(* Backing-array growths of every level list in the process: steady-state
   sliding reuses the arrays, which the regression tests pin. *)
let growths = Atomic.make 0
let list_growths () = Atomic.get growths

let grown a ~len ~fill =
  let g = Array.make (max 8 (2 * Array.length a)) fill in
  Array.blit a 0 g 0 len;
  Atomic.incr growths;
  g

(* Append a row to [q], growing either column when full, and return its
   index; the caller writes both columns (a float argument would be boxed
   at every call). *)
let add_row q =
  let r = q.len in
  if r = Array.length q.b then q.b <- grown q.b ~len:r ~fill:0;
  if r = Array.length q.hb then q.hb <- grown q.hb ~len:r ~fill:0.0;
  q.len <- r + 1;
  r

type work_counters = {
  herror_evaluations : int;
  cold_evaluations : int;
  warm_evaluations : int;
  intervals_built : int;
  refreshes : int;
  cold_refreshes : int;
  warm_refreshes : int;
  search_steps : int;
  scan_steps : int;
  scan_candidates : int;
  hint_hits : int;
  hint_misses : int;
  memo_probes : int;
  memo_hits : int;
}

(* --- the HERROR kernel ------------------------------------------------- *)

(* The paper's evaluation kernel, defined once: [scan] (the candidate
   scan), [eval] (HERROR[x, k]) and [histogram] (the boundary recursion).
   Each reads a sliding prefix and the level lists it is handed — the live
   summary passes its current set, a published {!View.t} its ring copy and
   the set it was lent — and writes its results into a [scratch].  The kernel touches no telemetry:
   it tallies its work (evaluations, scan steps and candidates, memo
   probes and hits) in the scratch's int fields, and the live summary adds
   the tallies to its counters once per entry point ([flush]).
   Under the dev profile's -opaque every counter add is a real
   cross-module call, too dear to pay per evaluation. *)

(* Slots of the scratch float column: unboxed out-params for the hot
   internal calls, which would otherwise box a float (or a tuple) per
   return.  Mixed records box float fields on every store, so the floats
   live in a flat float array instead. *)
let fs_eval = 0 (* eval result                          *)
let fs_scan = 1 (* scan best candidate value            *)
let fs_bnd = 2 (* find_boundary herror at the boundary *)
let fs_hstart = 3 (* find_boundary in-param: HERROR at the interval start *)
let fs_thresh = 4 (* find_boundary in-param: (1 + delta) * h_start        *)
let fs_len = 5

type scratch = {
  fs : float array;        (* fs_* slots *)
  mutable best_i : int;    (* scan argmin out-param *)
  mutable best_row : int;  (* list row of that argmin; -1 when the proxy won *)
  (* Scan seeds: [seeds.(k)] is the row that won the last seeded scan at
     level k (-1: none yet).  [eval] seeds its scans while [seeding] holds;
     a scratch made with [~levels:0] never seeds. *)
  seeds : int array;
  mutable seeding : bool;
  (* Work tallies not yet flushed to the counters.  The kernel writes the
     first five; the live boundary search and CreateList the rest. *)
  mutable evals : int;  (* eval calls and histogram argmin scans *)
  mutable steps : int;  (* scan binary-search steps *)
  mutable cands : int;  (* scan candidates evaluated *)
  mutable probes : int; (* memo probes *)
  mutable hits : int;   (* memo probes answered from the table *)
  mutable search : int; (* boundary-search probe steps *)
  mutable hint_hits : int;
  mutable hint_misses : int;
  mutable built : int;  (* interval-list rows added *)
}

let new_scratch ~levels =
  {
    fs = Array.make fs_len 0.0;
    best_i = 0;
    best_row = -1;
    seeds = Array.make levels (-1);
    seeding = levels > 0;
    evals = 0;
    steps = 0;
    cands = 0;
    probes = 0;
    hits = 0;
    search = 0;
    hint_hits = 0;
    hint_misses = 0;
    built = 0;
  }

(* The slot of window index [i] in a prefix ring whose index 0 sits at
   [base] (see Sliding_prefix.ring_base). *)
let[@inline] ring_slot sum ~base i =
  let s = base + i in
  if s < 0 then s + Array.length sum else s

(* SQERROR(b+1, x) straight off the prefix ring: [sum]/[sqsum] are the
   ring arrays, [base] the unwrapped slot of window index 0, and [sx]/[qx]
   the cumulative values at x, read once per scan.  The slot wrap and the
   float operations are exactly those of [Sliding_prefix.sqerror], in the
   same order, so the value is bit-identical to it.  Going through that
   function instead costs a real call per candidate: the dev profile's
   -opaque keeps it from inlining across modules, so it cannot return an
   unboxed float (DESIGN.md section 10).  This helper is inlined at each
   use and allocates nothing.  Requires 0 <= b < x <= length, which keeps
   the slot inside the ring (Sliding_prefix.slot's invariant), so the two
   reads skip their bounds checks: about 8% of a first refresh. *)
let[@inline] sqerror_to_x sum sqsum ~base ~sx ~qx ~x b =
  let s = ring_slot sum ~base b in
  let ds = sx -. Array.unsafe_get sum s in
  let dq = qx -. Array.unsafe_get sqsum s in
  let d = dq -. (ds *. ds /. Float.of_int (x - b)) in
  (* branch instead of Float.max, as in Sliding_prefix.sqerror *)
  if d > 0.0 then d else 0.0

(* Candidate scan: the approximate HERROR[x, k] read off the level-(k-1)
   list [lists.(k-2)], with the split position achieving it.  Requires
   k >= 2 and k < x.  Writes the best value to [fs.(fs_scan)], its split
   position to [best_i] and its row to [best_row] (out-params: a tuple
   return would box the float on every evaluation).

   Candidates are the objective evaluated at list endpoints b < x, plus —
   when the interval covering x-1 extends to or past x — that interval's
   endpoint herror standing in for the "split at x-1" candidate
   (monotonicity makes it an upper bound on HERROR[x-1, k-1], and the
   interval invariant keeps it within (1 + delta) of it).

   Both ends of the scan are pruned by binary search instead of walking the
   list from entry 0: the covering entry is located directly on the sorted
   right-endpoint column, and — seeding the running best with its proxy
   candidate — entries whose SQERROR term alone already reaches that bound
   are skipped (SQERROR(b+1, x) only shrinks along the list, so they form
   a prefix).

   [seed] (-1: none) names a row to evaluate before that search — the
   caller's guess at the argmin, typically the winner of the previous scan
   at this level.  Any row below the covering entry is a genuine candidate,
   so a stale seed costs one evaluation and changes nothing but how early
   [best] tightens: the minimum is taken over the same candidate set, and
   only which of several tied candidates wins can differ.  A seed whose
   SQERROR term alone is below [best] also bounds the prefix search, which
   cannot end past it.  Steps of both binary searches accumulate in
   [steps], evaluated candidates in [cands]. *)
let scan sp lists s ~k ~x ~seed =
  let q = lists.(k - 2) in
  let len = q.len and b_idx = q.b and b_her = q.hb in
  let fs = s.fs in
  let steps = ref 0 in
  (* covering entry: first row with b >= x *)
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr steps;
    if Array.unsafe_get b_idx mid >= x then hi := mid else lo := mid + 1
  done;
  let cover = !lo in
  let best = ref infinity in
  let best_i = ref (x - 1) and best_row = ref (-1) in
  if cover < len && row_start b_idx cover <= x - 1 then best := Array.unsafe_get b_her cover;
  (* The x end of every candidate's SQERROR, hoisted out of both loops. *)
  let sum = Sliding_prefix.ring_sum sp and sqsum = Sliding_prefix.ring_sqsum sp in
  let base = Sliding_prefix.ring_base sp in
  let xs = ring_slot sum ~base x in
  let sx = sum.(xs) and qx = sqsum.(xs) in
  let cands = ref 0 in
  let seed = if seed < cover then seed else -1 in
  (* prefix-search bracket end: the first row whose SQERROR term is below
     [best] lies in [0, first_hi] *)
  let first_hi = ref cover in
  if seed >= 0 then begin
    let b = Array.unsafe_get b_idx seed in
    let sq = sqerror_to_x sum sqsum ~base ~sx ~qx ~x b in
    let cand = Array.unsafe_get b_her seed +. sq in
    incr cands;
    if cand < !best then begin
      best := cand;
      best_i := b;
      best_row := seed
    end;
    if sq < !best then first_hi := seed
  end;
  let first =
    if cover = 0 || !best = infinity then 0
    else begin
      let lo = ref 0 and hi = ref !first_hi in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        incr steps;
        if sqerror_to_x sum sqsum ~base ~sx ~qx ~x (Array.unsafe_get b_idx mid) < !best then
          hi := mid
        else lo := mid + 1
      done;
      !lo
    end
  in
  let i = ref first in
  let continue = ref true in
  while !continue && !i < cover do
    let bh = Array.unsafe_get b_her !i in
    (* Early exit: stored herror values are non-decreasing along the list,
       so once one alone reaches the current best, no later candidate
       (herror + non-negative SQERROR) can improve it. *)
    if bh >= !best then continue := false
    else begin
      if !i <> seed (* already evaluated *) then begin
        let b = Array.unsafe_get b_idx !i in
        let cand = bh +. sqerror_to_x sum sqsum ~base ~sx ~qx ~x b in
        incr cands;
        if cand < !best then begin
          best := cand;
          best_i := b;
          best_row := !i
        end
      end;
      incr i
    end
  done;
  s.steps <- s.steps + !steps;
  s.cands <- s.cands + !cands;
  fs.(fs_scan) <- !best;
  s.best_i <- !best_i;
  s.best_row <- !best_row

(* The scan [eval] runs: seeded from, and recording, the scratch's last
   winner at level k while [seeding] holds.  A proxy win keeps the old
   seed, which still names a recent genuine winner. *)
let seeded_scan sp lists s ~k ~x =
  if s.seeding then begin
    scan sp lists s ~k ~x ~seed:(Array.unsafe_get s.seeds k);
    if s.best_row >= 0 then Array.unsafe_set s.seeds k s.best_row
  end
  else scan sp lists s ~k ~x ~seed:(-1)

(* A direct-indexed HERROR memo: [vals.(x * stride + k)] holds
   HERROR[x, k] (stride = buckets + 1) while [marks] at the same index
   equals [gen].  Bumping [gen] forgets every entry in O(1).  Who owns the
   table, and so when it is bumped and how large it is, is the arena's
   business (below); the kernel trusts the index to be in bounds. *)
type memo = {
  mutable vals : float array;
  mutable marks : int array;
  mutable gen : int;
  mutable owner : int; (* stamp the entries belong to; 0: none *)
}

(* Approximate HERROR[x, k], written to [fs.(fs_eval)].  With a memo
   table, the scan is paid at most once per (k, x) for as long as the
   table's generation lasts: the memo caches the final value.  Every call
   counts one [evals]; a memo lookup counts one [probes], and one [hits]
   when it skips the scan. *)
let eval sp lists s memo ~stride ~k ~x =
  let fs = s.fs in
  s.evals <- s.evals + 1;
  if x <= 0 then fs.(fs_eval) <- 0.0
  else if k >= x then fs.(fs_eval) <- 0.0 (* x points in >= x buckets: zero error *)
  else if k = 1 then begin
    let sum = Sliding_prefix.ring_sum sp and sqsum = Sliding_prefix.ring_sqsum sp in
    let base = Sliding_prefix.ring_base sp in
    let xs = ring_slot sum ~base x in
    fs.(fs_eval) <- sqerror_to_x sum sqsum ~base ~sx:sum.(xs) ~qx:sqsum.(xs) ~x 0
  end
  else
    match memo with
    | None ->
      seeded_scan sp lists s ~k ~x;
      let best = fs.(fs_scan) in
      fs.(fs_eval) <- (if best = infinity then 0.0 else best)
    | Some m ->
      let i = (x * stride) + k in
      s.probes <- s.probes + 1;
      if Array.unsafe_get m.marks i = m.gen then begin
        s.hits <- s.hits + 1;
        fs.(fs_eval) <- Array.unsafe_get m.vals i
      end
      else begin
        seeded_scan sp lists s ~k ~x;
        let best = fs.(fs_scan) in
        let v = if best = infinity then 0.0 else best in
        Array.unsafe_set m.vals i v;
        Array.unsafe_set m.marks i m.gen;
        fs.(fs_eval) <- v
      end

(* The B-bucket histogram of a non-empty window, written into rows
   [0, count) of [ends] (right ends) and [means] (bucket means), which
   need room for [b] rows; returns [count].  Right ends are recovered
   top-down — split off the last bucket at each level with the scan's
   argmin, then go on with the remaining prefix and one fewer bucket.
   Once one bucket is left it takes the whole prefix; once the prefix has
   no more points than buckets, its points become singleton buckets at
   zero error.  Every argmin scan counts one [evals].  Bucket values are
   exact range means.  Allocates nothing. *)
let histogram sp lists s ~b ~ends ~means =
  let n = Sliding_prefix.length sp in
  (* Right endpoints, last bucket first, filled from the back of [0, b):
     each step uses one slot and one bucket, so the singletons fit in the
     rest. *)
  let first = ref b in
  let x = ref n and k = ref b in
  while !x > 0 do
    if !k <= 1 || !x <= !k then begin
      let last = if !k <= 1 then 1 else !x in
      for i = 0 to last - 1 do
        decr first;
        ends.(!first) <- !x - i
      done;
      x := 0
    end
    else begin
      scan sp lists s ~k:!k ~x:!x ~seed:(-1);
      s.evals <- s.evals + 1;
      decr first;
      ends.(!first) <- !x;
      x := s.best_i;
      decr k
    end
  done;
  let count = b - !first in
  Array.blit ends !first ends 0 count;
  (* Sliding_prefix.range_mean's operations in its order, off the ring as
     in [sqerror_to_x]: the same bits without a boxed float per bucket. *)
  let sum = Sliding_prefix.ring_sum sp and base = Sliding_prefix.ring_base sp in
  for i = 0 to count - 1 do
    let lo = row_start ends i and hi = ends.(i) in
    means.(i) <-
      (sum.(ring_slot sum ~base hi) -. sum.(ring_slot sum ~base (lo - 1)))
      /. Float.of_int (hi - lo + 1)
  done;
  count

(* The level-k list as (a, HERROR[a, k], b, HERROR[b, k]) rows.  Left
   ends are derived and HERROR[a, k] is not stored, so each row's is
   evaluated again against the same lists: the value the rebuild computed,
   bit for bit, since a scan's minimum does not depend on its seed. *)
let interval_rows sp lists s memo ~stride ~k =
  let q = lists.(k - 1) in
  Array.init q.len (fun r ->
      let a = row_start q.b r in
      eval sp lists s memo ~stride ~k ~x:a;
      (a, s.fs.(fs_eval), q.b.(r), q.hb.(r)))

(* --- the per-domain memo arena ----------------------------------------- *)

(* The HERROR memo caches [eval] results at (k, x) for one refresh
   generation of one summary: a deterministic function of that summary's
   window and lists, so a hit can never change an answer.  It is only
   needed while an entry point runs, and a domain runs one at a time, so
   there is one table per domain rather than one per summary.  A summary
   claims its domain's table under its owner stamp, taken fresh at every
   rebuild from one process-wide counter (a stamp names one summary at one
   generation on every domain); a claim under a different stamp than the
   table's owner bumps its generation, clearing it in O(1).  The table is
   sized (window + 1) * (buckets + 1) for the largest geometry claimed on
   its domain, grown at claim time.  A rebuild runs wholly on the domain
   that started it, so the claim holds for all of its evaluations.  The
   key holds [Some table], built once: wrapping it per claim would
   allocate. *)
let arena_key =
  Domain.DLS.new_key (fun () -> Some { vals = [||]; marks = [||]; gen = 0; owner = 0 })

let memo_arena_words () = Obj.reachable_words (Obj.repr (Domain.DLS.get arena_key))

let stamps = Atomic.make 0
let fresh_stamp () = 1 + Atomic.fetch_and_add stamps 1

(* --- list sets and the per-domain set pool ------------------------------- *)

(* A summary's interval lists, one level per k = 1 .. B-1, as one set that
   the summary and the views it publishes share.  A set is written only
   while it is a refresh's build target, and a target is reachable from no
   view: a refresh builds into a set taken from its domain's pool (or a
   fresh one), then swaps it in as the summary's current set.  [holders]
   counts who holds the set — the summary while it is current, plus every
   view it is lent to — and whoever lets go last (a refresh swapping it
   out, or a view being refilled) puts it in its own domain's pool.  So a
   set comes back for rewriting only once no summary and no view can read
   it, whichever order they let go in. *)
type list_set = {
  levels : level array;
  holders : int Atomic.t;
}

(* A fresh view's set before its first fill, and the pool's empty slots:
   never released, never built into. *)
let unlent = { levels = [||]; holders = Atomic.make 1 }

(* The pool: up to [pool_cap] released sets, most recent last.  Sets of
   any geometry share it; a refresh takes the most recent one with its
   level count, and a release into a full pool drops the oldest, so a
   geometry no longer refreshed on the domain ages out. *)
type set_pool = { sets : list_set array; mutable count : int }

let pool_cap = 4
let pool_key = Domain.DLS.new_key (fun () -> { sets = Array.make pool_cap unlent; count = 0 })
let pool_words () = Obj.reachable_words (Obj.repr (Domain.DLS.get pool_key))

(* Build targets allocated because no pooled set fitted, process-wide. *)
let set_allocs = Atomic.make 0
let target_allocations () = Atomic.get set_allocs

let new_set levels = { levels = Array.init levels (fun _ -> new_level ()); holders = Atomic.make 1 }

(* A build target with [levels] levels, held once (by the refresh that is
   about to make it current). *)
let acquire ~levels =
  let p = Domain.DLS.get pool_key in
  let i = ref (p.count - 1) in
  while !i >= 0 && Array.length p.sets.(!i).levels <> levels do
    decr i
  done;
  if !i < 0 then begin
    Atomic.incr set_allocs;
    new_set levels
  end
  else begin
    let s = p.sets.(!i) in
    Array.blit p.sets (!i + 1) p.sets !i (p.count - 1 - !i);
    p.count <- p.count - 1;
    p.sets.(p.count) <- unlent;
    Atomic.set s.holders 1;
    s
  end

(* Let go of [s]; the last holder to let go pools it. *)
let release s =
  if Atomic.fetch_and_add s.holders (-1) = 1 then begin
    let p = Domain.DLS.get pool_key in
    if p.count = pool_cap then begin
      Array.blit p.sets 1 p.sets 0 (pool_cap - 1);
      p.count <- pool_cap - 1
    end;
    p.sets.(p.count) <- s;
    p.count <- p.count + 1
  end

type t = {
  params : Params.t;
  sp : Sliding_prefix.t;
  (* [set.levels.(k-1)] holds the level-k list for the window as of the
     last refresh (see [list_set]): read-only from the moment a refresh
     swaps it in.  Warm rebuilds seed their boundary searches from its
     right endpoints while they build the next set. *)
  mutable set : list_set;
  (* HERROR memo (see [arena_key]): gallop/bisect searches never re-pay
     for a position another search of the same rebuild (or a query against
     the same window) already evaluated. *)
  memo_stride : int; (* index = x * memo_stride + k, stride = buckets + 1 *)
  mutable memo_on : bool; (* master switch (set_memoisation) *)
  mutable stamp : int;    (* owner stamp of the current generation *)
  mutable claimed : memo option; (* the domain's table while an entry
                                    point that evaluates runs, else None *)
  scr : scratch; (* kernel out-params and unflushed work tallies *)
  mutable bnd_c : int;       (* find_boundary boundary out-param  *)
  mutable gen : int;  (* refresh generation: bumped once per rebuild, the
                         epoch stamp of the published read views *)
  mutable seen : int; (* points pushed since creation (monotone watermark;
                         restored snapshots restart at the window length) *)
  mutable dirty : bool;
  mutable policy : Params.refresh_policy;
  mutable slide : int; (* evictions since the last refresh: how far the
                          previous boundaries have shifted *)
  mutable pushes_since_refresh : int;
  work : int array; (* this summary's work totals, by w_* slot *)
}

(* Work accounting.  Slot i of a summary's [work] (which [work_counters]
   reads) and family i of [families] (every summary's work summed across
   the process) count the same thing; [add] moves one delta into both
   (see Sh_obs.Obs on the overhead model). *)
let w_evals = 0
let w_cold_evals = 1
let w_warm_evals = 2
let w_built = 3
let w_refreshes = 4
let w_cold_refreshes = 5
let w_warm_refreshes = 6
let w_steps = 7
let w_scan_steps = 8
let w_scan_cands = 9
let w_hits = 10
let w_misses = 11
let w_memo_probes = 12
let w_memo_hits = 13

let families =
  Array.map M.counter
    [| "fw.herror_evals"; "fw.cold_evals"; "fw.warm_evals"; "fw.intervals_built";
       "fw.refreshes"; "fw.cold_refreshes"; "fw.warm_refreshes"; "fw.search_steps";
       "fw.scan_steps"; "fw.scan_candidates"; "fw.hint_hits"; "fw.hint_misses";
       "fw.memo_probes"; "fw.memo_hits" |]

(* Every summary is built by [mk], which exposes the families. *)
let exposed = Array.to_list (Array.map (fun c -> Obs.Counter c) families)

let add t slot n =
  if n > 0 then begin
    t.work.(slot) <- t.work.(slot) + n;
    M.add families.(slot) n
  end

(* Shared constructor: everything but [params] and the prefix-sum state is
   derived or starts empty, which is also why [decode] below can rebuild a
   full summary from just those two (plus a refresh). *)
let mk ~params ~sp =
  Obs.expose exposed;
  let buckets = params.Params.buckets in
  {
    params;
    sp;
    set = new_set (max 1 (buckets - 1));
    memo_stride = buckets + 1;
    memo_on = true;
    stamp = fresh_stamp ();
    claimed = None;
    scr = new_scratch ~levels:(buckets + 1);
    bnd_c = 0;
    gen = 0;
    seen = 0;
    dirty = true;
    policy = Params.Lazy;
    slide = 0;
    pushes_since_refresh = 0;
    work = Array.make (Array.length families) 0;
  }

let of_params ~window params =
  if window < 1 then invalid_arg "Fixed_window.create: window must be >= 1";
  mk ~params ~sp:(Sliding_prefix.create ~capacity:window)

let create_with_delta ~window ~buckets ~epsilon ~delta =
  of_params ~window (Params.make_with_delta ~buckets ~epsilon ~delta)

let create ~window ~buckets ~epsilon = of_params ~window (Params.make ~buckets ~epsilon)

let window t = Sliding_prefix.capacity t.sp
let buckets t = t.params.Params.buckets
let epsilon t = t.params.Params.epsilon
let length t = Sliding_prefix.length t.sp
let generation t = t.gen
let points_seen t = t.seen
let refresh_policy t = t.policy
let pending_pushes t = t.pushes_since_refresh
let slide_since_refresh t = t.slide
let needs_refresh t = t.dirty
let memoisation t = t.memo_on

let set_memoisation t on = t.memo_on <- on

let set_refresh_policy t policy = t.policy <- Params.validate_policy policy

(* Add the scratch's work tallies to the summary's totals and to the
   fw.* families, and zero them.  Every entry point that evaluates ends
   with it, so between calls work_counters and a scrape read every
   count.  Boundary-search probes and scan steps both land in
   fw.search_steps (the legacy total), scan steps also in
   fw.scan_steps, so rebuild-probe work and scan-internal work can be told
   apart (see work_counters).  fw.herror_evals counts logical evaluations
   requested, memo hits included; fw.memo_probes / fw.memo_hits record the
   dedup separately. *)
let flush t =
  let s = t.scr in
  add t w_evals s.evals;
  add t w_steps (s.search + s.steps);
  add t w_scan_steps s.steps;
  add t w_scan_cands s.cands;
  add t w_memo_probes s.probes;
  add t w_memo_hits s.hits;
  add t w_hits s.hint_hits;
  add t w_misses s.hint_misses;
  add t w_built s.built;
  s.evals <- 0;
  s.steps <- 0;
  s.cands <- 0;
  s.probes <- 0;
  s.hits <- 0;
  s.search <- 0;
  s.hint_hits <- 0;
  s.hint_misses <- 0;
  s.built <- 0

(* Approximate HERROR[x, k] for the current window, written to
   [t.scr.fs.(fs_eval)]. *)
let eval_herror_into t ~k ~x = eval t.sp t.set.levels t.scr t.claimed ~stride:t.memo_stride ~k ~x

(* Point [claimed] at the calling domain's memo table ([on]) or at none,
   growing the table to this summary's geometry, and clearing it if
   another stamp owns it. *)
let claim t ~on =
  t.claimed <- None;
  if on then
    match Domain.DLS.get arena_key with
    | None -> ()
    | Some m as table ->
      let need = (window t + 1) * t.memo_stride in
      if Array.length m.marks < need then begin
        m.vals <- Array.make need 0.0;
        m.marks <- Array.make need 0
      end;
      if m.owner <> t.stamp then begin
        m.gen <- m.gen + 1;
        m.owner <- t.stamp
      end;
      t.claimed <- table

(* Largest c in [start, hi] with HERROR[c, k] <= threshold; writes c to
   [bnd_c] and its herror to [fs.(fs_bnd)].  The float inputs arrive via
   scratch slots — [fs.(fs_hstart)] holds HERROR[start, k], [fs.(fs_thresh)]
   the threshold — because float arguments to a non-inlined call are boxed
   at every call site.  HERROR[., k] is non-decreasing
   in x, and the predicate holds at [start] (its herror defines the
   threshold), so the boundary is well defined and any bracketing strategy
   finds the same c.  Without a hint ([hint = min_int]) this is the plain
   binary search of CreateList (Figure 5); with one, a gallop outward from
   the hinted position brackets the boundary in O(log distance)
   evaluations — a near-perfect hint (the common case between consecutive
   arrivals) costs O(1) instead of O(log n).

   The shared bisect runs over refs seeded per branch; every probe is one
   [search] step plus one eval_herror (identical to the
   pre-SoA implementation, so step counts match it exactly when
   memoisation is off). *)
let find_boundary t ~k ~start ~hi ~hint =
  let h_start = t.scr.fs.(fs_hstart) in
  let threshold = t.scr.fs.(fs_thresh) in
  (* bisect bracket: largest good position in [b_lo, b_hi], with b_h =
     HERROR[b_lo, k] already known. *)
  let b_lo = ref start and b_hi = ref hi and b_h = ref h_start in
  (if hint <> min_int then begin
     let g = max start (min hi hint) in
     let h_g =
       if g = start then h_start
       else begin
         t.scr.search <- t.scr.search + 1;
         eval_herror_into t ~k ~x:g;
         t.scr.fs.(fs_eval)
       end
     in
     if h_g <= threshold then begin
       (* Boundary at or past g: gallop right for the first bad position. *)
       let off = ref 1 and lo = ref g and h_lo = ref h_g and bad = ref (-1) in
       while !bad < 0 && g + !off <= hi do
         let p = g + !off in
         t.scr.search <- t.scr.search + 1;
         eval_herror_into t ~k ~x:p;
         let hp = t.scr.fs.(fs_eval) in
         if hp <= threshold then begin
           lo := p;
           h_lo := hp;
           off := 2 * !off
         end
         else bad := p
       done;
       b_lo := !lo;
       b_h := !h_lo;
       b_hi := if !bad < 0 then hi else !bad - 1
     end
     else begin
       (* Boundary strictly before g: gallop left for a good position. *)
       let off = ref 1 and bad = ref g and lo = ref (-1) and h_lo = ref h_start in
       while !lo < 0 && g - !off > start do
         let p = g - !off in
         t.scr.search <- t.scr.search + 1;
         eval_herror_into t ~k ~x:p;
         let hp = t.scr.fs.(fs_eval) in
         if hp <= threshold then begin
           lo := p;
           h_lo := hp
         end
         else begin
           bad := p;
           off := 2 * !off
         end
       done;
       if !lo < 0 then begin
         b_lo := start;
         b_h := h_start
       end
       else begin
         b_lo := !lo;
         b_h := !h_lo
       end;
       b_hi := !bad - 1
     end
   end);
  while !b_lo < !b_hi do
    let mid = (!b_lo + !b_hi + 1) / 2 in
    t.scr.search <- t.scr.search + 1;
    eval_herror_into t ~k ~x:mid;
    let hm = t.scr.fs.(fs_eval) in
    if hm <= threshold then begin
      b_lo := mid;
      b_h := hm
    end
    else b_hi := mid - 1
  done;
  if hint <> min_int then
    if !b_lo = hint then t.scr.hint_hits <- t.scr.hint_hits + 1
    else t.scr.hint_misses <- t.scr.hint_misses + 1;
  t.bnd_c <- !b_lo;
  t.scr.fs.(fs_bnd) <- !b_h

(* CreateList (Figure 5): cover [1 .. n] with maximal intervals whose
   HERROR[., k] spread stays within (1 + delta).  A warm rebuild seeds each
   boundary search from the previous refresh's boundary over the same
   stream points (the previous right endpoint covering this interval's
   start, shifted back by the window slide).  Where there is none — a
   fresh or restored summary, or past the end of the previous list — it
   gallops from [start] plus the width of the interval it just built
   instead of bisecting [start, n].  The search result is independent of
   the seed, so warm and cold rebuilds produce identical lists; a cold
   rebuild seeds nothing.  The list is built into [t.set], the build
   target, whose lower levels the scans read; [prev] is the last refresh's
   set, whose right endpoints are the hints. *)
let create_list t ~prev ~k ~warm =
  let q = t.set.levels.(k - 1) in
  let p = prev.levels.(k - 1) in
  let prev_b = p.b and plen = if warm then p.len else 0 in
  q.len <- 0;
  let n = length t in
  let delta = t.params.Params.delta in
  let slide = t.slide in
  let pcur = ref 0 in
  let width = ref (-1) in (* c - start of the interval just built *)
  let a = ref 1 in
  while !a <= n do
    let start = !a in
    if start = n then begin
      eval_herror_into t ~k ~x:start;
      let r = add_row q in
      q.b.(r) <- start;
      q.hb.(r) <- t.scr.fs.(fs_eval);
      t.scr.built <- t.scr.built + 1;
      a := n + 1
    end
    else begin
      eval_herror_into t ~k ~x:start;
      t.scr.fs.(fs_hstart) <- t.scr.fs.(fs_eval);
      t.scr.fs.(fs_thresh) <- (1.0 +. delta) *. t.scr.fs.(fs_eval);
      let hint =
        if plen = 0 then min_int
        else begin
          let old_start = start + slide in
          while !pcur < plen && Array.unsafe_get prev_b !pcur < old_start do
            incr pcur
          done;
          if !pcur < plen then Array.unsafe_get prev_b !pcur - slide else min_int
        end
      in
      let hint = if hint = min_int && warm && !width >= 0 then start + !width else hint in
      find_boundary t ~k ~start ~hi:n ~hint;
      let c = t.bnd_c in
      let r = add_row q in
      q.b.(r) <- c;
      q.hb.(r) <- t.scr.fs.(fs_bnd);
      t.scr.built <- t.scr.built + 1;
      width := c - start;
      a := c + 1
    end
  done

let do_refresh t ~warm ~memo =
  (* A new stamp invalidates every HERROR cached for the old lists: the
     claim clears the domain's table in O(1). *)
  t.stamp <- fresh_stamp ();
  claim t ~on:memo;
  (* A cold rebuild is the unassisted reference: no scan seeds either. *)
  t.scr.seeding <- warm;
  let b = buckets t in
  if length t > 0 && b > 1 then begin
    (* Build into a target no view can reach, current from the start (the
       scans read its lower levels), then let go of the old set. *)
    let prev = t.set in
    t.set <- acquire ~levels:(Array.length prev.levels);
    for k = 1 to b - 1 do
      create_list t ~prev ~k ~warm
    done;
    release prev
  end;
  t.scr.seeding <- true;
  t.claimed <- None;
  add t (if warm then w_warm_evals else w_cold_evals) t.scr.evals;
  flush t;
  t.dirty <- false;
  t.slide <- 0;
  t.pushes_since_refresh <- 0;
  t.gen <- t.gen + 1;
  add t w_refreshes 1;
  add t (if warm then w_warm_refreshes else w_cold_refreshes) 1

let refresh ?(cold = false) ?memo t =
  if t.dirty then do_refresh t ~warm:(not cold) ~memo:(Option.value memo ~default:t.memo_on)

(* Bookkeeping shared by [push] and the batch path once [len] points are
   appended, then the refresh-policy dispatch. *)
let after_append t len =
  t.seen <- t.seen + len;
  t.dirty <- true;
  t.pushes_since_refresh <- t.pushes_since_refresh + len;
  match t.policy with
  | Params.Eager -> refresh t
  | Params.Lazy -> ()
  | Params.Every k -> if t.pushes_since_refresh >= k then refresh t

let push t v =
  if not (Float.is_finite v) then invalid_arg "Fixed_window.push: non-finite value";
  (* [slide] counts every eviction *)
  if Sliding_prefix.length t.sp = Sliding_prefix.capacity t.sp then t.slide <- t.slide + 1;
  Sliding_prefix.push t.sp v;
  after_append t 1

(* Batch fast path: append the whole batch to the sliding prefix first,
   then refresh at most ONCE under the refresh policy, so the warm-start
   machinery amortises over the batch instead of rebuilding per point.
   Bookkeeping matches [push] per appended point — [slide] counts every
   eviction and [pushes_since_refresh] every point, so an [Every k] policy
   sees batched points exactly like single arrivals; the one divergence is
   deliberate: a batch that straddles a refresh boundary rebuilds once at
   the batch end (counter back to 0) rather than mid-batch, which is the
   amortisation this entry point exists for.  Queries observe identical
   results either way, since a refresh depends only on the current window
   contents (pinned by the test suite's push_many ≡ push property). *)
let push_slice_named t vs ~pos ~len ~name =
  if pos < 0 || len < 0 || pos + len > Array.length vs then
    invalid_arg ("Fixed_window." ^ name ^ ": slice out of bounds");
  if len > 0 then begin
    for i = pos to pos + len - 1 do
      if not (Float.is_finite vs.(i)) then
        invalid_arg ("Fixed_window." ^ name ^ ": non-finite value")
    done;
    (* every point past the free slots evicts one, as in [push] *)
    let free = Sliding_prefix.capacity t.sp - Sliding_prefix.length t.sp in
    t.slide <- t.slide + max 0 (len - free);
    Sliding_prefix.push_slice t.sp vs ~pos ~len;
    after_append t len
  end

let push_slice t vs ~pos ~len = push_slice_named t vs ~pos ~len ~name:"push_slice"
let push_many t vs = push_slice_named t vs ~pos:0 ~len:(Array.length vs) ~name:"push_many"

let push_and_refresh t v =
  push t v;
  refresh t

(* A live read of HERROR[x, k].  Until the next rebuild it keeps the
   stamp, so it hits what the rebuild (or an earlier read) cached — unless
   another summary claimed this domain's table in between. *)
let eval_live t ~k ~x =
  claim t ~on:t.memo_on;
  eval_herror_into t ~k ~x;
  t.claimed <- None;
  flush t;
  t.scr.fs.(fs_eval)

let current_error t =
  refresh t;
  eval_live t ~k:(buckets t) ~x:(length t)

(* The [herror] domain, shared by the live summary and its views. *)
let check_herror ~b ~n ~k ~x =
  if k < 1 || k > b then invalid_arg "Fixed_window.herror: k out of range";
  if x < 0 || x > n then invalid_arg "Fixed_window.herror: x out of range"

let herror t ~k ~x =
  check_herror ~b:(buckets t) ~n:(length t) ~k ~x;
  refresh t;
  eval_live t ~k ~x

(* Each argmin scan of the boundary recursion is one fw.herror_evals (the
   memo caches only values, not argmins, so the scans always run). *)
let current_histogram t =
  refresh t;
  if length t = 0 then invalid_arg "Fixed_window.current_histogram: empty window";
  let b = buckets t in
  let ends = Array.make b 0 and means = Array.make b 0.0 in
  let count = histogram t.sp t.set.levels t.scr ~b ~ends ~means in
  flush t;
  Histogram.of_columns ~n:(length t) ~his:ends ~values:means ~count

(* The summary's totals plus any tallies still in the scratch.  Every
   entry point flushes before it returns, so between calls the scratch is
   empty and the fw.* families have grown by exactly these totals since
   the summary was created — the flush discipline test compares the
   two. *)
let work_counters t =
  let s = t.scr and w = t.work in
  {
    herror_evaluations = w.(w_evals) + s.evals;
    cold_evaluations = w.(w_cold_evals);
    warm_evaluations = w.(w_warm_evals);
    intervals_built = w.(w_built) + s.built;
    refreshes = w.(w_refreshes);
    cold_refreshes = w.(w_cold_refreshes);
    warm_refreshes = w.(w_warm_refreshes);
    search_steps = w.(w_steps) + s.search + s.steps;
    scan_steps = w.(w_scan_steps) + s.steps;
    scan_candidates = w.(w_scan_cands) + s.cands;
    hint_hits = w.(w_hits) + s.hint_hits;
    hint_misses = w.(w_misses) + s.hint_misses;
    memo_probes = w.(w_memo_probes) + s.probes;
    memo_hits = w.(w_memo_hits) + s.hits;
  }

let interval_counts t =
  refresh t;
  Array.map (fun q -> q.len) t.set.levels

let check_level ~b ~k =
  if k < 1 || k > b - 1 then invalid_arg "Fixed_window.intervals: k out of range"

(* The scans run unseeded, so this read leaves the next rebuild's scan
   seeds alone. *)
let intervals t ~k =
  check_level ~b:(buckets t) ~k;
  refresh t;
  claim t ~on:t.memo_on;
  t.scr.seeding <- false;
  let rows = interval_rows t.sp t.set.levels t.scr t.claimed ~stride:t.memo_stride ~k in
  t.scr.seeding <- true;
  t.claimed <- None;
  flush t;
  rows

(* --- published read views -------------------------------------------- *)

(* Views evaluate with their domain's scratch: a domain runs one
   evaluation at a time, a view scratch takes no seeds, and nothing
   flushes its tallies. *)
let view_scratch_key = Domain.DLS.new_key (fun () -> new_scratch ~levels:0)
let view_scratch () = Domain.DLS.get view_scratch_key

(* A [View.t] is everything a query needs — a verbatim copy of the
   sliding prefix ring, the summary's current list set (lent, not copied:
   see [list_set]), and precomputed whole-window answers, the histogram
   among them, in storage the view owns — filled from a
   refreshed summary by {!view_into}.  Readers on other domains evaluate
   against the view alone, with the same kernel functions the live summary
   runs and their domain's view scratch: no telemetry stores, no scratch
   shared across domains, no access to the live [t].  The lent set is
   never written while the view holds it, so view answers are
   bit-identical to querying the quiesced live summary at the same
   generation by construction (and pinned by the snapshot-equivalence
   property tests).  The fields are mutable only so that a publisher can
   refill a view nobody reads any more. *)
module View = struct
  type t = {
    mutable gen : int;  (* refresh generation at the fill *)
    mutable seen : int; (* source points_seen at the fill — the freshness watermark *)
    mutable b : int;    (* buckets *)
    mutable eps : float;
    mutable sp : Sliding_prefix.t; (* copy of the live ring *)
    mutable set : list_set;        (* the source's lists, lent *)
    mutable err : float;           (* HERROR[n, B] — the current_error answer *)
    (* The window's histogram, refilled in place: right ends and bucket
       means in rows [0, nb), [nb = 0] iff the window is empty.  The
       columns grow only when the bucket count does.  Estimates read them
       through Histogram's column kernel; a caller keeping the histogram
       gets a copy. *)
    mutable ends : int array;
    mutable means : float array;
    mutable nb : int;
  }

  let generation v = v.gen
  let points_seen v = v.seen
  let length v = Sliding_prefix.length v.sp
  let buckets v = v.b
  let epsilon v = v.eps
  let current_error v = v.err

  let current_histogram v =
    if v.nb = 0 then invalid_arg "Fixed_window.View.current_histogram: empty window";
    Histogram.of_columns ~n:(length v) ~his:v.ends ~values:v.means ~count:v.nb

  let point_estimate v i =
    if i < 1 || i > length v then
      invalid_arg "Fixed_window.View.point_estimate: index out of range";
    Histogram.point_in ~his:v.ends ~values:v.means ~count:v.nb i

  let range_sum_estimate v ~lo ~hi =
    if lo <= hi && (lo < 1 || hi > length v) then
      invalid_arg "Fixed_window.View.range_sum_estimate: range out of bounds";
    Histogram.range_sum_in ~his:v.ends ~values:v.means ~count:v.nb ~lo ~hi

  let herror v ~k ~x =
    check_herror ~b:v.b ~n:(length v) ~k ~x;
    let s = view_scratch () in
    eval v.sp v.set.levels s None ~stride:(v.b + 1) ~k ~x;
    s.fs.(fs_eval)

  let intervals v ~k =
    check_level ~b:v.b ~k;
    interval_rows v.sp v.set.levels (view_scratch ()) None ~stride:(v.b + 1) ~k
end

let view_into t (v : View.t) =
  refresh t;
  if Sliding_prefix.capacity v.sp <> window t then
    v.sp <- Sliding_prefix.create ~capacity:(window t);
  Sliding_prefix.blit_into ~src:t.sp ~dst:v.sp;
  (* Take a hold on the current set before letting go of the old one, so
     a refill from the same set never sees it unheld. *)
  let held = v.set and cur = t.set in
  if held != cur then begin
    Atomic.incr cur.holders;
    v.set <- cur;
    if held != unlent then release held
  end;
  let n = length t and b = buckets t in
  let s = view_scratch () in
  eval v.sp cur.levels s None ~stride:(b + 1) ~k:b ~x:n;
  v.gen <- t.gen;
  v.seen <- t.seen;
  v.b <- b;
  v.eps <- epsilon t;
  v.err <- s.fs.(fs_eval);
  if n = 0 then v.nb <- 0
  else begin
    if Array.length v.ends < b then begin
      v.ends <- Array.make b 0;
      v.means <- Array.make b 0.0
    end;
    v.nb <- histogram v.sp cur.levels s ~b ~ends:v.ends ~means:v.means
  end

let view t =
  let v =
    { View.gen = 0; seen = 0; b = 0; eps = 0.0;
      sp = Sliding_prefix.create ~capacity:(window t); set = unlent; err = 0.0;
      ends = [||]; means = [||]; nb = 0 }
  in
  view_into t v;
  v

(* --- persistence ---------------------------------------------------- *)

module Codec = Sh_persist.Codec

let summary_tag = Char.code 'F'

(* Shard payloads carry only the irreducible state: parameters and the
   sliding prefix sums (Theorem 1's point — the interval lists are a
   deterministic function of the window, so [decode] rebuilds them with
   one refresh and the restored summary is indistinguishable from one
   that never stopped).  Derived scratch (lists, fs) and telemetry counters
   are deliberately not persisted: counters restart at zero in the fresh
   process, like every other counter. *)
let encode buf t =
  Codec.put_u8 buf summary_tag;
  Codec.put_float buf t.params.Params.epsilon;
  Codec.put_float buf t.params.Params.delta;
  Codec.put_varint buf t.params.Params.buckets;
  (match t.policy with
   | Params.Eager -> Codec.put_varint buf 0
   | Params.Lazy -> Codec.put_varint buf 1
   | Params.Every k ->
     Codec.put_varint buf 2;
     Codec.put_varint buf k);
  Codec.put_bool buf t.memo_on;
  Codec.put_varint buf t.pushes_since_refresh;
  Sliding_prefix.encode buf t.sp

let decode r =
  let tag = Codec.get_u8 r in
  if tag <> summary_tag then
    Codec.corruptf "Fixed_window.decode: tag %d is not a fixed-window payload"
      tag;
  let epsilon = Codec.get_float r in
  let delta = Codec.get_float r in
  let buckets = Codec.get_varint r in
  let policy =
    match Codec.get_varint r with
    | 0 -> Params.Eager
    | 1 -> Params.Lazy
    | 2 -> Params.Every (Codec.get_varint r)
    | n -> Codec.corruptf "Fixed_window.decode: unknown policy tag %d" n
  in
  let memo_on = Codec.get_bool r in
  let pending = Codec.get_varint r in
  let sp = Sliding_prefix.decode r in
  let params, policy =
    try (Params.make_with_delta ~buckets ~epsilon ~delta, Params.validate_policy policy)
    with Invalid_argument m -> Codec.corruptf "Fixed_window.decode: %s" m
  in
  let t = mk ~params ~sp in
  t.policy <- policy;
  set_memoisation t memo_on;
  (* Rebuild the interval lists from the restored window (a first refresh,
     seeded like any other), then put the arrival-cadence counter back so
     an [Every k] policy resumes exactly where the snapshot left it. *)
  t.dirty <- true;
  refresh t;
  t.pushes_since_refresh <- pending;
  (* The watermark restarts at the restored window length: pre-snapshot
     history is not recoverable, and only deltas of [points_seen] are
     meaningful across a restore. *)
  t.seen <- length t;
  t
