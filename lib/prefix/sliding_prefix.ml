type t = {
  cap : int;
  mutable rebase_every : int;
  sum : float array;    (* ring of cap+1 cumulative sums from a past origin *)
  sqsum : float array;
  mutable pos : int;    (* ring slot of the most recent cumulative value *)
  mutable count : int;  (* points currently in the window *)
  mutable since_rebase : int;
}

let create_rebasing ~rebase_every ~capacity =
  if capacity < 1 then invalid_arg "Sliding_prefix.create: capacity must be >= 1";
  if rebase_every < 1 then invalid_arg "Sliding_prefix.create: rebase_every must be >= 1";
  {
    cap = capacity;
    rebase_every;
    sum = Array.make (capacity + 1) 0.0;
    sqsum = Array.make (capacity + 1) 0.0;
    pos = 0;
    count = 0;
    since_rebase = 0;
  }

let create ~capacity = create_rebasing ~rebase_every:capacity ~capacity

let capacity t = t.cap
let length t = t.count

(* Ring slot of the cumulative value for window-relative index i,
   where i = 0 is the sentinel just before the window's oldest point.

   The query chain below (slot / check / range_sum / range_sqsum /
   sqerror) is [@inline]-annotated so that [sqerror]'s float arithmetic
   stays in registers within this module.  Callers in other modules do
   not get that under the dev profile's -opaque (their float returns are
   boxed); the fixed-window candidate scan therefore reads the ring
   through {!ring_sum} / {!ring_sqsum} / {!ring_base} and does the same
   arithmetic itself.

   Callers pass 0 <= i <= count, so pos - count + i lies in [-cap, cap]
   and one conditional add wraps it: no integer division. *)
let[@inline] slot t i =
  let s = t.pos - t.count + i in
  if s < 0 then s + t.cap + 1 else s

(* Shift the origin to the start of the current window: subtract the
   sentinel cumulative from every live slot.  Differences are unchanged. *)
let rebase t =
  let base_sum = t.sum.(slot t 0) in
  let base_sq = t.sqsum.(slot t 0) in
  for i = 0 to t.count do
    let s = slot t i in
    t.sum.(s) <- t.sum.(s) -. base_sum;
    t.sqsum.(s) <- t.sqsum.(s) -. base_sq
  done;
  t.since_rebase <- 0

let[@inline] push t v =
  let prev = t.pos in
  t.pos <- (t.pos + 1) mod (t.cap + 1);
  t.sum.(t.pos) <- t.sum.(prev) +. v;
  t.sqsum.(t.pos) <- t.sqsum.(prev) +. (v *. v);
  if t.count < t.cap then t.count <- t.count + 1;
  t.since_rebase <- t.since_rebase + 1;
  if t.since_rebase >= t.rebase_every then rebase t

(* The loop stays in this module, so no value is boxed crossing into
   [push]. *)
let push_slice t vs ~pos ~len =
  for i = pos to pos + len - 1 do
    push t vs.(i)
  done

let[@inline] check t ~lo ~hi =
  if lo < 1 || hi > t.count then invalid_arg "Sliding_prefix: range out of bounds"

let[@inline] range_sum t ~lo ~hi =
  if lo > hi then 0.0
  else begin
    check t ~lo ~hi;
    t.sum.(slot t hi) -. t.sum.(slot t (lo - 1))
  end

let[@inline] range_sqsum t ~lo ~hi =
  if lo > hi then 0.0
  else begin
    check t ~lo ~hi;
    t.sqsum.(slot t hi) -. t.sqsum.(slot t (lo - 1))
  end

let range_mean t ~lo ~hi =
  if lo > hi then 0.0
  else range_sum t ~lo ~hi /. Float.of_int (hi - lo + 1)

let[@inline] sqerror t ~lo ~hi =
  if lo > hi then 0.0
  else begin
    let s = range_sum t ~lo ~hi in
    let q = range_sqsum t ~lo ~hi in
    let n = Float.of_int (hi - lo + 1) in
    (* branch instead of Float.max: the Stdlib call would box both the
       argument and the result on this per-probe path (NaN can't reach
       here — pushes reject non-finite values). *)
    let d = q -. (s *. s /. n) in
    if d > 0.0 then d else 0.0
  end

(* Refill [dst] with [src]'s state for the published read views: the
   same ring slots and cursor, so every range query subtracts the same
   two stored values as the source did when the blit was made. *)
let blit_into ~src ~dst =
  if dst.cap <> src.cap then invalid_arg "Sliding_prefix.blit_into: capacities differ";
  Array.blit src.sum 0 dst.sum 0 (src.cap + 1);
  Array.blit src.sqsum 0 dst.sqsum 0 (src.cap + 1);
  dst.rebase_every <- src.rebase_every;
  dst.pos <- src.pos;
  dst.count <- src.count;
  dst.since_rebase <- src.since_rebase

(* Raw ring reads for the fixed-window candidate scan (see the .mli):
   the arrays themselves and the unwrapped slot of window index 0, so the
   scan can hoist the x-end cell out of its loop and wrap each candidate
   slot with the same conditional add as [slot]. *)
let ring_sum t = t.sum
let ring_sqsum t = t.sqsum
let ring_base t = t.pos - t.count

(* --- persistence ---------------------------------------------------- *)

module C = Sh_persist.Codec

let encode buf t =
  C.put_varint buf t.cap;
  C.put_varint buf t.rebase_every;
  C.put_varint buf t.pos;
  C.put_varint buf t.count;
  C.put_varint buf t.since_rebase;
  C.put_float_array buf t.sum;
  C.put_float_array buf t.sqsum

let check_finite name a =
  Array.iter
    (fun v ->
       if not (Float.is_finite v) then
         C.corruptf "Sliding_prefix.decode: non-finite %s entry" name)
    a

let decode r =
  let cap = C.get_varint r in
  let rebase_every = C.get_varint r in
  let pos = C.get_varint r in
  let count = C.get_varint r in
  let since_rebase = C.get_varint r in
  if cap < 1 then C.corruptf "Sliding_prefix.decode: capacity %d < 1" cap;
  if rebase_every < 1 then
    C.corruptf "Sliding_prefix.decode: rebase_every %d < 1" rebase_every;
  if pos > cap then C.corruptf "Sliding_prefix.decode: pos %d > cap %d" pos cap;
  if count > cap then
    C.corruptf "Sliding_prefix.decode: count %d > cap %d" count cap;
  if since_rebase >= rebase_every then
    C.corruptf "Sliding_prefix.decode: since_rebase %d >= rebase_every %d"
      since_rebase rebase_every;
  let sum = C.get_float_array r in
  let sqsum = C.get_float_array r in
  if Array.length sum <> cap + 1 || Array.length sqsum <> cap + 1 then
    C.corruptf "Sliding_prefix.decode: ring length %d/%d, expected %d"
      (Array.length sum) (Array.length sqsum) (cap + 1);
  check_finite "sum" sum;
  check_finite "sqsum" sqsum;
  { cap; rebase_every; sum; sqsum; pos; count; since_rebase }
