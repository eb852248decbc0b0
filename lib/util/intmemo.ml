(* Open-addressing int-key -> float memo table with O(1) generational
   clear.  Built for per-refresh memoisation on streaming hot paths:

   - keys are single immediates (callers pack whatever tuple they need
     into one int), values live in an unboxed float array — no boxing on
     lookup or insert;
   - linear probing over a power-of-two table, 50% max load;
   - [next_generation] invalidates every entry by bumping a stamp instead
     of refilling the arrays, so "clearing" between refreshes is O(1) and
     the arena is reused forever — steady state allocates nothing. *)

type t = {
  mutable keys : int array;
  mutable vals : float array;
  mutable stamps : int array; (* slot is live iff stamps.(i) = gen *)
  mutable mask : int;         (* capacity - 1; capacity is a power of two *)
  mutable live : int;         (* live entries in the current generation *)
  mutable gen : int;          (* current generation; stamps start at 0 *)
}

let create ?(init_bits = 10) () =
  if init_bits < 1 || init_bits > 40 then invalid_arg "Intmemo.create: bad init_bits";
  let cap = 1 lsl init_bits in
  { keys = Array.make cap 0; vals = Array.make cap 0.0; stamps = Array.make cap 0;
    mask = cap - 1; live = 0; gen = 1 }

let capacity t = t.mask + 1
let live t = t.live
let generation t = t.gen

let next_generation t =
  t.gen <- t.gen + 1;
  t.live <- 0

(* Murmur3 finalizer (truncated to OCaml's 63-bit ints): cheap and mixes
   the packed-tuple keys well enough for linear probing. *)
let[@inline] mix k =
  let k = k lxor (k lsr 33) in
  let k = k * 0xFF51AFD7ED558CC in
  let k = k lxor (k lsr 29) in
  let k = k * 0x4CF5AD432745937 in
  k lxor (k lsr 32)

(* Live slot holding [key], or -1.  No allocation. *)
let find_slot t key =
  let mask = t.mask in
  let keys = t.keys and stamps = t.stamps in
  let gen = t.gen in
  let i = ref (mix key land mask) in
  let res = ref (-2) in
  while !res = -2 do
    if Array.unsafe_get stamps !i <> gen then res := -1
    else if Array.unsafe_get keys !i = key then res := !i
    else i := (!i + 1) land mask
  done;
  if !res = -1 then -1 else !res

let[@inline] get t slot = Array.unsafe_get t.vals slot

let vals t = t.vals

let rec grow t =
  let ocap = t.mask + 1 in
  let okeys = t.keys and ovals = t.vals and ostamps = t.stamps in
  let ogen = t.gen in
  t.keys <- Array.make (2 * ocap) 0;
  t.vals <- Array.make (2 * ocap) 0.0;
  t.stamps <- Array.make (2 * ocap) 0;
  t.mask <- (2 * ocap) - 1;
  t.live <- 0;
  for i = 0 to ocap - 1 do
    if ostamps.(i) = ogen then begin
      let s = reserve t okeys.(i) in
      Array.unsafe_set t.vals s ovals.(i)
    end
  done

(* The slot for [key] — the live one holding it, or a fresh claim.
   Amortised O(1); doubles (rehashing only the live generation) past 50%
   load, so probe chains stay short.  Split from [add] so callers can
   store the value themselves: passing a float across the module boundary
   would box it (see Prefix_sums.sqerror_into), whereas an int slot
   plus a store into {!vals} never allocates. *)
and reserve t key =
  if 2 * (t.live + 1) > t.mask + 1 then grow t;
  let mask = t.mask in
  let keys = t.keys and stamps = t.stamps in
  let gen = t.gen in
  let i = ref (mix key land mask) in
  while Array.unsafe_get stamps !i = gen && Array.unsafe_get keys !i <> key do
    i := (!i + 1) land mask
  done;
  if Array.unsafe_get stamps !i <> gen then begin
    t.live <- t.live + 1;
    Array.unsafe_set stamps !i gen;
    Array.unsafe_set keys !i key
  end;
  !i

let add t key value =
  let s = reserve t key in
  Array.unsafe_set t.vals s value
