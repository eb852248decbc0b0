(* Tuples (v, g, delta) in non-decreasing order of v, stored as three
   columns [v], [g], [d] of which the first [len] rows are live.  With
   rmin_i the sum of g over the rows up to i: the true rank of v_i lies in
   [rmin_i, rmin_i + delta_i].  The maintained invariant
   g_i + delta_i <= floor(2 epsilon n) yields the epsilon n rank error.

   Inserts land in [buf], a flat float array of ceil(1/(2 epsilon)) slots.
   A full buffer is flushed: sorted in place, merged backwards into the
   columns (which grow by doubling), then compressed forwards in place.
   Once the columns have reached the summary's size, an insert allocates
   nothing.  Until a flush, the buffered values are an exact sub-stream:
   each is a tuple (v, 1, 0) of its own. *)
type t = {
  eps : float;
  buf : float array;        (* unflushed inserts, arrival order *)
  mutable blen : int;       (* live prefix of [buf] *)
  mutable v : float array;  (* tuple columns, capacity >= len *)
  mutable g : int array;
  mutable d : int array;
  mutable len : int;        (* live tuple rows *)
  mutable n : int;          (* values inserted, buffered ones included *)
}

let create ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Gk.create: epsilon must be in (0, 1)";
  {
    eps = epsilon;
    buf = Array.make (int_of_float (ceil (1.0 /. (2.0 *. epsilon)))) 0.0;
    blen = 0;
    v = [||];
    g = [||];
    d = [||];
    len = 0;
    n = 0;
  }

let reset t =
  t.blen <- 0;
  t.len <- 0;
  t.n <- 0

let epsilon t = t.eps
let count t = t.n
let size t = t.len + t.blen

let cap t = int_of_float (2.0 *. t.eps *. Float.of_int t.n)

(* In-place heapsort of [a.(0 .. n-1)]: the stdlib sorts go through a
   polymorphic comparison closure, which boxes every float it reads. *)
let sort_prefix (a : float array) n =
  let sift root stop =
    let root = ref root and go = ref true in
    while !go do
      let c = (2 * !root) + 1 in
      if c >= stop then go := false
      else begin
        let c = if c + 1 < stop && a.(c) < a.(c + 1) then c + 1 else c in
        if a.(!root) < a.(c) then begin
          let x = a.(!root) in
          a.(!root) <- a.(c);
          a.(c) <- x;
          root := c
        end
        else go := false
      end
    done
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

let grow t need =
  let c = max 16 (max need (2 * Array.length t.v)) in
  let v = Array.make c 0.0 and g = Array.make c 0 and d = Array.make c 0 in
  Array.blit t.v 0 v 0 t.len;
  Array.blit t.g 0 g 0 t.len;
  Array.blit t.d 0 d 0 t.len;
  t.v <- v;
  t.g <- g;
  t.d <- d

(* Merge adjacent tuples while the merged (g, delta) stays within the cap,
   left to right in place.  Merging tuple i into its successor keeps rank
   enclosures valid because the successor inherits the combined g.  The
   head tuple is never merged away: it carries the exact minimum (rank 1),
   which phi ~ 0 queries need; the maximum survives automatically since
   merges keep the right neighbour. *)
let compress t =
  if t.len > 2 then begin
    let bound = cap t in
    let v = t.v and g = t.g and d = t.d in
    (* row [w] accumulates the tuple being merged forward *)
    let w = ref 1 in
    for r = 2 to t.len - 1 do
      let gr = g.(r) in
      if g.(!w) + gr + d.(r) < bound then g.(!w) <- g.(!w) + gr
      else begin
        incr w;
        g.(!w) <- gr
      end;
      v.(!w) <- v.(r);
      d.(!w) <- d.(r)
    done;
    t.len <- !w + 1
  end

(* Sort the buffer and merge it backwards into the columns.  A new value
   with no stored tuple below it (a new minimum) or none above it (a new
   maximum, ties included) knows its rank exactly and takes delta = 0;
   any other takes cap - 1, which bounds the rank slack of the gap it
   lands in (that gap's right neighbour has g + delta <= cap). *)
let flush t =
  let m = t.blen in
  if m > 0 then begin
    sort_prefix t.buf m;
    let len = t.len in
    let need = len + m in
    if need > Array.length t.v then grow t need;
    let v = t.v and g = t.g and d = t.d and buf = t.buf in
    let interior = max 0 (cap t - 1) in
    let i = ref (len - 1) and w = ref (need - 1) in
    for j = m - 1 downto 0 do
      let x = buf.(j) in
      while !i >= 0 && v.(!i) > x do
        v.(!w) <- v.(!i);
        g.(!w) <- g.(!i);
        d.(!w) <- d.(!i);
        decr i;
        decr w
      done;
      v.(!w) <- x;
      g.(!w) <- 1;
      d.(!w) <- (if !i < 0 || !i = len - 1 then 0 else interior);
      decr w
    done;
    (* every new value is placed, so rows 0 .. !i never moved *)
    t.len <- need;
    t.blen <- 0;
    compress t
  end

let insert t v =
  if not (Float.is_finite v) then invalid_arg "Gk.insert: non-finite value";
  t.buf.(t.blen) <- v;
  t.blen <- t.blen + 1;
  t.n <- t.n + 1;
  if t.blen = Array.length t.buf then flush t

let quantile t phi =
  if phi < 0.0 || phi > 1.0 then invalid_arg "Gk.quantile: phi out of [0, 1]";
  if t.n = 0 then invalid_arg "Gk.quantile: empty summary";
  flush t;
  let target = Float.of_int (max 1 (int_of_float (ceil (phi *. Float.of_int t.n)))) in
  let allow = t.eps *. Float.of_int t.n in
  (* Last tuple of the prefix whose maximum possible rank stays within
     target + eps n. *)
  let best = ref t.v.(0) and rmin = ref 0 and i = ref 0 in
  while
    !i < t.len
    && begin
      rmin := !rmin + t.g.(!i);
      Float.of_int (!rmin + t.d.(!i)) <= target +. allow
    end
  do
    best := t.v.(!i);
    incr i
  done;
  !best
