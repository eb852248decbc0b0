(* Struct-of-arrays row store: a fixed set of unboxed [float array] and
   [int array] columns sharing one length and one capacity.  Replaces
   boxed-record Vecs on hot paths — a row is spread across flat columns,
   so pushing a row allocates nothing (stores into preallocated arrays)
   and scans touch only the columns they read.

   Like Vec, growth doubles capacity and [clear] keeps the backing
   arrays, so steady-state clear-and-refill cycles are allocation-free;
   the [soa.allocations] gauge counts every backing growth so regression
   tests can pin that. *)

type t = {
  nf : int;
  ni : int;
  mutable cap : int;
  mutable len : int;
  mutable fcols : float array array; (* nf arrays of length cap *)
  mutable icols : int array array;   (* ni arrays of length cap *)
}

let allocations = Sh_obs.Obs.gauge "soa.allocations"

let create ?(init_cap = 0) ~fcols ~icols () =
  if fcols < 0 || icols < 0 || fcols + icols = 0 then
    invalid_arg "Soa.create: need at least one column";
  if init_cap < 0 then invalid_arg "Soa.create: negative capacity";
  {
    nf = fcols;
    ni = icols;
    cap = init_cap;
    len = 0;
    fcols = Array.init fcols (fun _ -> Array.make (max init_cap 1) 0.0);
    icols = Array.init icols (fun _ -> Array.make (max init_cap 1) 0);
  }

let length t = t.len
let capacity t = t.cap
let is_empty t = t.len = 0
let float_cols t = t.nf
let int_cols t = t.ni
let clear t = t.len <- 0

let grow t =
  let ncap = max 8 (2 * t.cap) in
  t.fcols <-
    Array.map
      (fun col ->
        let ncol = Array.make ncap 0.0 in
        Array.blit col 0 ncol 0 t.len;
        ncol)
      t.fcols;
  t.icols <-
    Array.map
      (fun col ->
        let ncol = Array.make ncap 0 in
        Array.blit col 0 ncol 0 t.len;
        ncol)
      t.icols;
  t.cap <- ncap;
  Sh_obs.Metric.gincr allocations

(* Append one row (fields keep whatever the buffer held; callers set every
   column they read) and return its index. *)
let add_row t =
  if t.len = t.cap then grow t;
  let r = t.len in
  t.len <- r + 1;
  r

let check_row t i = if i < 0 || i >= t.len then invalid_arg "Soa: row out of bounds"

let[@inline] get_f t ~col i =
  check_row t i;
  t.fcols.(col).(i)

let[@inline] set_f t ~col i x =
  check_row t i;
  t.fcols.(col).(i) <- x

let[@inline] get_i t ~col i =
  check_row t i;
  t.icols.(col).(i)

let[@inline] set_i t ~col i x =
  check_row t i;
  t.icols.(col).(i) <- x

(* Raw column access for hot loops: the backing array, of length
   [capacity t] >= [length t], valid until the next growth.  Callers must
   confine reads to rows [0 .. length t - 1]. *)
let[@inline] fcol t col = t.fcols.(col)
let[@inline] icol t col = t.icols.(col)

(* Trimmed deep copy: capacity = length, columns cut to the rows. *)
let copy t =
  let sub col = Array.sub col 0 t.len in
  { t with cap = t.len; fcols = Array.map sub t.fcols; icols = Array.map sub t.icols }
