module Gk = Sh_gk.Gk

(* Latency trackers: named duration series whose distribution is kept in
   one Greenwald-Khanna summary per tracker — the repo's own streaming
   order-statistics structure — behind the tracker's mutex.  Recording
   and reading both take it, so a percentile is one [Gk.quantile] with
   GK's own bound: rank error at most eps * n. *)

type t = {
  l_name : string;
  l_mutex : Mutex.t;  (* guards the three fields below *)
  l_gk : Gk.t;
  mutable l_count : int;
  mutable l_sum : float;
}

let epsilon = 0.001

(* The switch is an [Atomic.t] so parallel shard domains (lib/par) read
   and toggle it without a data race; the disabled path of [record] and
   [time] is one atomic load, a plain load on the usual platforms. *)
let tracking_cell = Atomic.make false
let set_tracking b = Atomic.set tracking_cell b
let tracking () = Atomic.get tracking_cell

(* The default clock is the portable [Sys.time] (CPU seconds); binaries
   inject a monotonic clock, tests a fake.  Set at startup, before domains
   are spawned. *)
let clock : (unit -> float) ref = ref Sys.time
let set_clock f = clock := f
let now () = !clock ()

let tracker name =
  Metric.validate_name name;
  {
    l_name = name;
    l_mutex = Mutex.create ();
    l_gk = Gk.create ~epsilon;
    l_count = 0;
    l_sum = 0.0;
  }

let name t = t.l_name

(* ------------------------------------------------------------- recording *)

let record t v =
  if Atomic.get tracking_cell && Float.is_finite v && v >= 0.0 then begin
    Mutex.lock t.l_mutex;
    Gk.insert t.l_gk v;
    t.l_count <- t.l_count + 1;
    t.l_sum <- t.l_sum +. v;
    Mutex.unlock t.l_mutex
  end

let time t f =
  if not (Atomic.get tracking_cell) then f ()
  else begin
    let t0 = now () in
    match f () with
    | r ->
      record t (now () -. t0);
      r
    | exception e ->
      record t (now () -. t0);
      raise e
  end

(* -------------------------------------------------------------- queries *)

let locked t f = Mutex.protect t.l_mutex (fun () -> f t)
let count t = locked t (fun t -> t.l_count)
let sum t = locked t (fun t -> t.l_sum)

let quantile t phi =
  locked t (fun t -> if t.l_count = 0 then None else Some (Gk.quantile t.l_gk phi))

let percentiles = [ 0.5; 0.9; 0.99; 0.999 ]

let reset t =
  locked t (fun t ->
      Gk.reset t.l_gk;
      t.l_count <- 0;
      t.l_sum <- 0.0)
