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

let default_epsilon = 0.001

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

(* ------------------------------------------------------- tracker registry *)

let table : (string, t) Hashtbl.t = Hashtbl.create 16
let m = Mutex.create ()

let tracker ?(epsilon = default_epsilon) name =
  Registry.validate_name name;
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Obs.Latency: epsilon must be in (0, 1)";
  Mutex.lock m;
  let t =
    match Hashtbl.find_opt table name with
    | Some t -> t
    | None ->
      let t =
        {
          l_name = name;
          l_mutex = Mutex.create ();
          l_gk = Gk.create ~epsilon;
          l_count = 0;
          l_sum = 0.0;
        }
      in
      Hashtbl.replace table name t;
      t
  in
  Mutex.unlock m;
  t

let name t = t.l_name
let epsilon t = Gk.epsilon t.l_gk

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

let snapshot () =
  Mutex.lock m;
  let all = Hashtbl.fold (fun _ t acc -> t :: acc) table [] in
  Mutex.unlock m;
  List.sort (fun a b -> compare a.l_name b.l_name) all

let reset () =
  let reset_state t =
    Gk.reset t.l_gk;
    t.l_count <- 0;
    t.l_sum <- 0.0
  in
  Mutex.lock m;
  Hashtbl.iter (fun _ t -> locked t reset_state) table;
  Mutex.unlock m

let clear () =
  Mutex.lock m;
  Hashtbl.reset table;
  Mutex.unlock m
