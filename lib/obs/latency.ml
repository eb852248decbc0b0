module Gk = Sh_gk.Gk

(* Latency trackers: named duration series whose distribution is kept in
   one Greenwald-Khanna summary per tracker — the repo's own streaming
   order-statistics structure — behind the tracker's mutex.  Recording
   and reading both take it, so an all-time percentile is one
   [Gk.quantile] with GK's own bound: rank error at most eps * n.

   The optional "last k batches" window rides on a global epoch counter:
   [advance] bumps it once per ingest batch, and the tracker keeps a small
   ring of per-epoch GK summaries, rotated lazily by the next [record].
   Windowed quantiles merge only the summaries whose epoch stamp falls
   inside the last k epochs, with [Gk.merged_quantile]. *)

type state = {
  all : Gk.t;  (* all-time summary *)
  mutable win : Gk.t array;  (* per-epoch ring, length = window k *)
  mutable win_epoch : int array;  (* epoch stamp per ring cell; -1 unused *)
  mutable lcount : int;
  mutable lsum : float;
}

type t = {
  l_name : string;
  l_labels : Metric.labels;
  l_eps : float;
  l_mutex : Mutex.t;  (* guards [l_st] *)
  l_st : state;
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

let epoch = Atomic.make 0
let window_k = Atomic.make 0

let make_state eps =
  let k = Atomic.get window_k in
  {
    all = Gk.create ~epsilon:eps;
    win = Array.init k (fun _ -> Gk.create ~epsilon:eps);
    win_epoch = Array.make k (-1);
    lcount = 0;
    lsum = 0.0;
  }

(* ------------------------------------------------------- tracker registry *)

let table : (string, t) Hashtbl.t = Hashtbl.create 16
let m = Mutex.create ()

let tracker ?(labels = []) ?(epsilon = default_epsilon) name =
  Registry.validate_name name;
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Obs.Latency: epsilon must be in (0, 1)";
  let labels = Registry.canonical labels in
  let k = Registry.key name labels in
  Mutex.lock m;
  let t =
    match Hashtbl.find_opt table k with
    | Some t -> t
    | None ->
      let t =
        {
          l_name = name;
          l_labels = labels;
          l_eps = epsilon;
          l_mutex = Mutex.create ();
          l_st = make_state epsilon;
        }
      in
      Hashtbl.replace table k t;
      t
  in
  Mutex.unlock m;
  t

let name t = t.l_name
let labels t = t.l_labels
let epsilon t = t.l_eps

(* ------------------------------------------------------------- recording *)

(* Under [l_mutex]: adapt the window ring lazily when [set_window] changed
   the width since the last record, rotate the current epoch's cell, then
   insert. *)
let record_into t st v =
  Gk.insert st.all v;
  st.lcount <- st.lcount + 1;
  st.lsum <- st.lsum +. v;
  let k = Atomic.get window_k in
  if k > 0 then begin
    if Array.length st.win <> k then begin
      st.win <- Array.init k (fun _ -> Gk.create ~epsilon:t.l_eps);
      st.win_epoch <- Array.make k (-1)
    end;
    let e = Atomic.get epoch in
    let idx = e mod k in
    if st.win_epoch.(idx) <> e then begin
      (* Rotation reuses the cell's summary: once per batch, a fresh GK
         would allocate its insert buffer again. *)
      Gk.reset st.win.(idx);
      st.win_epoch.(idx) <- e
    end;
    Gk.insert st.win.(idx) v
  end

let record t v =
  if Atomic.get tracking_cell && Float.is_finite v && v >= 0.0 then begin
    Mutex.lock t.l_mutex;
    record_into t t.l_st v;
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

let advance () = if Atomic.get tracking_cell then Atomic.incr epoch

let set_window k =
  if k < 0 then invalid_arg "Obs.Latency: window must be >= 0";
  Atomic.set window_k k

let window () = Atomic.get window_k

(* -------------------------------------------------------------- queries *)

let locked t f = Mutex.protect t.l_mutex (fun () -> f t.l_st)
let count t = locked t (fun st -> st.lcount)
let sum t = locked t (fun st -> st.lsum)

let quantile t phi =
  locked t (fun st ->
      let k = Atomic.get window_k in
      if k = 0 then if Gk.count st.all = 0 then None else Some (Gk.quantile st.all phi)
      else begin
        let e_now = Atomic.get epoch in
        let cells = ref [] in
        for idx = 0 to Array.length st.win - 1 do
          if st.win_epoch.(idx) > e_now - k && Gk.count st.win.(idx) > 0 then
            cells := st.win.(idx) :: !cells
        done;
        match !cells with [] -> None | gks -> Some (Gk.merged_quantile gks phi)
      end)

let percentiles = [ 0.5; 0.9; 0.99; 0.999 ]

let snapshot () =
  Mutex.lock m;
  let all = Hashtbl.fold (fun _ t acc -> t :: acc) table [] in
  Mutex.unlock m;
  List.sort
    (fun a b ->
      match compare a.l_name b.l_name with 0 -> compare a.l_labels b.l_labels | c -> c)
    all

let reset () =
  let reset_state st =
    Gk.reset st.all;
    Array.iter Gk.reset st.win;
    Array.fill st.win_epoch 0 (Array.length st.win_epoch) (-1);
    st.lcount <- 0;
    st.lsum <- 0.0
  in
  Mutex.lock m;
  Hashtbl.iter (fun _ t -> locked t reset_state) table;
  Mutex.unlock m;
  Atomic.set epoch 0

let clear () =
  Mutex.lock m;
  Hashtbl.reset table;
  Mutex.unlock m;
  Atomic.set epoch 0
