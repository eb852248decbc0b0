module Gk = Sh_gk.Gk

(* Latency trackers: named duration series whose distribution is kept in
   per-domain Greenwald-Khanna summaries — the repo's own streaming
   order-statistics structure — and merged only at snapshot time via
   [Gk.merged_quantile].  Recording is owner-only (a GK insert into this
   domain's slot state, no shared line), so trackers follow the same plane
   discipline as counters; the merged p50/p90/p99/p999 carry rank error of
   order sum_i (eps * n_i) over the per-domain streams (Gk.merged_quantile
   states the exact guarantee).

   The optional "last k batches" window rides on a global epoch counter:
   [advance] bumps it once per ingest batch, and each slot keeps a small
   ring of per-epoch GK summaries, lazily rotated by the owner the next
   time it records.  Windowed quantiles merge only the summaries whose
   epoch stamp falls inside the last k epochs. *)

type slot_state = {
  mutable all : Gk.t;  (* all-time summary *)
  mutable win : Gk.t array;  (* per-epoch ring, length = window k *)
  mutable win_epoch : int array;  (* epoch stamp per ring cell; -1 unused *)
  mutable lcount : int;
  mutable lsum : float;
}

type t = {
  l_name : string;
  l_labels : Metric.labels;
  l_eps : float;
  l_rows : slot_state Atomic.t array;
  l_ov : slot_state;  (* slotless-domain fallback, under [ov_mutex] *)
}

let default_epsilon = 0.001

(* Serialises every tracker's slotless-domain fallback state. *)
let ov_mutex = Mutex.create ()

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

let no_state =
  { all = Gk.create ~epsilon:0.5; win = [||]; win_epoch = [||]; lcount = 0; lsum = 0.0 }

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
          l_rows = Metric.make_rows no_state;
          l_ov = make_state epsilon;
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

(* Owner-only: adapt the window ring lazily when [set_window] changed the
   width since this slot last recorded, rotate the current epoch's cell,
   then insert. *)
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
    let s = Plane.slot () in
    if s >= 0 then begin
      let st = Atomic.get (Array.unsafe_get t.l_rows s) in
      let st =
        if st != no_state then st
        else begin
          let st = make_state t.l_eps in
          Atomic.set t.l_rows.(s) st;
          st
        end
      in
      record_into t st v
    end
    else begin
      Mutex.lock ov_mutex;
      record_into t t.l_ov v;
      Mutex.unlock ov_mutex;
      Atomic.incr Metric.plane_collisions_cell
    end
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

let states t =
  let acc = ref [ t.l_ov ] in
  for s = Plane.max_slots - 1 downto 0 do
    let st = Atomic.get t.l_rows.(s) in
    if st != no_state then acc := st :: !acc
  done;
  !acc

let count t = List.fold_left (fun acc st -> acc + st.lcount) 0 (states t)
let sum t = List.fold_left (fun acc st -> acc +. st.lsum) 0.0 (states t)

let summaries t =
  let k = Atomic.get window_k in
  if k = 0 then List.filter_map (fun st -> if Gk.count st.all > 0 then Some st.all else None) (states t)
  else begin
    let e_now = Atomic.get epoch in
    List.concat_map
      (fun st ->
        let acc = ref [] in
        for idx = 0 to Array.length st.win - 1 do
          if st.win_epoch.(idx) > e_now - k && Gk.count st.win.(idx) > 0 then
            acc := st.win.(idx) :: !acc
        done;
        !acc)
      (states t)
  end

let quantile t phi =
  match summaries t with
  | [] -> None
  | gks -> (
    (* An owner may rotate (reset) a window cell between [summaries] and
       the merge; if that empties every summary, nothing is recorded in
       the window.  An out-of-range phi still raises. *)
    try Some (Gk.merged_quantile gks phi)
    with Invalid_argument _ when phi >= 0.0 && phi <= 1.0 -> None)

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
  let reset_state t st =
    st.all <- Gk.create ~epsilon:t.l_eps;
    Array.iteri (fun i _ -> st.win.(i) <- Gk.create ~epsilon:t.l_eps) st.win;
    Array.fill st.win_epoch 0 (Array.length st.win_epoch) (-1);
    st.lcount <- 0;
    st.lsum <- 0.0
  in
  Mutex.lock m;
  Hashtbl.iter (fun _ t -> List.iter (reset_state t) (states t)) table;
  Mutex.unlock m;
  Atomic.set epoch 0

let clear () =
  Mutex.lock m;
  Hashtbl.reset table;
  Mutex.unlock m;
  Atomic.set epoch 0
