type labels = (string * string) list

(* Every value cell is a per-domain plane: one padded row per Plane slot,
   written only by the slot's owner with plain (non-atomic) stores, read
   by aggregating accessors at snapshot time.  The steady-state recording
   path therefore touches no shared cacheline — the property the lock-free
   shard engine (lib/par) needs to scale — while [value]/[gvalue] remain
   exact once writers are quiescent (joins/awaits establish the
   necessary happens-before).  Mid-flight reads are memory-safe and at
   worst slightly stale.

   Rows are published through [Atomic.t] cells (an atomic load is a plain
   load on x86/ARM) so a snapshot on another domain never observes an
   unpublished row.  Rows are allocated lazily by their owner, which also
   places them in the owner's allocation region — adjacent slots never
   share a line.  [row_pad] keeps a row's payload a full cacheline even
   when the allocator packs blocks tightly. *)

let row_pad = 8

let no_irow : int array = [||]
let no_frow : float array = [||]

type counter = {
  c_name : string;
  c_labels : labels;
  c_rows : int array Atomic.t array;
  c_ov : int Atomic.t;  (* slotless-domain fallback, fetch-and-add *)
}

type gauge = {
  g_name : string;
  g_labels : labels;
  g_rows : float array Atomic.t array;
  g_base : float Atomic.t;  (* [set] target and slotless-domain adds *)
}

let make_rows absent = Array.init Plane.max_slots (fun _ -> Atomic.make absent)

(* The [obs.plane_collisions] witness: bumped (with a single atomic RMW)
   every time a recording operation misses the per-domain fast path
   because more than [Plane.max_slots] domains are alive.  Registry wires
   this very cell in as the counter's overflow cell, so the registered
   series reads it with no special cases — and the overflow path below
   writes it directly rather than recursing through [incr]. *)
let plane_collisions_cell : int Atomic.t = Atomic.make 0

let note_collision (ov : int Atomic.t) =
  if ov != plane_collisions_cell then Atomic.incr plane_collisions_cell

(* -------------------------------------------------------------- counters *)

let c_row c s =
  let r = Atomic.get (Array.unsafe_get c.c_rows s) in
  if r != no_irow then r
  else begin
    let r = Array.make row_pad 0 in
    Atomic.set c.c_rows.(s) r;
    r
  end

let add c n =
  if n < 0 then invalid_arg "Obs: counters are monotone, negative increment";
  let s = Plane.slot () in
  if s >= 0 then begin
    let r = c_row c s in
    Array.unsafe_set r 0 (Array.unsafe_get r 0 + n)
  end
  else begin
    ignore (Atomic.fetch_and_add c.c_ov n);
    note_collision c.c_ov
  end

let incr c = add c 1

let value c =
  let acc = ref (Atomic.get c.c_ov) in
  for s = 0 to Plane.max_slots - 1 do
    let r = Atomic.get c.c_rows.(s) in
    if r != no_irow then acc := !acc + r.(0)
  done;
  !acc

let reset_counter c =
  for s = 0 to Plane.max_slots - 1 do
    let r = Atomic.get c.c_rows.(s) in
    if r != no_irow then r.(0) <- 0
  done;
  Atomic.set c.c_ov 0

(* ---------------------------------------------------------------- gauges *)

let g_row g s =
  let r = Atomic.get (Array.unsafe_get g.g_rows s) in
  if r != no_frow then r
  else begin
    let r = Array.make row_pad 0.0 in
    Atomic.set g.g_rows.(s) r;
    r
  end

let cells_sum g =
  let acc = ref 0.0 in
  for s = 0 to Plane.max_slots - 1 do
    let r = Atomic.get g.g_rows.(s) in
    if r != no_frow then acc := !acc +. r.(0)
  done;
  !acc

let gadd g v =
  let s = Plane.slot () in
  if s >= 0 then begin
    let r = g_row g s in
    Array.unsafe_set r 0 (Array.unsafe_get r 0 +. v)
  end
  else begin
    (* CAS retry: adds from several slotless domains are all reflected. *)
    let rec go () =
      let cur = Atomic.get g.g_base in
      if not (Atomic.compare_and_set g.g_base cur (cur +. v)) then go ()
    in
    go ();
    Atomic.incr plane_collisions_cell
  end

let gincr g = gadd g 1.0
let gvalue g = Atomic.get g.g_base +. cells_sum g

(* Rebase so the aggregate reads exactly [v].  Not atomic against
   concurrent [gadd]s — in-tree setters run at structure creation or on
   rare state changes (e.g. a window length change), never on recording
   hot paths. *)
let set g v = Atomic.set g.g_base (v -. cells_sum g)

let reset_gauge g =
  for s = 0 to Plane.max_slots - 1 do
    let r = Atomic.get g.g_rows.(s) in
    if r != no_frow then r.(0) <- 0.0
  done;
  Atomic.set g.g_base 0.0
