(* A counter is one shared [int Atomic.t] and a gauge one [float Atomic.t].
   Hot kernels tally in plain fields of their own scratch and flush here
   once per entry point, so no serving path writes a metric per point and
   one cell per series is enough. *)

type counter = {
  c_name : string;
  c_cell : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_cell : float Atomic.t;
}

(* -------------------------------------------------------------- counters *)

let add c n =
  if n < 0 then invalid_arg "Obs: counters are monotone, negative increment";
  ignore (Atomic.fetch_and_add c.c_cell n)

let incr c = add c 1
let value c = Atomic.get c.c_cell
let reset_counter c = Atomic.set c.c_cell 0

(* ---------------------------------------------------------------- gauges *)

(* CAS retry: adds from several domains are all reflected. *)
let rec gadd g v =
  let cur = Atomic.get g.g_cell in
  if not (Atomic.compare_and_set g.g_cell cur (cur +. v)) then gadd g v

let gincr g = gadd g 1.0
let gvalue g = Atomic.get g.g_cell
let set g v = Atomic.set g.g_cell v
let reset_gauge g = Atomic.set g.g_cell 0.0
