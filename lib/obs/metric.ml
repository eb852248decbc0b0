(* A counter is one shared [int Atomic.t].  Hot kernels tally in plain
   fields of their own scratch and flush here once per entry point, so no
   serving path writes a metric per point and one cell per series is
   enough. *)

type counter = {
  c_name : string;
  c_cell : int Atomic.t;
}

let validate_name name =
  if String.length name = 0 then invalid_arg "Obs: empty metric name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> ()
      | _ -> invalid_arg (Printf.sprintf "Obs: bad metric name %S (use [a-zA-Z0-9_.])" name))
    name;
  match name.[0] with
  | '0' .. '9' | '.' -> invalid_arg (Printf.sprintf "Obs: metric name %S must start with a letter" name)
  | _ -> ()

let counter name =
  validate_name name;
  { c_name = name; c_cell = Atomic.make 0 }

let name c = c.c_name

let add c n =
  if n < 0 then invalid_arg "Obs: counters are monotone, negative increment";
  ignore (Atomic.fetch_and_add c.c_cell n)

let incr c = add c 1
let value c = Atomic.get c.c_cell
let reset c = Atomic.set c.c_cell 0
