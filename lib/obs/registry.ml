type metric = Counter of Metric.counter | Gauge of Metric.gauge

(* All table access goes through [lock]: get-or-create races from parallel
   domains (two shards registering the same series name) must agree on one
   handle.  Registration happens at module initialisation or server
   start, never on the recording hot paths, so the mutex is uncontended
   in steady state. *)
let table : (string, metric) Hashtbl.t = Hashtbl.create 64
let m = Mutex.create ()

let locked f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

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

let get_or_register ~name ~found ~make =
  validate_name name;
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> found m
      | None ->
        let m, v = make () in
        Hashtbl.replace table name m;
        v)

let type_clash name =
  invalid_arg (Printf.sprintf "Obs: metric %S already registered with a different type" name)

let counter name =
  get_or_register ~name
    ~found:(function Counter c -> c | _ -> type_clash name)
    ~make:(fun () ->
      let c = { Metric.c_name = name; c_cell = Atomic.make 0 } in
      (Counter c, c))

let gauge name =
  get_or_register ~name
    ~found:(function Gauge g -> g | _ -> type_clash name)
    ~make:(fun () ->
      let g = { Metric.g_name = name; g_cell = Atomic.make 0.0 } in
      (Gauge g, g))

let metric_name = function
  | Counter c -> c.Metric.c_name
  | Gauge g -> g.Metric.g_name

let snapshot () =
  let all = locked (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) table []) in
  List.sort (fun a b -> compare (metric_name a) (metric_name b)) all

let series_count () = locked (fun () -> Hashtbl.length table)

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Metric.reset_counter c
          | Gauge g -> Metric.reset_gauge g)
        table)

let clear () = locked (fun () -> Hashtbl.reset table)
