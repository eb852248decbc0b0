type metric = Counter of Metric.counter | Gauge of Metric.gauge

(* Key = name + canonically sorted labels, flattened with unprintable
   separators so distinct label sets cannot collide. *)
let key name labels =
  let buf = Buffer.create (String.length name + 16) in
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf k;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf v)
    labels;
  Buffer.contents buf

(* All table access goes through [lock]: get-or-create races from parallel
   domains (two shards registering the same series name) must agree on one
   handle.  Registration happens at structure-creation time, never on the
   recording hot paths, so the mutex is uncontended in steady state. *)
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

let canonical labels = List.sort compare labels

let get_or_register ~name ~labels ~found ~make =
  validate_name name;
  let labels = canonical labels in
  let k = key name labels in
  locked (fun () ->
      match Hashtbl.find_opt table k with
      | Some m -> found m
      | None ->
        let m, v = make labels in
        Hashtbl.replace table k m;
        v)

let type_clash name =
  invalid_arg (Printf.sprintf "Obs: metric %S already registered with a different type" name)

let counter ?(labels = []) name =
  get_or_register ~name ~labels
    ~found:(function Counter c -> c | _ -> type_clash name)
    ~make:(fun labels ->
      let c = { Metric.c_name = name; c_labels = labels; c_cell = Atomic.make 0 } in
      (Counter c, c))

let gauge ?(labels = []) name =
  get_or_register ~name ~labels
    ~found:(function Gauge g -> g | _ -> type_clash name)
    ~make:(fun labels ->
      let g = { Metric.g_name = name; g_labels = labels; g_cell = Atomic.make 0.0 } in
      (Gauge g, g))

let find ?(labels = []) name =
  let k = key name (canonical labels) in
  locked (fun () -> Hashtbl.find_opt table k)

(* Iteration holds the lock: [f] must not register or look up metrics (the
   mutex is not reentrant).  Every in-tree caller only reads values. *)
let iter f = locked (fun () -> Hashtbl.iter (fun _ m -> f m) table)

let metric_name = function
  | Counter c -> c.Metric.c_name
  | Gauge g -> g.Metric.g_name

let metric_labels = function
  | Counter c -> c.Metric.c_labels
  | Gauge g -> g.Metric.g_labels

let snapshot () =
  let all = locked (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) table []) in
  List.sort
    (fun a b ->
      match compare (metric_name a) (metric_name b) with
      | 0 -> compare (metric_labels a) (metric_labels b)
      | c -> c)
    all

let series_count () = locked (fun () -> Hashtbl.length table)

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Metric.reset_counter c
          | Gauge g -> Metric.reset_gauge g)
        table)

let clear () = locked (fun () -> Hashtbl.reset table)
