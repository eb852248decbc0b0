type handle = Counter of Metric.counter | Tracker of Latency.t

(* Keyed by name, so exposing a handle again — every summary a process
   builds does — is one hash lookup per handle; a new name's family
   is checked against every exposed one.  All table access goes through
   [locked]: structures built on parallel domains expose the same
   handles.  Exposure runs in constructors and once-per-operation paths,
   never on the recording hot paths, so the mutex is uncontended in
   steady state. *)
let table : (string, handle) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let locked f = Mutex.protect lock f

let name = function
  | Counter c -> Metric.name c
  | Tracker t -> Latency.name t

(* Names are validated to [a-zA-Z0-9_.]; Prometheus allows [a-zA-Z0-9_:]. *)
let family h =
  let n = String.map (function '.' -> '_' | c -> c) (name h) in
  match h with
  | Counter _ when not (String.ends_with ~suffix:"_total" n) -> n ^ "_total"
  | _ -> n

let same a b =
  match (a, b) with
  | Counter a, Counter b -> a == b
  | Tracker a, Tracker b -> a == b
  | _ -> false

let expose hs =
  locked (fun () ->
      List.iter
        (fun h ->
          match Hashtbl.find_opt table (name h) with
          | Some held when same h held -> ()
          | _ ->
            let f = family h in
            Hashtbl.iter
              (fun _ held ->
                if family held = f then
                  invalid_arg
                    (Printf.sprintf "Obs: %S renders as family %s, already exposed by %S"
                       (name h) f (name held)))
              table;
            Hashtbl.replace table (name h) h)
        hs)

let snapshot () =
  locked (fun () -> Hashtbl.fold (fun _ h acc -> (family h, h) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Metric.reset c
          | Tracker t -> Latency.reset t)
        table)

let clear () = locked (fun () -> Hashtbl.reset table)
