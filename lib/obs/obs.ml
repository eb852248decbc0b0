(* Facade over the telemetry subsystem: the one module instrumented code
   and binaries interact with. *)

let set_latency_enabled = Latency.set_tracking
let latency_enabled = Latency.tracking
let set_clock = Latency.set_clock
let now = Latency.now

let counter = Registry.counter
let gauge = Registry.gauge

(* Per-structure instance names: "fw0", "fw1", ... per prefix, so every
   live structure exports its own label-distinguished series.  Mutexed so
   structures created from parallel domains never share a name. *)
let instance_seq : (string, int ref) Hashtbl.t = Hashtbl.create 8
let instance_m = Mutex.create ()

let instance prefix =
  Mutex.lock instance_m;
  let r =
    match Hashtbl.find_opt instance_seq prefix with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.replace instance_seq prefix r;
      r
  in
  let id = !r in
  incr r;
  Mutex.unlock instance_m;
  prefix ^ string_of_int id

let render () =
  let buf = Buffer.create 4096 in
  Sink.prometheus buf;
  Buffer.contents buf

let reset () =
  Registry.reset ();
  Latency.reset ()

let clear () =
  Registry.clear ();
  Latency.clear ();
  Mutex.lock instance_m;
  Hashtbl.reset instance_seq;
  Mutex.unlock instance_m
