(* Facade over the telemetry subsystem: the one module instrumented code
   and binaries interact with. *)

let set_latency_enabled = Latency.set_tracking
let latency_enabled = Latency.tracking
let set_clock = Latency.set_clock
let now = Latency.now

type handle = Registry.handle = Counter of Metric.counter | Tracker of Latency.t

let expose = Registry.expose

let render () =
  let buf = Buffer.create 4096 in
  Sink.prometheus buf;
  Buffer.contents buf

let reset = Registry.reset
let clear = Registry.clear
