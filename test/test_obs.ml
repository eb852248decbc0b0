module Obs = Sh_obs.Obs
module M = Sh_obs.Metric
module R = Sh_obs.Registry
module Sink = Sh_obs.Sink
module L = Sh_obs.Latency

(* Every test starts from an empty registry, latency tracking disabled,
   and the default clock; the registry is global so isolation is
   explicit. *)
let clean f () =
  Obs.clear ();
  Obs.set_latency_enabled false;
  Obs.set_clock Sys.time;
  Fun.protect ~finally:(fun () ->
      Obs.clear ();
      Obs.set_latency_enabled false;
      Obs.set_clock Sys.time)
    f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------- metrics *)

let test_counter_monotone () =
  let c = M.counter "t.count" in
  Alcotest.(check int) "starts at zero" 0 (M.value c);
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "incr + add" 5 (M.value c);
  M.add c 0;
  Alcotest.(check int) "add zero ok" 5 (M.value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Obs: counters are monotone, negative increment") (fun () -> M.add c (-1))

let test_counter_always_live () =
  (* counters back work_counters: they count with no switch turned on,
     exposed or not *)
  Alcotest.(check bool) "latency tracking off" false (Obs.latency_enabled ());
  let c = M.counter "t.live" in
  M.incr c;
  Alcotest.(check int) "counted while disabled" 1 (M.value c)

(* ------------------------------------------------------------ registry *)

let names () = List.map R.name (R.snapshot ())

let test_registry_expose_idempotent () =
  let a = M.counter "t.c" in
  Obs.expose [ Obs.Counter a ];
  Obs.expose [ Obs.Counter a; Obs.Counter a ];
  Alcotest.(check (list string)) "one entry per handle" [ "t.c" ] (names ());
  let other = M.counter "t.d" in
  Alcotest.(check bool) "another call, another handle" true (not (a == other));
  Obs.expose [ Obs.Counter other ];
  Alcotest.(check (list string)) "both exposed" [ "t.c"; "t.d" ] (names ())

let test_registry_validation () =
  Alcotest.check_raises "bad name"
    (Invalid_argument "Obs: metric name \"9bad\" must start with a letter") (fun () ->
      ignore (M.counter "9bad"));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Obs: bad metric name \"a b\" (use [a-zA-Z0-9_.])") (fun () ->
      ignore (M.counter "a b"));
  (* Two handles whose names render as one Prometheus family would put two
     samples under one series name: the second is refused. *)
  let clash first second family =
    Obs.expose [ first ];
    Alcotest.check_raises
      (Printf.sprintf "%s vs %s" (R.name first) (R.name second))
      (Invalid_argument
         (Printf.sprintf "Obs: %S renders as family %s, already exposed by %S" (R.name second)
            family (R.name first)))
      (fun () -> Obs.expose [ second ])
  in
  clash (Obs.Counter (M.counter "t.c")) (Obs.Counter (M.counter "t.c")) "t_c_total";
  clash (Obs.Counter (M.counter "a.b")) (Obs.Counter (M.counter "a_b")) "a_b_total";
  clash (Obs.Counter (M.counter "x")) (Obs.Counter (M.counter "x_total")) "x_total";
  clash (Obs.Counter (M.counter "y")) (Obs.Tracker (L.tracker "y_total")) "y_total";
  clash (Obs.Tracker (L.tracker "l.q")) (Obs.Tracker (L.tracker "l_q")) "l_q";
  Alcotest.(check (list string)) "only the first of each pair exposed"
    [ "a.b"; "l.q"; "t.c"; "x"; "y" ] (names ());
  Alcotest.(check int) "one TYPE line per family" 5
    (List.length
       (List.filter
          (fun l -> String.starts_with ~prefix:"# TYPE" l)
          (String.split_on_char '\n' (Obs.render ()))))

let test_registry_snapshot_sorted () =
  Obs.expose
    [ Obs.Counter (M.counter "t.b"); Obs.Tracker (L.tracker "t.c"); Obs.Counter (M.counter "t.a") ];
  Alcotest.(check (list string)) "counters and trackers in one family order"
    [ "t.a"; "t.b"; "t.c" ] (names ())

let test_registry_reset_and_clear () =
  Obs.set_latency_enabled true;
  let c = M.counter "t.c" and t = L.tracker "t.lat" in
  Obs.expose [ Obs.Counter c; Obs.Tracker t ];
  M.add c 7;
  L.record t 0.5;
  Obs.reset ();
  Alcotest.(check int) "counter zeroed" 0 (M.value c);
  Alcotest.(check int) "tracker emptied" 0 (L.count t);
  Alcotest.(check (list string)) "exposure survives reset" [ "t.c"; "t.lat" ] (names ());
  M.incr c;
  Obs.clear ();
  Alcotest.(check (list string)) "clear empties the table" [] (names ());
  (* the handle keeps counting while unexposed, and comes back whole *)
  M.incr c;
  Alcotest.(check int) "unexposed handle still counts" 2 (M.value c);
  Obs.expose [ Obs.Counter c ];
  Alcotest.(check bool) "re-exposed with its count" true
    (contains (Obs.render ()) "\nt_c_total 2\n")

(* --------------------------------------------------------------- sinks *)

(* Two writers of one family land in its one series: the exposition is a
   process-wide sum. *)
let golden_state () =
  let evals = M.counter "fw.herror_evals" in
  let points = M.counter "engine.points" in
  let frames = M.counter "net.frames_total" in
  let t = L.tracker "latency.query" in
  let big = L.tracker "latency.ingest_batch" in
  Obs.expose
    Obs.[ Counter evals; Counter points; Counter frames; Tracker t; Tracker big;
          Tracker (L.tracker "latency.idle") ];
  (* a second exposer of the same handles changes nothing *)
  Obs.expose Obs.[ Counter evals; Tracker t ];
  M.add evals 130;
  M.incr evals;
  M.add points 4096;
  M.add frames 7;
  Obs.set_latency_enabled true;
  for i = 0 to 99 do
    L.record t (Float.of_int (((i * 37) mod 100) + 1) /. 1024.0)
  done;
  (* 2,000 durations: the summary flushes its buffer and compresses *)
  for i = 0 to 1999 do
    L.record big (Float.of_int (((i * 7919) mod 2000) + 1) /. 4096.0)
  done

let prom_golden =
  {golden|# TYPE engine_points_total counter
engine_points_total 4096
# TYPE fw_herror_evals_total counter
fw_herror_evals_total 131
# TYPE latency_idle summary
latency_idle_sum 0
latency_idle_count 0
# TYPE latency_ingest_batch summary
latency_ingest_batch{quantile="0.5"} 0.244140625
latency_ingest_batch{quantile="0.9"} 0.439697265625
latency_ingest_batch{quantile="0.99"} 0.48388671875
latency_ingest_batch{quantile="0.999"} 0.48828125
latency_ingest_batch_sum 488.525390625
latency_ingest_batch_count 2000
# TYPE latency_query summary
latency_query{quantile="0.5"} 0.048828125
latency_query{quantile="0.9"} 0.087890625
latency_query{quantile="0.99"} 0.0966796875
latency_query{quantile="0.999"} 0.09765625
latency_query_sum 4.931640625
latency_query_count 100
# TYPE net_frames_total counter
net_frames_total 7
|golden}

let test_prometheus_sink () =
  let c = M.counter "fw.herror_evals" in
  Obs.expose [ Obs.Counter c ];
  M.add c 130;
  let buf = Buffer.create 256 in
  Sink.prometheus buf;
  let out = Buffer.contents buf in
  Alcotest.(check bool) "counter family typed" true
    (contains out "# TYPE fw_herror_evals_total counter");
  Alcotest.(check bool) "counter sample" true (contains out "\nfw_herror_evals_total 130\n");
  Alcotest.(check string) "family sanitisation" "fw_herror_evals_total" (R.family (Obs.Counter c));
  (* The whole exposition of a scripted state, byte for byte, against a
     golden last recorded when trackers took one fixed epsilon and sorted
     among the counters: family order, one TYPE line per family, the
     _total suffix, quantile samples from a compressed summary, and an
     empty tracker's absent quantiles. *)
  Obs.clear ();
  golden_state ();
  Alcotest.(check string) "whole exposition matches the golden" prom_golden (Obs.render ())

(* ------------------------------------------------- concurrent writers *)

(* Domain counts default to {2, 4}; the CI multicore smoke overrides them
   via SH_TEST_DOMAINS (comma-separated), same contract as test_par. *)
let domain_counts =
  match Sys.getenv_opt "SH_TEST_DOMAINS" with
  | None | Some "" -> [ 2; 4 ]
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

(* Run [f d i] for i in 1..iters in each of [domains] spawned domains,
   released together through a barrier so the writes genuinely overlap. *)
let hammer ~domains ~iters f =
  let go = Atomic.make false in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            for i = 1 to iters do
              f d i
            done))
  in
  Atomic.set go true;
  Array.iter Domain.join workers

let test_plane_no_lost_increments () =
  List.iter
    (fun d ->
      let c = M.counter "plane.c" in
      let iters = 10_000 in
      hammer ~domains:d ~iters (fun _ _ -> M.incr c);
      Alcotest.(check int)
        (Printf.sprintf "counter exact, %d domains" d)
        (d * iters) (M.value c))
    domain_counts

let test_plane_snapshot_reset_under_writers () =
  List.iter
    (fun d ->
      Obs.clear ();
      let c = M.counter "plane.live" in
      Obs.expose [ Obs.Counter c ];
      let stop = Atomic.make false in
      let workers =
        Array.init d (fun _ ->
            Domain.spawn (fun () ->
                while not (Atomic.get stop) do
                  M.incr c
                done))
      in
      (* concurrent snapshot / render / reset must neither deadlock nor
         tear: every read is a sane non-negative total *)
      for _ = 1 to 50 do
        Alcotest.(check bool) "mid-flight value sane" true (M.value c >= 0);
        Alcotest.(check bool) "renders mid-flight" true (String.length (Obs.render ()) > 0)
      done;
      Obs.reset ();
      Alcotest.(check bool) "readable after racy reset" true (M.value c >= 0);
      Atomic.set stop true;
      Array.iter Domain.join workers;
      (* writers quiescent: reset now observably zeroes the series *)
      Obs.reset ();
      Alcotest.(check int) (Printf.sprintf "reset to zero, %d domains" d) 0 (M.value c))
    domain_counts

(* ------------------------------------------------- latency quantiles *)

let test_latency_basic () =
  Obs.set_latency_enabled true;
  let t = L.tracker "lat.basic" in
  for i = 1 to 1000 do
    L.record t (Float.of_int i)
  done;
  Alcotest.(check int) "count" 1000 (L.count t);
  Alcotest.(check (float 1e-6)) "sum" 500500.0 (L.sum t);
  (match L.quantile t 0.5 with
  | None -> Alcotest.fail "median present"
  | Some v ->
    Alcotest.(check bool)
      (Printf.sprintf "median within rank error (got %g)" v)
      true
      (Float.abs (v -. 500.0) <= 25.0));
  L.record t (-1.0);
  L.record t Float.nan;
  Alcotest.(check int) "junk durations ignored" 1000 (L.count t);
  Obs.set_latency_enabled false;
  L.record t 5.0;
  Alcotest.(check int) "disabled record is a no-op" 1000 (L.count t)

(* Trackers share the counters' name rule and the one exposure table: a
   name a counter would reject is rejected here too, rather than exported
   under a silently rewritten Prometheus family. *)
let test_latency_name_validation () =
  Alcotest.check_raises "bad char"
    (Invalid_argument "Obs: bad metric name \"a b\" (use [a-zA-Z0-9_.])") (fun () ->
      ignore (L.tracker "a b"));
  Alcotest.check_raises "bad start"
    (Invalid_argument "Obs: metric name \"9lat\" must start with a letter") (fun () ->
      ignore (L.tracker "9lat"));
  Alcotest.check_raises "empty" (Invalid_argument "Obs: empty metric name") (fun () ->
      ignore (L.tracker ""));
  Alcotest.(check int) "nothing exposed" 0 (List.length (R.snapshot ()));
  let a = L.tracker "lat.ok" in
  Alcotest.(check bool) "another call, another tracker" true (not (a == L.tracker "lat.ok"));
  Obs.expose [ Obs.Tracker a; Obs.Tracker a ];
  Alcotest.(check int) "one entry per tracker" 1 (List.length (R.snapshot ()))

let test_latency_merged_domains () =
  List.iter
    (fun d ->
      Obs.clear ();
      Obs.set_latency_enabled true;
      (* every tracker's epsilon *)
      let eps = 0.001 in
      let t = L.tracker "lat.merged" in
      let per = 2000 in
      (* domain j records the arithmetic slice j, j+d, j+2d, ... so the
         union across domains is exactly 0 .. d*per-1 *)
      hammer ~domains:d ~iters:per (fun j i -> L.record t (Float.of_int (j + (d * (i - 1)))));
      Alcotest.(check int) (Printf.sprintf "merged count, %d domains" d) (d * per) (L.count t);
      let n = Float.of_int (d * per) in
      (* Value v has rank v + 1, and GK answers target rank ceil(phi n)
         within eps n: the tracker's one summary carries that bound. *)
      List.iter
        (fun phi ->
          match L.quantile t phi with
          | None -> Alcotest.fail "merged quantile present"
          | Some v ->
            let target = Float.max 1.0 (Float.ceil (phi *. n)) in
            Alcotest.(check bool)
              (Printf.sprintf "p%g within eps*n ranks, %d domains (got %g)" (phi *. 100.0) d v)
              true
              (Float.abs (v +. 1.0 -. target) <= eps *. n))
        L.percentiles)
    domain_counts

let test_latency_sinks () =
  Obs.set_latency_enabled true;
  let t = L.tracker "lat.sink" in
  Obs.expose [ Obs.Tracker t ];
  for i = 1 to 100 do
    L.record t (Float.of_int i /. 100.0)
  done;
  let prom = Obs.render () in
  Alcotest.(check bool) "prom summary type" true (contains prom "# TYPE lat_sink summary");
  Alcotest.(check bool) "prom quantile sample" true (contains prom "lat_sink{quantile=\"0.5\"}");
  Alcotest.(check bool) "prom p999 sample" true (contains prom "lat_sink{quantile=\"0.999\"}");
  Alcotest.(check bool) "prom count" true (contains prom "lat_sink_count 100")

(* Zero-sample reads: a tracker with no recorded durations — fresh, or
   reset after recording — answers [None] from [quantile] and renders
   with quantile samples {e absent} (not 0, not NaN), while count and
   sum stay present.  This is the layer that keeps the raising
   [Gk.quantile] contract away from exposition: a query-latency tracker
   that has seen no traffic yet must never take the exposition down. *)
let test_latency_zero_sample_sinks () =
  Obs.set_latency_enabled true;
  let t = L.tracker "lat.empty" in
  Obs.expose [ Obs.Tracker t ];
  Alcotest.(check int) "fresh count" 0 (L.count t);
  Alcotest.(check bool) "fresh quantile is None" true (L.quantile t 0.5 = None);
  let check_rendering tag =
    let prom = Obs.render () in
    Alcotest.(check bool) (tag ^ ": prom type line") true
      (contains prom "# TYPE lat_empty summary");
    Alcotest.(check bool) (tag ^ ": prom count present") true (contains prom "lat_empty_count 0");
    Alcotest.(check bool) (tag ^ ": prom sum present") true (contains prom "lat_empty_sum 0");
    Alcotest.(check bool) (tag ^ ": prom has no quantile sample") false
      (contains prom "lat_empty{quantile")
  in
  check_rendering "fresh";
  L.record t 0.5;
  (match L.quantile t 0.5 with
  | Some v -> Alcotest.(check (float 1e-9)) "recorded quantile" 0.5 v
  | None -> Alcotest.fail "recorded quantile present");
  Obs.reset ();
  Alcotest.(check bool) "reset quantile is None" true (L.quantile t 0.5 = None);
  check_rendering "reset";
  (* the strict contract the None guard wraps *)
  Alcotest.check_raises "empty summary raises underneath"
    (Invalid_argument "Gk.quantile: empty summary") (fun () ->
      ignore (Sh_gk.Gk.quantile (Sh_gk.Gk.create ~epsilon:0.01) 0.5))

let test_latency_time_and_reset () =
  Obs.set_latency_enabled true;
  let now = ref 10.0 in
  Obs.set_clock (fun () -> !now);
  let t = L.tracker "lat.time" in
  Obs.expose [ Obs.Tracker t ];
  let v =
    L.time t (fun () ->
        now := !now +. 0.25;
        42)
  in
  Alcotest.(check int) "time returns the result" 42 v;
  Alcotest.(check int) "time recorded" 1 (L.count t);
  Alcotest.(check (float 1e-9)) "elapsed recorded" 0.25 (L.sum t);
  (try L.time t (fun () -> now := !now +. 1.0; failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "recorded on exception" 2 (L.count t);
  Obs.reset ();
  Alcotest.(check int) "reset forgets durations" 0 (L.count t);
  Alcotest.(check bool) "exposure survives reset" true
    (List.exists (function Obs.Tracker t' -> t' == t | _ -> false) (R.snapshot ()))

let () =
  Alcotest.run "sh_obs"
    [
      ( "metric",
        [
          Alcotest.test_case "counter monotone" `Quick (clean test_counter_monotone);
          Alcotest.test_case "counter always live" `Quick (clean test_counter_always_live);
        ] );
      ( "registry",
        [
          Alcotest.test_case "expose idempotent" `Quick (clean test_registry_expose_idempotent);
          Alcotest.test_case "validation" `Quick (clean test_registry_validation);
          Alcotest.test_case "snapshot sorted" `Quick (clean test_registry_snapshot_sorted);
          Alcotest.test_case "reset and clear" `Quick (clean test_registry_reset_and_clear);
        ] );
      ( "sink",
        [
          Alcotest.test_case "prometheus" `Quick (clean test_prometheus_sink);
        ] );
      ( "plane",
        [
          Alcotest.test_case "no lost increments" `Quick (clean test_plane_no_lost_increments);
          Alcotest.test_case "snapshot and reset under writers" `Quick
            (clean test_plane_snapshot_reset_under_writers);
        ] );
      ( "latency",
        [
          Alcotest.test_case "basic quantiles" `Quick (clean test_latency_basic);
          Alcotest.test_case "merged across domains" `Quick (clean test_latency_merged_domains);
          Alcotest.test_case "time and reset" `Quick (clean test_latency_time_and_reset);
          Alcotest.test_case "sinks" `Quick (clean test_latency_sinks);
          Alcotest.test_case "zero-sample sinks" `Quick (clean test_latency_zero_sample_sinks);
          Alcotest.test_case "tracker name validation" `Quick (clean test_latency_name_validation);
        ] );
    ]
