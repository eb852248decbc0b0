(* The measured run: set the tree up several times, drive the workload's
   traffic through a warm-up and the measured window, gate the answers,
   and shut everything down. *)

module Client = Sh_net.Client
module Wire = Sh_net.Wire

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* A percentile metric, absent without samples. *)
let pct name unit buf p = Option.map (m name unit) (Stats.quantile buf p)

let setups = 9

(* Drive the workload's traffic over [w] on the tree's two connections:
   one on this domain, one on a second. *)
let drive (spec : Spec.t) (tree : Servers.t) ~seed w =
  let l0 = Load.lane () and l1 = Load.lane () in
  let queries = Load.queries spec ~seed in
  (match spec.loop with
  | Closed { depth; query_every } ->
    let go c ?queries lane () =
      Load.closed ~client:tree.conns.(c) ~ks:tree.ks ~pick:(Load.picker spec ~seed c)
        ~batch:spec.batch ~depth ?queries w lane
    in
    let d = Domain.spawn (go 1 ~queries:(queries, query_every, spec.global_every) l1) in
    go 0 l0 ();
    Domain.join d
  | Open { points_per_s; batches_per_s } ->
    let d =
      Domain.spawn (fun () ->
          Load.open_queries ~client:tree.conns.(1) ~queries
            ~arrivals:(Load.child ~seed (Load.arrivals_ix spec 1))
            ~batches_per_s ~global_every:spec.global_every w l1)
    in
    Load.open_ingest ~client:tree.conns.(0) ~ks:tree.ks ~pick:(Load.picker spec ~seed 0)
      ~arrivals:(Load.child ~seed (Load.arrivals_ix spec 0))
      ~batch:spec.batch ~points_per_s w l0;
    Domain.join d);
  [ l0; l1 ]

(* Per-layer figures read from outside the serving processes, as deltas
   over a phase: registry counters (Metrics), engine Stats, and the bytes
   on connection 0, which carries ingest only. *)
type snapshot = { counters : (string, float) Hashtbl.t; stats : Wire.stats; wire_bytes : int }

let snapshot (tree : Servers.t) =
  {
    counters = Servers.counters tree;
    stats = Servers.stats tree;
    wire_bytes = Client.bytes_in tree.conns.(0) + Client.bytes_out tree.conns.(0);
  }

let counter_metrics s0 s1 ~lanes =
  let delta family =
    match (Hashtbl.find_opt s0.counters family, Hashtbl.find_opt s1.counters family) with
    | Some a, Some b -> Some (b -. a)
    | _ -> None
  in
  let ratio name unit ?(scale = 1.0) num den =
    match (num, den) with
    | Some a, Some b when b > 0.0 -> Some (m name unit (scale *. a /. b))
    | _ -> None
  in
  let fi x = Some (Float.of_int x) in
  let points = fi (s1.stats.total_points - s0.stats.total_points) in
  let refreshes = delta "fw_refreshes_total" in
  let late = Stats.create () in
  List.iter (fun (l : Load.lane) -> Stats.append late l.late_ms) lanes;
  List.filter_map Fun.id
    [
      ratio "net.bytes_per_point" "B"
        (fi (s1.wire_bytes - s0.wire_bytes))
        (fi (List.hd lanes : Load.lane).sent_points);
      ratio "net.points_per_round" "points" points (fi (s1.stats.batches - s0.stats.batches));
      ratio "engine.views_per_kpoint" "count" ~scale:1e3
        (fi (s1.stats.snapshots_published - s0.stats.snapshots_published))
        points;
      Some
        (m "engine.backpressure_waits" "count"
           (Float.of_int (s1.stats.backpressure_waits - s0.stats.backpressure_waits)));
      ratio "fw.refreshes_per_kpoint" "count" ~scale:1e3 refreshes points;
      ratio "fw.herror_evals_per_refresh" "count" (delta "fw_herror_evals_total") refreshes;
      ratio "fw.scan_steps_per_refresh" "count" (delta "fw_scan_steps_total") refreshes;
      ratio "fw.memo_hit_rate" "ratio" (delta "fw_memo_hits_total") (delta "fw_memo_probes_total");
      pct "loadgen.late_p99_ms" "ms" late 0.99;
    ]

type outcome = {
  metrics : metric list;  (** end-to-end *)
  layers : metric list;  (** per-layer figures the run measured on the way *)
  attempted : int;
  failed : int;
  problems : string list;
}

(* Set up [setups] times (the last tree stays up) and report the median
   set-up time. *)
let setup_median spec ~seed =
  let times = Stats.create () in
  let rec go i =
    let tree, dt = Servers.setup spec ~seed in
    Stats.add times dt;
    if i = setups then tree
    else
      match Servers.teardown tree with
      | [] -> go (i + 1)
      | errs -> failwith (String.concat "; " errs)
  in
  let tree = go 1 in
  (tree, Option.get (Stats.median times))

let lane_totals lanes =
  List.fold_left
    (fun (a, f, errs) (l : Load.lane) ->
      (a + l.attempted, f + l.failed, Option.to_list l.error @ errs))
    (0, 0, []) lanes

(* The median and p90 of a latency sample; p99 too once at least ten
   samples lie beyond it. *)
let latencies prefix buf =
  [
    pct (prefix ^ "_p50_ms") "ms" buf 0.5;
    pct (prefix ^ "_p90_ms") "ms" buf 0.9;
    (if Stats.count buf >= 1000 then pct (prefix ^ "_p99_ms") "ms" buf 0.99 else None);
  ]

let run (spec : Spec.t) ~seed ~seconds ~warmup =
  let tree, setup_s = setup_median spec ~seed in
  let s0 = snapshot tree in
  let t = Stats.now () in
  let w = { Load.t_start = t; t_measure = t +. warmup; t_end = t +. warmup +. seconds } in
  let cpu0 = Servers.cpu_seconds tree in
  let lanes = drive spec tree ~seed w in
  let cpu1 = Servers.cpu_seconds tree in
  let s1 = snapshot tree in
  let rss = Servers.peak_rss_mb tree in
  let gate = Gate.run spec ~seed ~client:tree.conns.(0) ~ks:tree.ks in
  let exits = Servers.teardown tree in
  let all = Load.lane () in
  List.iter
    (fun (l : Load.lane) ->
      Stats.append all.ingest_ms l.ingest_ms;
      Stats.append all.query_ms l.query_ms;
      Stats.append all.global_ms l.global_ms;
      all.acked <- all.acked + l.acked)
    lanes;
  let attempted, failed, errs = lane_totals lanes in
  let attempted = attempted + gate.attempted + List.length (Servers.procs tree) in
  let failed = failed + gate.failed + List.length exits in
  let metrics =
    List.filter_map Fun.id
      ([
         Some (m "setup_s" "s" setup_s);
         Some (m "ingest_pps" "points/s" (Float.of_int all.acked /. seconds));
       ]
      @ latencies "ingest_ack" all.ingest_ms
      @ latencies "query" all.query_ms
      @ latencies "global_query" all.global_ms
      @ [
          Some (m "fail_frac" "ratio" (Float.of_int failed /. Float.of_int (max 1 attempted)));
          Some (m "sse_ratio_max" "ratio" gate.sse_ratio_max);
          Some (m "range_sum_relerr_p95" "ratio" gate.range_sum_relerr_p95);
          Option.map (m "server_rss_mb" "MB") rss;
          (match (cpu0, cpu1) with
          | Some a, Some b ->
            let points = List.fold_left (fun acc (l : Load.lane) -> acc + l.sent_points) 0 lanes in
            Some (m "server_cpu_us_per_point" "us" ((b -. a) *. 1e6 /. Float.of_int (max 1 points)))
          | _ -> None);
        ])
  in
  let samples name buf = m ("samples." ^ name) "count" (Float.of_int (Stats.count buf)) in
  {
    metrics;
    layers =
      counter_metrics s0 s1 ~lanes
      @ [
          samples "ingest" all.ingest_ms;
          samples "query" all.query_ms;
          samples "global" all.global_ms;
        ];
    attempted;
    failed;
    problems = errs @ gate.problems @ exits;
  }
