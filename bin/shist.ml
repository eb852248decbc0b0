(* shist — command-line driver for the stream-histogram library.

   Subcommands:
     generate     synthesise a workload stream to a file
     build        build a histogram / wavelet synopsis of a data file
     stream       simulate fixed-window maintenance over a stream
     query        answer range-sum queries approximately and report error
     quantiles    one-pass GK quantile summary of a data file
     selectivity  value-histogram selectivity estimates
     heavy        Misra-Gries heavy hitters
     serve        multi-stream sharded ingest across a domain pool
                  (--listen serves the engine over the wire protocol)
     loadgen      drive a serve --listen endpoint over the wire *)

open Cmdliner

module Rng = Sh_util.Rng
module Source = Sh_gen.Source
module Wk = Sh_gen.Workloads
module P = Sh_prefix.Prefix_sums
module H = Sh_histogram.Histogram
module V = Sh_histogram.Vopt
module Heur = Sh_histogram.Heuristics
module FW = Stream_histogram.Fixed_window
module AG = Stream_histogram.Agglomerative
module EW = Stream_histogram.Exact_window
module Syn = Sh_wavelet.Synopsis
module E = Sh_query.Estimator
module Q = Sh_query.Workload
module Ev = Sh_query.Evaluate
module O = Sh_obs.Obs
module Lat = Sh_obs.Latency
module Pool = Sh_par.Domain_pool
module SE = Sh_par.Shard_engine
module Qop = Stream_histogram.Query_op
module Aggregator = Sh_agg.Aggregator
module Addr = Sh_net.Addr
module Net_server = Sh_net.Server
module Net_client = Sh_net.Client
module Wire = Sh_net.Wire
module Gk = Sh_gk.Gk

(* ------------------------------------------------------- common args *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (reproducible runs).")

let buckets_arg =
  Arg.(value & opt int 32 & info [ "b"; "buckets" ] ~docv:"B" ~doc:"Space budget in buckets.")

let epsilon_arg =
  Arg.(value & opt float 0.1 & info [ "e"; "epsilon" ] ~docv:"EPS" ~doc:"Approximation precision.")

let file_arg p =
  Arg.(required & pos p (some string) None & info [] ~docv:"FILE" ~doc:"Data file, one value per line.")

(* ---------------------------------------------------- telemetry args *)

let metrics_arg =
  let fmt_conv =
    let parse s =
      match O.format_of_string s with
      | Some f -> Ok f
      | None -> Error (`Msg (Printf.sprintf "bad metrics format %S (text | json | prom)" s))
    in
    Arg.conv (parse, fun ppf f -> Format.pp_print_string ppf (O.format_to_string f))
  in
  Arg.(
    value
    & opt (some fmt_conv) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Dump the metric registry on exit: $(b,text) aligned dump, $(b,json) JSON lines (one \
           series per line), $(b,prom) Prometheus text exposition.")

(* Dump the registry to stdout after the command's own output, even when
   [f] raises.  Counters and gauges are always live, so there is nothing
   to switch on first. *)
let with_metrics metrics f =
  let finish () = match metrics with None -> () | Some fmt -> print_string (O.render fmt) in
  Fun.protect ~finally:finish f

let policy_conv =
  let parse s =
    match Stream_histogram.Params.policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf "bad refresh policy %S (eager | lazy | every:K with K >= 1)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Stream_histogram.Params.policy_to_string p))

(* ------------------------------------------------------ wire serving *)

let addr_conv =
  let parse s =
    match Addr.of_string s with Ok a -> Ok a | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Addr.to_string a))

(* Bind every address, serve [backend] until the loop ends, then close the
   listeners, unlink their socket files and print the two [net:] report
   lines.  Returns the loop's report and the seconds it served. *)
let serve_wire ~config ?max_points ~backend addrs =
  let listeners =
    List.map
      (fun a ->
        let fd = Net_server.listen a in
        Printf.printf "listening on %s\n%!" (Addr.to_string a);
        fd)
      addrs
  in
  let t0 = Unix.gettimeofday () in
  let rep = Net_server.run ~config ?max_points ~backend ~listeners () in
  let elapsed = Unix.gettimeofday () -. t0 in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  List.iter
    (function
      | Addr.Unix_sock p -> ( try Unix.unlink p with Sys_error _ | Unix.Unix_error _ -> ())
      | Addr.Tcp _ -> ())
    addrs;
  Printf.printf
    "net: %d connection(s), %d frame(s) in, %d out, %d protocol error(s), %d idle close(s)\n"
    rep.Net_server.connections rep.Net_server.frames_in rep.Net_server.frames_out
    rep.Net_server.protocol_errors rep.Net_server.idle_closes;
  Printf.printf "net: %d bytes in, %d bytes out, %d ingest round(s)\n"
    rep.Net_server.bytes_in rep.Net_server.bytes_out rep.Net_server.ingest_rounds;
  (rep, elapsed)

(* --------------------------------------------------------- generate *)

let generate_cmd =
  let workload =
    Arg.(
      value
      & opt (enum [ ("network", `Network); ("walk", `Walk); ("steps", `Steps); ("clicks", `Clicks); ("uniform", `Uniform) ]) `Network
      & info [ "w"; "workload" ] ~docv:"KIND" ~doc:"Workload: network | walk | steps | clicks | uniform.")
  in
  let count =
    Arg.(value & opt int 100_000 & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of points.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run workload count out seed =
    let rng = Rng.create ~seed in
    let source =
      match workload with
      | `Network -> Wk.network rng Wk.default_network
      | `Walk -> Wk.random_walk rng ()
      | `Steps -> Wk.step_signal rng ()
      | `Clicks -> Wk.click_counts rng ()
      | `Uniform -> Wk.uniform_noise rng ~lo:0.0 ~hi:10_000.0
    in
    Source.to_file out (Source.take source count);
    Printf.printf "wrote %d points to %s\n" count out
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesise a workload stream to a file")
    Term.(const run $ workload $ count $ out $ seed_arg)

(* ------------------------------------------------------------ build *)

let build_cmd =
  let algo =
    Arg.(
      value
      & opt
          (enum
             [ ("vopt", `Vopt); ("agglomerative", `Agg); ("wavelet", `Wavelet);
               ("equiwidth", `Equi); ("maxdiff", `Maxdiff); ("greedy", `Greedy) ])
          `Agg
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:"vopt | agglomerative | wavelet | equiwidth | maxdiff | greedy.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every bucket, not just the summary.")
  in
  let run algo file buckets epsilon verbose =
    let data = Source.of_file file in
    let n = Array.length data in
    let p = P.make data in
    let describe name sse buckets_used pp_detail =
      Printf.printf "%s: n=%d space=%d SSE=%.6g RMSE/point=%.6g\n" name n buckets_used sse
        (sqrt (sse /. Float.of_int n));
      if verbose then pp_detail ()
    in
    match algo with
    | `Wavelet ->
      let s = Syn.build data ~coeffs:buckets in
      describe "wavelet" (Syn.sse_against s data) (Syn.stored_coefficients s) (fun () -> ())
    | (`Vopt | `Agg | `Equi | `Maxdiff | `Greedy) as a ->
      let h =
        match a with
        | `Vopt -> V.build_prefix p ~buckets
        | `Equi -> Heur.equi_width p ~buckets
        | `Maxdiff -> Heur.max_diff p ~values:data ~buckets
        | `Greedy -> Heur.greedy_merge p ~buckets
        | `Agg ->
          let ag = AG.create ~buckets ~epsilon in
          Array.iter (AG.push ag) data;
          AG.current_histogram ag
      in
      let name =
        match a with
        | `Vopt -> "vopt" | `Equi -> "equiwidth" | `Maxdiff -> "maxdiff"
        | `Greedy -> "greedy" | `Agg -> "agglomerative"
      in
      describe name (H.sse_against h p) (H.bucket_count h) (fun () ->
          Format.printf "%a@." H.pp h)
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a synopsis of a data file and report its SSE")
    Term.(const run $ algo $ file_arg 0 $ buckets_arg $ epsilon_arg $ verbose)

(* ----------------------------------------------------------- stream *)

let stream_cmd =
  let window =
    Arg.(value & opt int 1024 & info [ "n"; "window" ] ~docv:"N" ~doc:"Sliding window length.")
  in
  let report =
    Arg.(value & opt int 1000 & info [ "report-every" ] ~docv:"K" ~doc:"Report every K points.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Stream_histogram.Params.Lazy
      & info [ "refresh" ] ~docv:"POLICY"
          ~doc:
            "Arrival-time rebuild policy: $(b,eager) rebuilds on every point (the paper's cost \
             model), $(b,lazy) only at queries, $(b,every:K) with K >= 1 amortises bulk loads \
             over K points ($(b,every:1) matches eager's cadence).")
  in
  let run file window buckets epsilon report policy metrics =
    with_metrics metrics @@ fun () ->
    let data = Source.of_file file in
    let fw = FW.create ~window ~buckets ~epsilon in
    FW.set_refresh_policy fw policy;
    Array.iteri
      (fun i v ->
        FW.push fw v;
        if (i + 1) mod report = 0 then begin
          let err = FW.current_error fw in
          let h = FW.current_histogram fw in
          Printf.printf "t=%8d window=%d herror=%.6g buckets=%d\n%!" (i + 1) (FW.length fw) err
            (H.bucket_count h)
        end)
      data;
    let c = FW.work_counters fw in
    Printf.printf "done (%s): %d refreshes (%d warm, %d cold), %d herror evaluations, %d intervals built\n"
      (Stream_histogram.Params.policy_to_string policy)
      c.FW.refreshes c.FW.warm_refreshes c.FW.cold_refreshes c.FW.herror_evaluations
      c.FW.intervals_built;
    Printf.printf
      "warm-start: %d search steps (%d in candidate scans), %d scan candidates, %d hint hits / %d misses\n"
      c.FW.search_steps c.FW.scan_steps c.FW.scan_candidates c.FW.hint_hits c.FW.hint_misses;
    if c.FW.memo_probes > 0 then
      Printf.printf "herror memo: %d hits / %d probes (%.1f%% hit rate)\n" c.FW.memo_hits
        c.FW.memo_probes
        (100.0 *. Float.of_int c.FW.memo_hits /. Float.of_int c.FW.memo_probes)
  in
  Cmd.v
    (Cmd.info "stream" ~doc:"Maintain a fixed-window histogram over a stream file")
    Term.(
      const run $ file_arg 0 $ window $ buckets_arg $ epsilon_arg $ report $ policy
      $ metrics_arg)

(* ------------------------------------------------------------ query *)

let query_cmd =
  let queries =
    Arg.(value & opt int 1000 & info [ "q"; "queries" ] ~docv:"Q" ~doc:"Number of random range-sum queries.")
  in
  let run file buckets epsilon queries seed metrics =
    with_metrics metrics @@ fun () ->
    let data = Source.of_file file in
    let n = Array.length data in
    let p = P.make data in
    let truth = E.exact p in
    let qs = Q.random_ranges (Rng.create ~seed) ~n ~count:queries in
    let report name est =
      let s = Ev.range_sum_errors ~truth est qs in
      Format.printf "%-14s %a@." name Sh_util.Metrics.pp_summary s
    in
    let ag = AG.create ~buckets ~epsilon in
    Array.iter (AG.push ag) data;
    report "agglomerative" (E.of_histogram (AG.current_histogram ag));
    report "vopt" (E.of_histogram (V.build_prefix p ~buckets));
    report "wavelet" (E.of_wavelet (Syn.build data ~coeffs:buckets));
    report "equiwidth" (E.of_histogram (Heur.equi_width p ~buckets))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Compare synopses on random range-sum queries over a data file")
    Term.(
      const run $ file_arg 0 $ buckets_arg $ epsilon_arg $ queries $ seed_arg $ metrics_arg)

(* ------------------------------------------------------ selectivity *)

let selectivity_cmd =
  let preds =
    Arg.(
      value
      & opt (list (pair ~sep:':' float float)) [ (0.0, 100.0) ]
      & info [ "p"; "predicates" ] ~docv:"LO:HI,..."
          ~doc:"Comma-separated value ranges to estimate selectivity for.")
  in
  let run file buckets preds metrics =
    with_metrics metrics @@ fun () ->
    let data = Source.of_file file in
    let n = Array.length data in
    let module VH = Sh_selectivity.Value_histogram in
    let truth lo hi =
      let c = Array.fold_left (fun a v -> if v >= lo && v <= hi then a + 1 else a) 0 data in
      Float.of_int c /. Float.of_int n
    in
    let methods =
      [
        ("equi-width", VH.equi_width data ~buckets);
        ("equi-depth", VH.equi_depth data ~buckets);
        ("v-optimal", VH.v_optimal data ~buckets ~domain_bins:(8 * buckets));
      ]
    in
    List.iter
      (fun (lo, hi) ->
        Printf.printf "v IN [%g, %g]: true %.4f" lo hi (truth lo hi);
        List.iter
          (fun (name, h) -> Printf.printf "  %s %.4f" name (VH.selectivity_range h ~lo ~hi))
          methods;
        print_newline ())
      preds
  in
  Cmd.v
    (Cmd.info "selectivity" ~doc:"Value-histogram selectivity estimates over a data file")
    Term.(const run $ file_arg 0 $ buckets_arg $ preds $ metrics_arg)

(* ------------------------------------------------------------ heavy *)

let heavy_cmd =
  let capacity =
    Arg.(value & opt int 20 & info [ "k"; "capacity" ] ~docv:"K" ~doc:"Counters to keep.")
  in
  let threshold =
    Arg.(value & opt float 0.01 & info [ "t"; "threshold" ] ~docv:"F" ~doc:"Frequency threshold.")
  in
  let run file capacity threshold metrics =
    with_metrics metrics @@ fun () ->
    let data = Source.of_file file in
    let h = Sh_mining.Heavy_hitters.create ~capacity in
    Array.iter (Sh_mining.Heavy_hitters.add h) data;
    Printf.printf "n=%d, values at frequency >= %g:\n" (Sh_mining.Heavy_hitters.total h) threshold;
    List.iter
      (fun (v, c) ->
        Printf.printf "  %10g  count >= %d (%.2f%%)\n" v c
          (100.0 *. Float.of_int c /. Float.of_int (Sh_mining.Heavy_hitters.total h)))
      (Sh_mining.Heavy_hitters.heavy_hitters h ~threshold)
  in
  Cmd.v
    (Cmd.info "heavy" ~doc:"Misra-Gries heavy hitters of a data file")
    Term.(const run $ file_arg 0 $ capacity $ threshold $ metrics_arg)

(* ------------------------------------------------------------ serve *)

(* The end-of-run report both serve modes print after their [serve:]
   line: the lock-freedom witnesses, query and ingest throughput (plus
   the reader's lag histogram when one ran), and the latency quantiles. *)
let print_serve_report eng ~latency_window ~served ~query_elapsed ~lag ~points ~elapsed =
  Printf.printf "pinned: %d refresh steal(s), %d lock op(s)\n" (SE.refresh_steals eng)
    (SE.lock_ops eng);
  Printf.printf "queries: %d served, %.0f queries/s, query_lock_ops=%d\n" served
    (Float.of_int served /. Float.max query_elapsed 1e-9)
    (SE.query_lock_ops eng);
  Option.iter
    (fun lag ->
      Printf.printf "query lag histogram: lag0=%d lag1=%d lag2plus=%d\n" lag.(0) lag.(1)
        lag.(2))
    lag;
  Printf.printf "elapsed %.3fs  throughput %.0f points/s\n" elapsed
    (Float.of_int points /. Float.max elapsed 1e-9);
  match List.filter (fun t -> Lat.count t > 0) (Lat.snapshot ()) with
  | [] -> ()
  | lats ->
    Printf.printf "latency quantiles%s (ms):\n"
      (if latency_window > 0 then Printf.sprintf ", last %d batches" latency_window else "");
    List.iter
      (fun t ->
        Printf.printf "  %-22s count=%-8d" (Lat.name t) (Lat.count t);
        List.iter
          (fun phi ->
            match Lat.quantile t phi with
            | Some v -> Printf.printf " %s=%.4g" (Sh_obs.Sink.phi_label phi) (1e3 *. v)
            | None -> ())
          Lat.percentiles;
        print_newline ())
      lats

let serve_cmd =
  let shards =
    Arg.(value & opt int 16 & info [ "s"; "shards" ] ~docv:"S" ~doc:"Independent stream keys.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "d"; "domains" ] ~docv:"N"
          ~doc:"Domain-pool size; 1 runs every shard inline (the sequential baseline).")
  in
  let count =
    Arg.(value & opt int 100_000 & info [ "n"; "count" ] ~docv:"N" ~doc:"Total points across all streams.")
  in
  let batch =
    Arg.(value & opt int 512 & info [ "batch" ] ~docv:"B" ~doc:"Arrivals ingested per batch.")
  in
  let window =
    Arg.(value & opt int 1024 & info [ "window" ] ~docv:"W" ~doc:"Sliding window length per stream.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv (Stream_histogram.Params.Every 256)
      & info [ "refresh" ] ~docv:"POLICY"
          ~doc:"Per-shard rebuild policy: eager | lazy | every:K (K >= 1).")
  in
  let dist =
    Arg.(
      value
      & opt (enum [ ("uniform", `Uniform); ("zipf", `Zipf); ("roundrobin", `RoundRobin) ]) `Uniform
      & info [ "dist" ] ~docv:"DIST"
          ~doc:"Key distribution across shards: $(b,uniform), $(b,zipf) (skewed hot shards), \
                $(b,roundrobin) (perfectly balanced).")
  in
  let skew =
    Arg.(value & opt float 1.1 & info [ "skew" ] ~docv:"A" ~doc:"Zipf skew (with --dist zipf).")
  in
  let checkpoint_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write an atomic engine checkpoint to $(docv) when the run completes (and \
             periodically with $(b,--checkpoint-every)).")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:"Also checkpoint after every K batches (K >= 1; requires $(b,--checkpoint)).")
  in
  let restore_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "restore" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint: shard count, window geometry and per-shard state come \
             from $(docv) ($(b,--shards)/$(b,--window) etc. are ignored); the run then ingests \
             $(b,-n) further points.")
  in
  let record_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Continuous evaluation: append one JSONL sample to $(docv) every \
             $(b,--record-every) batches — items ingested, ns/point, an exact-oracle SSE spot \
             check on a rotating key, the major heap's size in words (column \
             $(i,resident_words): free space included, so neither RSS nor live data), \
             steal/lock counters and the latency quantiles.")
  in
  let record_every =
    Arg.(
      value & opt int 1
      & info [ "record-every" ] ~docv:"K"
          ~doc:"Sample cadence in batches for $(b,--record) (K >= 1).")
  in
  let latency_window =
    Arg.(
      value & opt int 0
      & info [ "latency-window" ] ~docv:"K"
          ~doc:
            "Answer latency quantiles over the last K batches only (0, the default, means \
             all-time).")
  in
  let query_mix =
    Arg.(
      value & opt float 0.0
      & info [ "query-mix" ] ~docv:"R"
          ~doc:
            "Run estimation queries concurrent with ingest from a dedicated reader domain, \
             pacing towards $(docv) queries per ingested point (0, the default, disables \
             query traffic).  Queries answer from the wait-free published snapshots — zero \
             mutex acquisitions, witnessed by the end-of-run $(b,query_lock_ops=0) — and the \
             report counts queries served, throughput and snapshot generation lag.")
  in
  let listen =
    Arg.(
      value
      & opt_all addr_conv []
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve the engine over the wire protocol instead of generating a local stream: \
             accept connections on $(docv) ($(b,unix:PATH), $(b,tcp:HOST:PORT), \
             $(b,HOST:PORT) or $(b,:PORT); repeatable).  Clients drive ingest and queries \
             ($(b,shist loadgen)); the generation flags ($(b,-n), $(b,--batch), $(b,--dist), \
             $(b,--query-mix), $(b,--record)) are ignored.  The run ends when a client sends \
             shutdown or $(b,--max-points) points have arrived.")
  in
  let max_points =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-points" ] ~docv:"N"
          ~doc:"With $(b,--listen): stop serving after $(docv) points have been ingested.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:
            "With $(b,--listen): close a connection that sits on a partial frame (or never \
             completes its preamble) for $(docv) seconds — the slow-loris guard.")
  in
  let run shards domains count batch window buckets epsilon policy dist skew seed metrics
      checkpoint_file checkpoint_every restore_file record_file record_every
      latency_window query_mix listen max_points idle_timeout =
    with_metrics metrics @@ fun () ->
    if batch < 1 then invalid_arg "serve: --batch must be >= 1";
    if record_every < 1 then invalid_arg "serve: --record-every must be >= 1";
    if latency_window < 0 then invalid_arg "serve: --latency-window must be >= 0";
    if query_mix < 0.0 || not (Float.is_finite query_mix) then
      invalid_arg "serve: --query-mix must be a finite ratio >= 0";
    (match checkpoint_every with
     | Some k when k < 1 -> invalid_arg "serve: --checkpoint-every must be >= 1"
     | Some _ when checkpoint_file = None ->
       invalid_arg "serve: --checkpoint-every requires --checkpoint"
     | _ -> ());
    (* serve always collects latency quantiles: a GK insert per timed
       section is far below the batch work it measures, and the end-of-run
       report depends on it. *)
    O.set_latency_enabled true;
    (* CLOCK_MONOTONIC: a wall clock can step, making a duration negative
       (dropped) or huge. *)
    O.set_clock (fun () -> Int64.to_float (Monotonic_clock.now ()) *. 1e-9);
    Lat.set_window latency_window;
    let host_cores = Domain.recommended_domain_count () in
    if domains > host_cores then
      Printf.eprintf
        "serve: warning: --domains %d exceeds the %d core(s) this host reports; \
         expect oversubscription, not speedup\n%!"
        domains host_cores;
    Pool.with_pool ~domains @@ fun pool ->
    let eng =
      match restore_file with
      | None -> SE.create ~pool ~shards ~window ~buckets ~epsilon
      | Some file ->
        let eng = SE.restore_from ~pool ~file in
        Printf.printf "restored %d shards (%d points) from %s\n" (SE.shard_count eng)
          (SE.total_points eng) file;
        eng
    in
    SE.set_refresh_policy eng policy;
    let shards = SE.shard_count eng in
    if listen <> [] then begin
      (* ---- network mode: clients drive ingest and queries ------------- *)
      let config = { Net_server.idle_timeout; checkpoint = checkpoint_file; checkpoint_every } in
      let rep, elapsed =
        serve_wire ~config ?max_points ~backend:(Net_server.engine eng) listen
      in
      (match checkpoint_file with
       | Some file when rep.Net_server.checkpoints_written > 0 ->
         Printf.printf "checkpoint: wrote %s (%d write(s))\n" file
           rep.Net_server.checkpoints_written
       | _ -> ());
      Printf.printf "serve: %d points, %d batches over %d shards, %d domains (%s)\n"
        (SE.total_points eng) (SE.batches eng) shards domains
        (Stream_histogram.Params.policy_to_string policy);
      print_serve_report eng ~latency_window ~served:rep.Net_server.queries_served
        ~query_elapsed:elapsed ~lag:None ~points:rep.Net_server.points ~elapsed
    end
    else begin
    let root = Rng.create ~seed in
    (* Every shard owns a deterministic value stream derived from the root
       seed and its key alone (split_ix), so a run is reproducible for any
       --domains and any key distribution. *)
    let sources =
      Array.init shards (fun k -> Wk.network (Rng.split_ix root k) Wk.default_network)
    in
    let key_rng = Rng.split_ix root shards in
    let rr = ref 0 in
    let next_key =
      match dist with
      | `Uniform -> fun () -> Rng.int key_rng shards
      | `Zipf -> fun () -> Rng.zipf key_rng ~n:shards ~skew - 1
      | `RoundRobin ->
        fun () ->
          let k = !rr in
          rr := (k + 1) mod shards;
          k
    in
    let checkpoints = ref 0 in
    let write_checkpoint () =
      match checkpoint_file with
      | None -> ()
      | Some file ->
        SE.checkpoint eng ~file;
        incr checkpoints
    in
    (* --- continuous-evaluation recorder --------------------------------
       One exact baseline per key mirrors the content of that shard's
       window on the caller, so a sample can score the engine histogram
       against the exact values it summarises and report that SSE next to
       the V-optimal optimum.  After --restore the baselines start empty
       while the engine windows do not, so the spot check only reports once
       that key's baseline has filled. *)
    let eng_window, eng_buckets =
      SE.with_key eng ~key:0 ~f:(fun fw -> (FW.window fw, FW.buckets fw))
    in
    let recording = record_file <> None in
    let restored = restore_file <> None in
    let rec_oc =
      match record_file with
      | None -> None
      | Some f -> Some (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 f)
    in
    let exact =
      if recording then
        Array.init shards (fun _ -> EW.create ~window:eng_window ~buckets:eng_buckets)
      else [||]
    in
    let samples = ref 0 in
    let last_sample_t = ref (Unix.gettimeofday ()) in
    let last_sample_pts = ref (SE.total_points eng) in
    let emit_sample oc =
      let now = Unix.gettimeofday () in
      let pts = SE.total_points eng in
      let d_pts = pts - !last_sample_pts in
      let ns_per_point =
        if d_pts > 0 then (now -. !last_sample_t) *. 1e9 /. Float.of_int d_pts else 0.0
      in
      last_sample_t := now;
      last_sample_pts := pts;
      let spot_key = !samples mod shards in
      incr samples;
      let ew = exact.(spot_key) in
      let spot_n = EW.length ew in
      let spot_valid = spot_n > 0 && ((not restored) || spot_n = eng_window) in
      let sse, sse_opt =
        if not spot_valid then (0.0, 0.0)
        else begin
          (* the live summary, not the published view: the baseline
             mirrors the live window exactly, so the SSE spot check must
             read through [with_key] or a stale [Pinned] view would be
             scored against data it has not seen yet *)
          let h = SE.with_key eng ~key:spot_key ~f:FW.current_histogram in
          (EW.sse ew h, EW.sse ew (EW.current_histogram ew))
        end
      in
      let heap_words = (Gc.quick_stat ()).Gc.heap_words in
      let buf = Buffer.create 512 in
      Printf.bprintf buf
        "{\"batches\":%d,\"items\":%d,\"ns_per_point\":%.6g,\"spot_key\":%d,\"spot_n\":%d,\
         \"spot_valid\":%b,\"sse\":%.9g,\"sse_opt\":%.9g,\"resident_words\":%d,\
         \"refresh_steals\":%d,\"lock_ops\":%d,\"latency\":{"
        (SE.batches eng) pts ns_per_point spot_key spot_n spot_valid sse sse_opt
        heap_words (SE.refresh_steals eng) (SE.lock_ops eng);
      let first = ref true in
      List.iter
        (fun t ->
          if Lat.count t > 0 then begin
            if not !first then Buffer.add_char buf ',';
            first := false;
            Printf.bprintf buf "\"%s\":{\"count\":%d" (Lat.name t) (Lat.count t);
            List.iter
              (fun phi ->
                match Lat.quantile t phi with
                | Some v -> Printf.bprintf buf ",\"%s\":%.9g" (Sh_obs.Sink.phi_label phi) v
                | None -> ())
              Lat.percentiles;
            Buffer.add_char buf '}'
          end)
        (Lat.snapshot ());
      Buffer.add_string buf "}}\n";
      output_string oc (Buffer.contents buf);
      flush oc
    in
    (* --- concurrent query traffic ---------------------------------------
       A reader domain outside the ingest pool fires batched estimation
       queries while the stream is live.  Every answer comes off the
       wait-free published snapshots — zero mutex acquisitions, which the
       report proves via engine.query_lock_ops — and the reader also
       samples the snapshot generation lag of random shards into a tiny
       histogram (the staleness contract, observed).  One scope in
       sixteen is [Global] — the all-keys fold over the published
       views. *)
    let q_stop = Atomic.make false in
    let query_domain =
      if query_mix <= 0.0 then None
      else
        Some
          (Domain.spawn (fun () ->
               let qrng = Rng.split_ix root (shards + 1) in
               let qbatch = 64 in
               let qs = Array.make qbatch (Qop.Key 0, Qop.Current_error) in
               let served = ref 0 in
               let lag = [| 0; 0; 0 |] in
               while not (Atomic.get q_stop) do
                 let target =
                   Float.to_int (query_mix *. Float.of_int (SE.total_points eng))
                 in
                 if !served >= target then Domain.cpu_relax ()
                 else begin
                   for i = 0 to qbatch - 1 do
                     let scope =
                       if Rng.int qrng 16 = 0 then Qop.Global
                       else Qop.Key (Rng.int qrng shards)
                     in
                     let q =
                       match Rng.int qrng 5 with
                       | 0 -> Qop.Current_error
                       | 1 -> Qop.Window_length
                       | 2 ->
                         Qop.Herror
                           {
                             k = 1 + Rng.int qrng eng_buckets;
                             x = Rng.int qrng (eng_window + 1);
                           }
                       | 3 ->
                         let lo = 1 + Rng.int qrng eng_window in
                         Qop.Range_sum { lo; hi = lo + Rng.int qrng eng_window }
                       | _ -> Qop.Point_estimate { index = 1 + Rng.int qrng eng_window }
                     in
                     qs.(i) <- (scope, q)
                   done;
                   ignore (SE.query_many eng qs);
                   served := !served + qbatch;
                   let l = SE.generation_lag eng ~key:(Rng.int qrng shards) in
                   let b = if l = 0 then 0 else if l = 1 then 1 else 2 in
                   lag.(b) <- lag.(b) + 1
                 end
               done;
               (!served, lag)))
    in
    let t0 = Unix.gettimeofday () in
    let remaining = ref count in
    let batches_done = ref 0 in
    while !remaining > 0 do
      let b = min batch !remaining in
      let arrivals =
        Array.init b (fun _ ->
            let k = next_key () in
            (k, sources.(k) ()))
      in
      SE.ingest eng arrivals;
      if recording then Array.iter (fun (k, v) -> EW.push exact.(k) v) arrivals;
      remaining := !remaining - b;
      incr batches_done;
      (match rec_oc with
      | Some oc when !batches_done mod record_every = 0 -> emit_sample oc
      | _ -> ());
      match checkpoint_every with
      | Some k when !batches_done mod k = 0 -> write_checkpoint ()
      | _ -> ()
    done;
    let query_report =
      match query_domain with
      | None -> None
      | Some d ->
        Atomic.set q_stop true;
        Some (Domain.join d, Unix.gettimeofday () -. t0)
    in
    SE.refresh_all eng;
    write_checkpoint ();
    (match rec_oc with
    | Some oc ->
      emit_sample oc;
      close_out oc;
      Printf.printf "record: %d sample(s) appended to %s\n" !samples
        (Option.value record_file ~default:"")
    | None -> ());
    (match checkpoint_file with
     | Some file -> Printf.printf "checkpoint: wrote %s (%d write(s))\n" file !checkpoints
     | None -> ());
    let elapsed = Unix.gettimeofday () -. t0 in
    Printf.printf "serve: %d points, %d batches of <=%d over %d shards, %d domains (%s)\n"
      (SE.total_points eng) (SE.batches eng) batch shards domains
      (Stream_histogram.Params.policy_to_string policy);
    (* With no query traffic the queries line still prints, with the
       lock-op witness, which must be 0 even for the ingest-only run. *)
    let served, query_elapsed, lag =
      match query_report with
      | None -> (0, elapsed, None)
      | Some ((served, lag), q_elapsed) -> (served, q_elapsed, Some lag)
    in
    print_serve_report eng ~latency_window ~served ~query_elapsed ~lag ~points:count
      ~elapsed;
    let tot_refreshes, tot_intervals =
      SE.fold eng ~init:(0, 0) ~f:(fun (r, iv) key fw ->
          let c = FW.work_counters fw in
          Printf.printf "  key %3d: n=%d herror=%.6g refreshes=%d (%d warm)\n" key (FW.length fw)
            (FW.current_error fw) c.FW.refreshes c.FW.warm_refreshes;
          (r + c.FW.refreshes, iv + c.FW.intervals_built))
    in
    Printf.printf "total: %d refreshes, %d intervals built\n" tot_refreshes tot_intervals
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Ingest many independent streams in parallel across a sharded domain pool")
    Term.(
      const run $ shards $ domains $ count $ batch $ window $ buckets_arg $ epsilon_arg $ policy
      $ dist $ skew $ seed_arg $ metrics_arg $ checkpoint_file $ checkpoint_every
      $ restore_file $ record_file $ record_every $ latency_window $ query_mix
      $ listen $ max_points $ idle_timeout)

(* ---------------------------------------------------------- loadgen *)

let loadgen_cmd =
  let connect =
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Server address: $(b,unix:PATH), $(b,tcp:HOST:PORT), $(b,HOST:PORT) or $(b,:PORT).")
  in
  let connections =
    Arg.(
      value & opt int 4
      & info [ "c"; "connections" ] ~docv:"C" ~doc:"Concurrent connections (>= 1).")
  in
  let batch =
    Arg.(value & opt int 512 & info [ "batch" ] ~docv:"B" ~doc:"Points per ingest request.")
  in
  let count =
    Arg.(
      value & opt int 100_000
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Total points to ingest across all connections.")
  in
  let dist =
    Arg.(
      value
      & opt (enum [ ("uniform", `Uniform); ("zipf", `Zipf); ("roundrobin", `RoundRobin) ]) `Uniform
      & info [ "dist" ] ~docv:"DIST" ~doc:"Key distribution: uniform | zipf | roundrobin.")
  in
  let skew =
    Arg.(value & opt float 1.1 & info [ "skew" ] ~docv:"A" ~doc:"Zipf skew (with --dist zipf).")
  in
  let query_mix =
    Arg.(
      value & opt float 0.0
      & info [ "query-mix" ] ~docv:"R"
          ~doc:"Interleave estimation queries, pacing towards $(docv) queries per ingested point.")
  in
  let global_mix =
    Arg.(
      value & opt float 0.0
      & info [ "global-mix" ] ~docv:"F"
          ~doc:
            "Fraction of $(b,--query-mix) traffic scoped $(b,global) (over all keys) instead of \
             a single key — exercises the all-keys fold on a leaf and on an aggregator, which \
             folds its leaves' per-key answers.  The report counts degraded (partial) answers.")
  in
  let do_shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a shutdown request to the server when the run completes.")
  in
  let timeout =
    Arg.(
      value & opt float 10.0
      & info [ "timeout" ] ~docv:"SECS" ~doc:"Socket timeout for every wait on the server.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Reconnect budget: on a connection failure, retry up to $(docv) times (0.2s apart) \
             and resend the unacknowledged request — rides out a server restart without \
             dropping acknowledged points.")
  in
  let run addr connections batch count dist skew seed query_mix global_mix do_shutdown timeout
      retries =
    if connections < 1 then invalid_arg "loadgen: --connections must be >= 1";
    if batch < 1 then invalid_arg "loadgen: --batch must be >= 1";
    if count < 0 then invalid_arg "loadgen: --count must be >= 0";
    if query_mix < 0.0 || not (Float.is_finite query_mix) then
      invalid_arg "loadgen: --query-mix must be a finite ratio >= 0";
    if global_mix < 0.0 || global_mix > 1.0 || not (Float.is_finite global_mix) then
      invalid_arg "loadgen: --global-mix must be a fraction in [0, 1]";
    let connect_one () =
      Net_client.connect ~timeout ~retries ~retry_delay:0.2 addr
    in
    let conns = Array.init connections (fun _ -> connect_one ()) in
    (* Wire bytes of connections we replace after a failure still count. *)
    let dead_bytes_in = ref 0 and dead_bytes_out = ref 0 in
    let close_all () =
      Array.iter (fun c -> try Net_client.close c with _ -> ()) conns
    in
    Fun.protect ~finally:close_all @@ fun () ->
    (* Learn the engine geometry from the server rather than flags: the
       keys and spot checks must fit whatever engine is actually serving. *)
    let st = Net_client.stats conns.(0) in
    let shards = st.Wire.shards in
    let eng_window = st.Wire.window in
    let root = Rng.create ~seed in
    let sources =
      Array.init shards (fun k -> Wk.network (Rng.split_ix root k) Wk.default_network)
    in
    let key_rng = Rng.split_ix root shards in
    let rr = ref 0 in
    let next_key =
      match dist with
      | `Uniform -> fun () -> Rng.int key_rng shards
      | `Zipf -> fun () -> Rng.zipf key_rng ~n:shards ~skew - 1
      | `RoundRobin ->
        fun () ->
          let k = !rr in
          rr := (k + 1) mod shards;
          k
    in
    (* Build one ingest request: [b] points grouped by key, each key's
       values in arrival order (shards are independent, so per-key order
       is the only order that matters). *)
    let make_batch b =
      let order = ref [] in
      let per_key = Hashtbl.create 64 in
      for _ = 1 to b do
        let k = next_key () in
        let bucket =
          match Hashtbl.find_opt per_key k with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add per_key k l;
            order := k :: !order;
            l
        in
        bucket := sources.(k) () :: !bucket
      done;
      let groups =
        List.rev_map
          (fun k ->
            let l = Hashtbl.find per_key k in
            let vs = Array.of_list (List.rev !l) in
            (k, vs))
          !order
      in
      Array.of_list groups
    in
    let rtt_ingest = Gk.create ~epsilon:0.001 in
    let rtt_query = Gk.create ~epsilon:0.001 in
    let reconnect i =
      dead_bytes_in := !dead_bytes_in + Net_client.bytes_in conns.(i);
      dead_bytes_out := !dead_bytes_out + Net_client.bytes_out conns.(i);
      (try Net_client.close conns.(i) with _ -> ());
      conns.(i) <- connect_one ()
    in
    (* Send, then collect, resending the whole request on a fresh
       connection if this one died — at-least-once, so a server restart
       never costs an acknowledged point. *)
    let resend_sync i req =
      let attempts = ref 0 in
      let rec go () =
        reconnect i;
        match Net_client.call conns.(i) req with
        | resp -> resp
        | exception Net_client.Net_error _ when !attempts < retries ->
          incr attempts;
          go ()
      in
      go ()
    in
    let t0 = Unix.gettimeofday () in
    let sent = ref 0 in
    let acked = ref 0 in
    let q_sent = ref 0 in
    let q_partial = ref 0 in
    let inflight = Array.make connections None in
    let t_send = Array.make connections 0.0 in
    let round = ref 0 in
    while !sent < count do
      (* phase 1: one pipelined ingest request per connection *)
      let active = ref 0 in
      for i = 0 to connections - 1 do
        inflight.(i) <- None;
        if !sent < count then begin
          let b = min batch (count - !sent) in
          sent := !sent + b;
          let req = Wire.Ingest (make_batch b) in
          inflight.(i) <- Some (req, b);
          t_send.(i) <- Unix.gettimeofday ();
          incr active;
          try Net_client.send conns.(i) req
          with Net_client.Net_error _ | Unix.Unix_error _ ->
            (* collected (and resent) in phase 2 *)
            ()
        end
      done;
      (* phase 2: collect acks in send order *)
      for i = 0 to connections - 1 do
        match inflight.(i) with
        | None -> ()
        | Some (req, b) ->
          let resp =
            match Net_client.recv conns.(i) with
            | resp -> resp
            | exception (Net_client.Net_error _ | Unix.Unix_error _) when retries > 0 ->
              resend_sync i req
          in
          (match resp with
          | Wire.Ack n ->
            if n <> b then
              Printf.eprintf "loadgen: warning: acked %d of %d points\n%!" n b;
            acked := !acked + n
          | Wire.Error_reply msg -> failwith ("loadgen: server rejected ingest: " ^ msg)
          | _ -> failwith "loadgen: unexpected response to ingest");
          Gk.insert rtt_ingest (Unix.gettimeofday () -. t_send.(i))
      done;
      (* query traffic, paced against points acked so far *)
      if query_mix > 0.0 then begin
        let target = Float.to_int (query_mix *. Float.of_int !acked) in
        while !q_sent < target do
          let qb = min 64 (target - !q_sent) in
          let qs =
            Array.init qb (fun _ ->
                let scope =
                  if global_mix > 0.0 && Rng.float key_rng 1.0 < global_mix then Qop.Global
                  else Qop.Key (Rng.int key_rng shards)
                in
                match Rng.int key_rng 5 with
                | 0 -> (scope, Qop.Current_error)
                | 1 -> (scope, Qop.Window_length)
                | 2 ->
                  ( scope,
                    Qop.Herror
                      {
                        k = 1 + Rng.int key_rng (max 1 st.Wire.buckets);
                        x = Rng.int key_rng (eng_window + 1);
                      } )
                | 3 ->
                  let lo = 1 + Rng.int key_rng eng_window in
                  (scope, Qop.Range_sum { lo; hi = lo + Rng.int key_rng eng_window })
                | _ -> (scope, Qop.Point_estimate { index = 1 + Rng.int key_rng eng_window }))
          in
          let i = !round mod connections in
          let tq = Unix.gettimeofday () in
          let answers, missing =
            match Net_client.query_partial conns.(i) qs with
            | a -> a
            | exception (Net_client.Net_error _ | Unix.Unix_error _) when retries > 0 -> (
              match resend_sync i (Wire.Query qs) with
              | Wire.Answers a -> (a, 0)
              | Wire.Answers_partial { answers; leaves_missing } -> (answers, leaves_missing)
              | _ -> failwith "loadgen: unexpected response to query")
          in
          Gk.insert rtt_query (Unix.gettimeofday () -. tq);
          if Array.length answers <> qb then
            failwith "loadgen: short answer vector";
          if missing > 0 then incr q_partial;
          q_sent := !q_sent + qb
        done
      end;
      incr round
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    (* Spot-check the served state end to end: window lengths must sit in
       [0, window] for any engine that really ingested our stream. *)
    let spot_keys = min shards 8 in
    let spot, _spot_missing =
      Net_client.query_partial conns.(0)
        (Array.init spot_keys (fun k -> (Qop.Key k, Qop.Window_length)))
    in
    let spot_ok =
      Array.for_all (fun v -> v >= 0.0 && v <= Float.of_int eng_window) spot
    in
    let st1 = Net_client.stats conns.(0) in
    if do_shutdown then (try Net_client.shutdown conns.(0) with _ -> ());
    let bytes_out =
      !dead_bytes_out + Array.fold_left (fun a c -> a + Net_client.bytes_out c) 0 conns
    in
    let bytes_in =
      !dead_bytes_in + Array.fold_left (fun a c -> a + Net_client.bytes_in c) 0 conns
    in
    Printf.printf "loadgen: %d/%d points acked over %d connection(s), batch %d, %s keys\n"
      !acked count connections batch
      (match dist with `Uniform -> "uniform" | `Zipf -> "zipf" | `RoundRobin -> "roundrobin");
    Printf.printf "elapsed %.3fs  throughput %.0f points/s\n" elapsed
      (Float.of_int !acked /. Float.max elapsed 1e-9);
    Printf.printf "wire: %d bytes out, %d bytes in, %.2f bytes/point on the wire\n" bytes_out
      bytes_in
      (Float.of_int (bytes_out + bytes_in) /. Float.max 1.0 (Float.of_int !acked));
    let print_rtt name g =
      if Gk.count g = 0 then Printf.printf "rtt %s: no samples\n" name
      else
        Printf.printf "rtt %s (ms): p50=%.3f p99=%.3f p999=%.3f over %d round trip(s)\n" name
          (1e3 *. Gk.quantile g 0.5) (1e3 *. Gk.quantile g 0.99)
          (1e3 *. Gk.quantile g 0.999) (Gk.count g)
    in
    print_rtt "ingest" rtt_ingest;
    print_rtt "query" rtt_query;
    if !q_sent > 0 then
      Printf.printf "queries: %d sent, %d degraded (partial) batch(es)\n" !q_sent !q_partial;
    Printf.printf "spot queries: %s (%d key(s), window lengths within [0, %d])\n"
      (if spot_ok then "ok" else "FAILED")
      spot_keys eng_window;
    Printf.printf "server: %d total points, query_lock_ops=%d\n"
      st1.Wire.total_points st1.Wire.query_lock_ops;
    if not spot_ok then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a shist serve --listen endpoint: concurrent connections, batched ingest, \
             mixed queries, RTT quantiles")
    Term.(
      const run $ connect $ connections $ batch $ count $ dist $ skew $ seed_arg $ query_mix
      $ global_mix $ do_shutdown $ timeout $ retries)

(* -------------------------------------------------------- aggregate *)

let aggregate_cmd =
  let connect =
    Arg.(
      non_empty
      & opt_all addr_conv []
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Leaf $(b,shist serve --listen) endpoint (repeatable).  Leaf $(docv) order fixes \
             the global key space: leaf i's shards follow leaf i-1's.  All leaves must be up \
             and agree on (window, buckets) at startup.")
  in
  let listen =
    Arg.(
      non_empty
      & opt_all addr_conv []
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve the aggregated tree over the same wire protocol the leaves speak \
             (repeatable) — $(b,shist loadgen) and $(b,shist peek) work unchanged against \
             the root.")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Bound on every leaf touch — a dead leaf degrades the reply, never hangs it.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:"Close a client connection idle on a partial frame for $(docv) seconds.")
  in
  let run connect listen timeout idle_timeout =
    let agg = Aggregator.create ~timeout connect in
    Printf.printf "aggregate: %d leaves, %d shards total (window %d, buckets %d)\n%!"
      (Aggregator.leaf_count agg) (Aggregator.total_shards agg) (Aggregator.window agg)
      (Aggregator.buckets agg);
    let config = { Net_server.default_config with idle_timeout } in
    let rep, elapsed = serve_wire ~config ~backend:(Aggregator.backend agg) listen in
    Aggregator.close agg;
    Printf.printf
      "aggregate: %d point(s) forwarded, %d query element(s), %d partial (degraded) replies\n"
      rep.Net_server.points rep.Net_server.queries_served rep.Net_server.partial_replies;
    Printf.printf "elapsed %.3fs  throughput %.0f points/s\n" elapsed
      (Float.of_int rep.Net_server.points /. Float.max elapsed 1e-9)
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:
         "Root of a two-tier aggregation tree: fan ingest and scoped queries out over N leaf \
          shist serve processes, fold the leaves' per-key answers for global queries, degrade \
          (never hang) on leaf failure")
    Term.(const run $ connect $ listen $ timeout $ idle_timeout)

(* ------------------------------------------------------------- peek *)

let peek_cmd =
  let connect =
    Arg.(
      required
      & pos 0 (some addr_conv) None
      & info [] ~docv:"ADDR" ~doc:"Endpoint to query: a leaf serve or an aggregate root.")
  in
  let timeout =
    Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SECS" ~doc:"Socket timeout.")
  in
  let retries =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"K" ~doc:"Connect retry budget.")
  in
  let run addr timeout retries =
    let c = Net_client.connect ~timeout ~retries ~retry_delay:0.2 addr in
    Fun.protect ~finally:(fun () -> Net_client.close c) @@ fun () ->
    let st = Net_client.stats c in
    let w = st.Wire.window in
    let qs =
      [|
        (Qop.Global, Qop.Window_length);
        (Qop.Global, Qop.Range_sum { lo = 1; hi = w });
        (Qop.Global, Qop.Current_error);
      |]
    in
    let answers, missing = Net_client.query_partial c qs in
    (* %.17g: bit-faithful float text, so two endpoints answering the
       same state diff clean — the CI oracle comparison greps these. *)
    Printf.printf "global window_length answer=%.17g leaves_missing=%d\n" answers.(0) missing;
    Printf.printf "global range_sum[1,%d] answer=%.17g leaves_missing=%d\n" w answers.(1)
      missing;
    Printf.printf "global current_error answer=%.17g leaves_missing=%d\n" answers.(2) missing
  in
  Cmd.v
    (Cmd.info "peek"
       ~doc:
         "One-shot Global-scope queries against any wire endpoint, printed bit-faithfully — \
          the scale-out equivalence check")
    Term.(const run $ connect $ timeout $ retries)

(* -------------------------------------------------------- quantiles *)

let quantiles_cmd =
  let run file epsilon =
    let data = Source.of_file file in
    let g = Sh_gk.Gk.create ~epsilon in
    Array.iter (Sh_gk.Gk.insert g) data;
    Printf.printf "n=%d summary-size=%d\n" (Sh_gk.Gk.count g) (Sh_gk.Gk.size g);
    List.iter
      (fun phi -> Printf.printf "  q%.2f = %.6g\n" phi (Sh_gk.Gk.quantile g phi))
      [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]
  in
  Cmd.v
    (Cmd.info "quantiles" ~doc:"One-pass GK quantile summary of a data file")
    Term.(const run $ file_arg 0 $ epsilon_arg)

let () =
  let doc = "streaming histogram toolkit (Guha & Koudas, ICDE 2002 reproduction)" in
  let info = Cmd.info "shist" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ generate_cmd; build_cmd; stream_cmd; query_cmd; quantiles_cmd; selectivity_cmd; heavy_cmd; serve_cmd; loadgen_cmd; aggregate_cmd; peek_cmd ]))
