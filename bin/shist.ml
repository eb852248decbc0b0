(* shist — command-line driver for the stream-histogram library.

   Subcommands:
     generate     synthesise a workload stream to a file
     build        build a histogram / wavelet synopsis of a data file
     stream       simulate fixed-window maintenance over a stream
     query        answer range-sum queries approximately and report error
     quantiles    one-pass GK quantile summary of a data file
     serve        multi-stream sharded ingest across a domain pool
                  (--listen serves the engine over the wire protocol)
     loadgen      drive a serve --listen endpoint over the wire
     aggregate    root of a two-tier aggregation tree over serve leaves
     peek         one-shot global queries against any endpoint

   This file is argument parsing: serve, loadgen, aggregate and peek are
   one call each into lib/serve (Sh_serve). *)

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
module Syn = Sh_wavelet.Synopsis
module E = Sh_query.Estimator
module Q = Sh_query.Workload
module Ev = Sh_query.Evaluate
module O = Sh_obs.Obs
module Addr = Sh_net.Addr
module Traffic = Sh_serve.Traffic
module Runner = Sh_serve.Runner
module Loadgen = Sh_serve.Loadgen

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
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metric registry and latency trackers on exit, as Prometheus text.")

(* Dump the registry to stdout after the command's own output, even when
   [f] raises.  Counters and gauges are always live, so there is nothing
   to switch on first. *)
let with_metrics metrics f =
  let finish () = if metrics then print_string (O.render ()) in
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

(* ---------------------------------------------------------- addresses *)

let addr_conv =
  let parse s =
    match Addr.of_string s with Ok a -> Ok a | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Addr.to_string a))

(* Flags two subcommands share: the clients' ([loadgen], [peek]) socket
   timeout and retry budget, and the servers' ([serve], [aggregate])
   idle timeout. *)
let client_timeout_arg =
  Arg.(
    value & opt float 10.0
    & info [ "timeout" ] ~docv:"SECS" ~doc:"Socket timeout for every wait on the server.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"K"
        ~doc:
          "Reconnect budget: on a connection failure, retry up to $(docv) times (0.2s apart); \
           $(b,loadgen) also resends the unacknowledged request, so it rides out a server \
           restart without dropping acknowledged points.")

let idle_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "idle-timeout" ] ~docv:"SECS"
        ~doc:
          "Close a client connection that sits on a partial frame (or never completes its \
           preamble) for $(docv) seconds — the slow-loris guard ($(b,serve): with \
           $(b,--listen) only).")

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

(* ------------------------------------------------------------ serve *)

(* [--dist] and [--skew], shared by [serve] and [loadgen]. *)
let dist_arg =
  let dist =
    Arg.(
      value
      & opt (enum [ ("uniform", `Uniform); ("zipf", `Zipf); ("roundrobin", `Round_robin) ]) `Uniform
      & info [ "dist" ] ~docv:"DIST"
          ~doc:"Key distribution across shards: $(b,uniform), $(b,zipf) (skewed hot shards), \
                $(b,roundrobin) (perfectly balanced).")
  in
  let skew =
    Arg.(value & opt float 1.1 & info [ "skew" ] ~docv:"A" ~doc:"Zipf skew (with --dist zipf).")
  in
  let make dist skew =
    match dist with `Uniform -> Traffic.Uniform | `Zipf -> Zipf skew | `Round_robin -> Round_robin
  in
  Term.(const make $ dist $ skew)

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
             the refresh-steal count and the latency quantiles.")
  in
  let record_every =
    Arg.(
      value & opt int 1
      & info [ "record-every" ] ~docv:"K"
          ~doc:"Sample cadence in batches for $(b,--record) (K >= 1).")
  in
  let query_mix =
    Arg.(
      value & opt float 0.0
      & info [ "query-mix" ] ~docv:"R"
          ~doc:
            "Run estimation queries concurrent with ingest from a dedicated reader domain, \
             pacing towards $(docv) queries per ingested point (0, the default, disables \
             query traffic).  Queries answer from the published snapshots, whose loads never \
             wait for ingest, and the report counts queries served, throughput and snapshot \
             generation lag.")
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
  let run shards domains count batch window buckets epsilon policy dist seed metrics checkpoint
      checkpoint_every restore record record_every query_mix listen max_points
      idle_timeout =
    with_metrics metrics @@ fun () ->
    Runner.serve
      { Runner.shards; domains; count; batch; window; buckets; epsilon; policy; dist; seed;
        checkpoint; checkpoint_every; restore; record; record_every; query_mix;
        listen; max_points; idle_timeout }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Ingest many independent streams in parallel across a sharded domain pool")
    Term.(
      const run $ shards $ domains $ count $ batch $ window $ buckets_arg $ epsilon_arg $ policy
      $ dist_arg $ seed_arg $ metrics_arg $ checkpoint_file $ checkpoint_every
      $ restore_file $ record_file $ record_every $ query_mix
      $ listen $ max_points $ idle_timeout_arg)

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
      & info [ "c"; "connections" ] ~docv:"C"
          ~doc:"Concurrent connections (>= 1).  Per-key arrival order, and so every answer, \
                is reproducible only at 1: the server coalesces the connections' requests \
                in the order it reads them.")
  in
  let batch =
    Arg.(value & opt int 512 & info [ "batch" ] ~docv:"B" ~doc:"Points per ingest request.")
  in
  let count =
    Arg.(
      value & opt int 100_000
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Total points to ingest across all connections.")
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
  let run connect connections batch count dist seed query_mix global_mix shutdown timeout
      retries =
    let c =
      { Loadgen.connect; connections; batch; count; dist; seed; query_mix; global_mix;
        shutdown; timeout; retries }
    in
    if not (Loadgen.run c).spot_ok then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a shist serve --listen endpoint: concurrent connections, batched ingest, \
             mixed queries, RTT quantiles")
    Term.(
      const run $ connect $ connections $ batch $ count $ dist_arg $ seed_arg $ query_mix
      $ global_mix $ do_shutdown $ client_timeout_arg $ retries_arg)

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
  let run leaves listen timeout idle_timeout =
    Runner.aggregate ~leaves ~listen ~timeout ~idle_timeout
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:
         "Root of a two-tier aggregation tree: fan ingest and scoped queries out over N leaf \
          shist serve processes, fold the leaves' per-key answers for global queries, degrade \
          (never hang) on leaf failure")
    Term.(const run $ connect $ listen $ timeout $ idle_timeout_arg)

(* ------------------------------------------------------------- peek *)

let peek_cmd =
  let connect =
    Arg.(
      required
      & pos 0 (some addr_conv) None
      & info [] ~docv:"ADDR" ~doc:"Endpoint to query: a leaf serve or an aggregate root.")
  in
  let run addr timeout retries = Loadgen.peek ~timeout ~retries addr in
  Cmd.v
    (Cmd.info "peek"
       ~doc:
         "One-shot Global-scope queries against any wire endpoint, printed bit-faithfully — \
          the scale-out equivalence check")
    Term.(const run $ connect $ client_timeout_arg $ retries_arg)

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
  exit (Cmd.eval (Cmd.group info [ generate_cmd; build_cmd; stream_cmd; query_cmd; quantiles_cmd; serve_cmd; loadgen_cmd; aggregate_cmd; peek_cmd ]))
