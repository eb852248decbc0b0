module Rng = Sh_util.Rng
module O = Sh_obs.Obs
module Lat = Sh_obs.Latency
module Pool = Sh_par.Domain_pool
module SE = Sh_par.Shard_engine
module FW = Stream_histogram.Fixed_window
module Params = Stream_histogram.Params
module Qop = Stream_histogram.Query_op
module Addr = Sh_net.Addr
module Clock = Sh_net.Clock
module Net_server = Sh_net.Server
module Aggregator = Sh_agg.Aggregator

type config = {
  shards : int;
  domains : int;
  count : int;
  batch : int;
  window : int;
  buckets : int;
  epsilon : float;
  policy : Params.refresh_policy;
  dist : Traffic.dist;
  seed : int;
  checkpoint : string option;
  checkpoint_every : int option;
  restore : string option;
  record : string option;
  record_every : int;
  query_mix : float;
  listen : Addr.t list;
  max_points : int option;
  idle_timeout : float;
}

(* Bind every address, serve [backend] until the loop ends, then close the
   listeners, unlink their socket files (also when the loop raises) and
   print the two [net:] report lines.  Returns the loop's report and the
   seconds it served. *)
let serve_wire ~config ?max_points ~backend addrs =
  let listeners =
    List.map
      (fun a ->
        let fd = Net_server.listen a in
        Printf.printf "listening on %s\n%!" (Addr.to_string a);
        fd)
      addrs
  in
  let release () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
    List.iter
      (function
        | Addr.Unix_sock p -> ( try Unix.unlink p with Sys_error _ | Unix.Unix_error _ -> ())
        | Addr.Tcp _ -> ())
      addrs
  in
  let t0 = Clock.now () in
  let rep =
    Fun.protect ~finally:release (fun () ->
        Net_server.run ~config ?max_points ~backend ~listeners ())
  in
  let elapsed = Clock.now () -. t0 in
  Printf.printf
    "net: %d connection(s), %d frame(s) in, %d out, %d protocol error(s), %d idle close(s)\n"
    rep.Net_server.connections rep.Net_server.frames_in rep.Net_server.frames_out
    rep.Net_server.protocol_errors rep.Net_server.idle_closes;
  Printf.printf "net: %d bytes in, %d bytes out, %d ingest round(s)\n"
    rep.Net_server.bytes_in rep.Net_server.bytes_out rep.Net_server.ingest_rounds;
  (rep, elapsed)

(* The end-of-run report of both serve modes: the checkpoint and [serve:]
   lines, the refresh-steal count, query and ingest throughput (plus the
   reader's lag histogram when one ran), and the latency quantiles.
   [batch] is the in-process batch size; with no query traffic the
   queries line still prints. *)
let report c eng ~checkpoints ~batch ~served ~query_elapsed ~lag ~points ~elapsed =
  (match c.checkpoint with
  | Some file when checkpoints > 0 ->
    Printf.printf "checkpoint: wrote %s (%d write(s))\n" file checkpoints
  | _ -> ());
  Printf.printf "serve: %d points, %d batches%s over %d shards, %d domains (%s)\n"
    (SE.total_points eng) (SE.batches eng)
    (match batch with Some b -> Printf.sprintf " of <=%d" b | None -> "")
    (SE.shard_count eng) c.domains (Params.policy_to_string c.policy);
  Printf.printf "pinned: %d refresh steal(s)\n" (SE.refresh_steals eng);
  Printf.printf "queries: %d served, %.0f queries/s\n" served
    (Float.of_int served /. Float.max query_elapsed 1e-9);
  Option.iter
    (fun lag ->
      Printf.printf "query lag histogram: lag0=%d lag1=%d lag2plus=%d\n" lag.(0) lag.(1)
        lag.(2))
    lag;
  Printf.printf "elapsed %.3fs  throughput %.0f points/s\n" elapsed
    (Float.of_int points /. Float.max elapsed 1e-9);
  match
    List.filter_map
      (function O.Tracker t when Lat.count t > 0 -> Some t | _ -> None)
      (Sh_obs.Registry.snapshot ())
  with
  | [] -> ()
  | lats ->
    print_endline "latency quantiles (ms):";
    List.iter
      (fun t ->
        Printf.printf "  %-22s count=%-8d" (Lat.name t) (Lat.count t);
        List.iter
          (fun phi ->
            Option.iter
              (fun v -> Printf.printf " %s=%.4g" (Sh_obs.Sink.phi_label phi) (1e3 *. v))
              (Lat.quantile t phi))
          Lat.percentiles;
        print_newline ())
      lats

(* A reader domain outside the ingest pool fires batched estimation
   queries while the stream is live, pacing towards [query_mix] queries
   per ingested point.  Every answer comes off the published snapshots,
   whose loads never wait for ingest, and the reader also samples the
   snapshot generation lag of random shards into a tiny histogram (the
   staleness contract, observed).  Returns the queries served and that histogram. *)
let reader eng ~rng ~query_mix ~window ~buckets ~stop () =
  let shards = SE.shard_count eng in
  let scope = Traffic.one_in_16_global ~shards in
  let qbatch = 64 in
  let qs = Array.make qbatch (Qop.Key 0, Qop.Current_error) in
  let served = ref 0 in
  let lag = [| 0; 0; 0 |] in
  while not (Atomic.get stop) do
    let target = Float.to_int (query_mix *. Float.of_int (SE.total_points eng)) in
    if !served >= target then Domain.cpu_relax ()
    else begin
      for i = 0 to qbatch - 1 do
        qs.(i) <- Traffic.random_query rng ~scope ~buckets ~window
      done;
      ignore (SE.query_many eng qs);
      served := !served + qbatch;
      let l = SE.generation_lag eng ~key:(Rng.int rng shards) in
      let b = if l = 0 then 0 else if l = 1 then 1 else 2 in
      lag.(b) <- lag.(b) + 1
    end
  done;
  (!served, lag)

(* Generate [count] points of {!Traffic} in [batch]-sized column ingests, with
   the optional recorder, reader domain and checkpoint cadence. *)
let serve_generate c eng =
  let shards = SE.shard_count eng in
  let root = Rng.create ~seed:c.seed in
  let traffic = Traffic.create root ~shards c.dist in
  let checkpoints = ref 0 in
  let write_checkpoint () =
    Option.iter (fun file -> SE.checkpoint eng ~file; incr checkpoints) c.checkpoint
  in
  let window, buckets = SE.with_key eng ~key:0 ~f:(fun fw -> (FW.window fw, FW.buckets fw)) in
  let recorder =
    Option.map
      (fun file -> Recorder.create eng ~file ~restored:(c.restore <> None) ~window ~buckets)
      c.record
  in
  let stop = Atomic.make false in
  let query_domain =
    if c.query_mix <= 0.0 then None
    else
      let rng = Rng.split_ix root (shards + 1) in
      Some (Domain.spawn (reader eng ~rng ~query_mix:c.query_mix ~window ~buckets ~stop))
  in
  (* each batch is drawn into these columns, the serve loop's shape *)
  let keys = Array.make (min c.batch (max 0 c.count)) 0 in
  let values = Array.make (Array.length keys) 0.0 in
  let t0 = Clock.now () in
  let remaining = ref c.count in
  let batches = ref 0 in
  while !remaining > 0 do
    let b = min c.batch !remaining in
    for i = 0 to b - 1 do
      let k, v = Traffic.next traffic in
      keys.(i) <- k;
      values.(i) <- v
    done;
    SE.ingest_columns eng ~keys ~values ~len:b;
    Option.iter (fun r -> Recorder.observe r ~keys ~values ~len:b) recorder;
    remaining := !remaining - b;
    incr batches;
    (match recorder with
    | Some r when !batches mod c.record_every = 0 -> Recorder.sample r
    | _ -> ());
    match c.checkpoint_every with
    | Some k when !batches mod k = 0 -> write_checkpoint ()
    | _ -> ()
  done;
  let query_report =
    Option.map (fun d -> Atomic.set stop true; (Domain.join d, Clock.now () -. t0)) query_domain
  in
  SE.refresh_all eng;
  write_checkpoint ();
  Option.iter Recorder.close recorder;
  let elapsed = Clock.now () -. t0 in
  let served, query_elapsed, lag =
    match query_report with
    | None -> (0, elapsed, None)
    | Some ((served, lag), q_elapsed) -> (served, q_elapsed, Some lag)
  in
  report c eng ~checkpoints:!checkpoints ~batch:(Some c.batch) ~served ~query_elapsed ~lag
    ~points:c.count ~elapsed;
  let tot_refreshes, tot_intervals =
    SE.fold eng ~init:(0, 0) ~f:(fun (r, iv) key fw ->
        let w = FW.work_counters fw in
        Printf.printf "  key %3d: n=%d herror=%.6g refreshes=%d (%d warm)\n" key (FW.length fw)
          (FW.current_error fw) w.FW.refreshes w.FW.warm_refreshes;
        (r + w.FW.refreshes, iv + w.FW.intervals_built))
  in
  Printf.printf "total: %d refreshes, %d intervals built\n" tot_refreshes tot_intervals

let check c =
  if c.domains < 1 then invalid_arg "serve: --domains must be >= 1";
  if c.restore = None then begin
    if c.shards < 1 then invalid_arg "serve: --shards must be >= 1";
    if c.window < 1 then invalid_arg "serve: --window must be >= 1";
    if c.buckets < 1 then invalid_arg "serve: --buckets must be >= 1";
    if c.epsilon <= 0.0 then invalid_arg "serve: --epsilon must be > 0"
  end;
  if c.batch < 1 then invalid_arg "serve: --batch must be >= 1";
  if c.record_every < 1 then invalid_arg "serve: --record-every must be >= 1";
  if c.query_mix < 0.0 || not (Float.is_finite c.query_mix) then
    invalid_arg "serve: --query-mix must be a finite ratio >= 0";
  (match c.checkpoint_every with
  | Some k when k < 1 -> invalid_arg "serve: --checkpoint-every must be >= 1"
  | Some _ when c.checkpoint = None -> invalid_arg "serve: --checkpoint-every requires --checkpoint"
  | _ -> ());
  (* A listening engine is fed and read by clients only: nothing would
     run [refresh_all], the in-process reader or the recorder. *)
  if c.listen <> [] then begin
    if c.policy = Params.Lazy then
      invalid_arg
        "serve: --refresh lazy publishes no view while listening, so every query would read \
         an empty window; use eager or every:K";
    if c.record <> None then invalid_arg "serve: --record is in-process only, not for --listen";
    if c.query_mix > 0.0 then
      invalid_arg "serve: --query-mix is in-process only, not for --listen"
  end

let serve c =
  check c;
  (* serve always collects latency quantiles: a GK insert per timed
     section is far below the batch work it measures, and the end-of-run
     report depends on it. *)
  O.set_latency_enabled true;
  O.set_clock Clock.now;
  let host_cores = Domain.recommended_domain_count () in
  if c.domains > host_cores then
    Printf.eprintf
      "serve: warning: --domains %d exceeds the %d core(s) this host reports; expect \
       oversubscription, not speedup\n%!"
      c.domains host_cores;
  Pool.with_pool ~domains:c.domains @@ fun pool ->
  let eng =
    match c.restore with
    | None ->
      SE.create ~pool ~shards:c.shards ~window:c.window ~buckets:c.buckets ~epsilon:c.epsilon
    | Some file ->
      let eng = SE.restore_from ~pool ~file in
      Printf.printf "restored %d shards (%d points) from %s\n" (SE.shard_count eng)
        (SE.total_points eng) file;
      eng
  in
  SE.set_refresh_policy eng c.policy;
  if c.listen = [] then serve_generate c eng
  else begin
    (* clients drive ingest and queries *)
    let config =
      { Net_server.idle_timeout = c.idle_timeout; checkpoint = c.checkpoint;
        checkpoint_every = c.checkpoint_every }
    in
    let rep, elapsed =
      serve_wire ~config ?max_points:c.max_points ~backend:(Net_server.engine eng) c.listen
    in
    (* the final checkpoint: the state the clients left, exactly as a
       Checkpoint request would have written it *)
    Option.iter (fun file -> SE.checkpoint eng ~file) c.checkpoint;
    let final = if c.checkpoint = None then 0 else 1 in
    report c eng ~checkpoints:(rep.checkpoints_written + final) ~batch:None
      ~served:rep.queries_served ~query_elapsed:elapsed ~lag:None ~points:rep.points ~elapsed
  end

let aggregate ~leaves ~listen ~timeout ~idle_timeout =
  let agg = Aggregator.create ~timeout leaves in
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
