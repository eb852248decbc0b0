(* lib/serve: the serve runner, recorder and load generator, checked
   against the engine's own oracles.  The traffic generator is pinned by
   goldens; an in-process run's checkpoint must equal an engine fed the
   same arrivals directly; a listening runner driven by the load
   generator must answer bit-identically to an in-process engine; and
   every recorder spot check must sit inside the paper's (1+ε) bound.

   Pool sizes default to [1; 2]; set SH_TEST_DOMAINS (comma-separated)
   to pick others. *)

module Rng = Sh_util.Rng
module Pool = Sh_par.Domain_pool
module SE = Sh_par.Shard_engine
module Qop = Stream_histogram.Query_op
module Params = Stream_histogram.Params
module Addr = Sh_net.Addr
module Client = Sh_net.Client
module Traffic = Sh_serve.Traffic
module Runner = Sh_serve.Runner
module Loadgen = Sh_serve.Loadgen

let domain_counts =
  match Sys.getenv_opt "SH_TEST_DOMAINS" with
  | None | Some "" -> [ 1; 2 ]
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

let with_temp name f =
  let path = Filename.temp_file "shist_serve" name in
  Unix.unlink path;
  Fun.protect
    ~finally:(fun () -> try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ----------------------------------------------------- traffic goldens

   Captured from the generators [shist serve] and [shist loadgen] wrote
   inline before they shared {!Traffic}: seed 7, 8 keys, window 64,
   4 buckets, skew 1.1.  Each case checks the MD5 of all 64 rendered
   draws and spells out the first three. *)

let g_seed = 7
let g_shards = 8
let g_window = 64
let g_buckets = 4

let render_arrivals a =
  String.concat "" (Array.to_list (Array.map (fun (k, v) -> Printf.sprintf "%d %h\n" k v) a))

let render_queries a =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun (s, q) ->
            Printf.sprintf "%s %s\n"
              (match s with Qop.Global -> "G" | Qop.Key k -> Printf.sprintf "K%d" k)
              (Qop.to_string q))
          a))

let check_golden what rendered ~md5 ~first =
  let head =
    String.split_on_char '\n' rendered |> List.filteri (fun i _ -> i < List.length first)
  in
  Alcotest.(check (list string)) (what ^ ": first draws") first head;
  Alcotest.(check string) (what ^ ": md5 of 64 draws") md5 (Digest.to_hex (Digest.string rendered))

let test_traffic_arrivals () =
  List.iter
    (fun (dist, md5, first) ->
      let t = Traffic.create (Rng.create ~seed:g_seed) ~shards:g_shards dist in
      let a = Array.init 64 (fun _ -> Traffic.next t) in
      check_golden (Traffic.dist_name dist) (render_arrivals a) ~md5 ~first)
    [
      ( Traffic.Uniform,
        "fd637a157023769f46d4539bd30a900e",
        [ "4 0x1.deap+11"; "5 0x1.0b4p+12"; "4 0x1.d86p+11" ] );
      ( Traffic.Zipf 1.1,
        "b6bc44b9fd957c65510c09e167546c36",
        [ "0 0x1.e4p+11"; "1 0x1.003p+12"; "6 0x1.ff4p+11" ] );
      ( Traffic.Round_robin,
        "4bdcc327c117f64df3e3204de6af39ff",
        [ "0 0x1.e4p+11"; "1 0x1.003p+12"; "2 0x1.077p+12" ] );
    ]

let test_traffic_queries () =
  let queries rng scope =
    Array.init 64 (fun _ ->
        Traffic.random_query rng ~scope ~buckets:g_buckets ~window:g_window)
  in
  (* serve's reader domain: its own generator, one scope in 16 global *)
  let root = Rng.create ~seed:g_seed in
  check_golden "serve"
    (render_queries
       (queries (Rng.split_ix root (g_shards + 1)) (Traffic.one_in_16_global ~shards:g_shards)))
    ~md5:"341318a6645b9d8d57a2f504e39d41de"
    ~first:[ "K0 window_length"; "K6 range_sum[26,60]"; "K0 range_sum[34,56]" ];
  (* loadgen: the key chooser's generator, a --global-mix fraction *)
  List.iter
    (fun (mix, md5, first) ->
      let t = Traffic.create (Rng.create ~seed:g_seed) ~shards:g_shards Traffic.Uniform in
      check_golden
        (Printf.sprintf "loadgen --global-mix %g" mix)
        (render_queries
           (queries (Traffic.key_rng t) (Traffic.global_fraction ~shards:g_shards mix)))
        ~md5 ~first)
    [
      ( 0.0,
        "27d20e5d5e164318e4bb1e28c33b86bd",
        [ "K4 point_estimate[37]"; "K5 current_error"; "K0 point_estimate[12]" ] );
      ( 0.25,
        "8c1659a56fd8f0f91d4efc78e6b98cb6",
        [ "G point_estimate[37]"; "K6 point_estimate[53]"; "K1 current_error" ] );
    ]

(* ------------------------------------------------------------- runner *)

let base ~domains =
  {
    Runner.shards = 6;
    domains;
    count = 5000;
    batch = 300;
    window = 128;
    buckets = 4;
    epsilon = 0.2;
    policy = Params.Every 64;
    dist = Traffic.Zipf 1.2;
    seed = 11;
    checkpoint = None;
    checkpoint_every = None;
    restore = None;
    record = None;
    record_every = 1;
    query_mix = 0.0;
    listen = [];
    max_points = None;
    idle_timeout = 30.0;
  }

(* The oracle: an engine fed [c]'s traffic directly, in [c.batch]-sized
   ingests of one-point groups (not the columns the runner ingests),
   optionally from a checkpoint. *)
let oracle_ingest eng (c : Runner.config) =
  let traffic = Traffic.create (Rng.create ~seed:c.seed) ~shards:(SE.shard_count eng) c.dist in
  let remaining = ref c.count in
  while !remaining > 0 do
    let b = min c.batch !remaining in
    SE.ingest_groups eng
      (Array.init b (fun _ ->
           let k, v = Traffic.next traffic in
           (k, [| v |])));
    remaining := !remaining - b
  done

let oracle_engine ~pool ?restore (c : Runner.config) =
  let eng =
    match restore with
    | None ->
      SE.create ~pool ~shards:c.shards ~window:c.window ~buckets:c.buckets ~epsilon:c.epsilon
    | Some file -> SE.restore_from ~pool ~file
  in
  SE.set_refresh_policy eng c.policy;
  oracle_ingest eng c;
  eng

let test_checkpoint_matches_engine () =
  List.iter
    (fun domains ->
      with_temp ".ckpt" @@ fun run_ckpt ->
      with_temp ".ckpt" @@ fun oracle_ckpt ->
      with_temp ".ckpt" @@ fun resumed_ckpt ->
      with_temp ".ckpt" @@ fun oracle_resumed ->
      (* a checkpoint cadence and a reader domain must not change state *)
      let c =
        { (base ~domains) with
          checkpoint = Some run_ckpt; checkpoint_every = Some 4; query_mix = 0.5 }
      in
      Runner.serve c;
      Pool.with_pool ~domains (fun pool ->
          let eng = oracle_engine ~pool c in
          SE.refresh_all eng;
          SE.checkpoint eng ~file:oracle_ckpt);
      let what = Printf.sprintf "domains %d: checkpoint bytes" domains in
      Alcotest.(check bool) what true (read_file run_ckpt = read_file oracle_ckpt);
      (* resume from that checkpoint and ingest more *)
      let r =
        { c with restore = Some run_ckpt; checkpoint = Some resumed_ckpt; checkpoint_every = None;
                 count = 1700; dist = Traffic.Round_robin; policy = Params.Eager }
      in
      Runner.serve r;
      Pool.with_pool ~domains (fun pool ->
          let eng = oracle_engine ~pool ~restore:oracle_ckpt r in
          SE.refresh_all eng;
          SE.checkpoint eng ~file:oracle_resumed);
      Alcotest.(check bool) (what ^ " after --restore") true
        (read_file resumed_ckpt = read_file oracle_resumed))
    domain_counts

(* Per-key answers an engine serves: window length, two range sums (one
   clamped past the window) and the current error. *)
let per_key_queries ~shards ~window =
  Array.concat
    (List.init shards (fun k ->
         [|
           (Qop.Key k, Qop.Window_length);
           (Qop.Key k, Qop.Range_sum { lo = 1; hi = window });
           (Qop.Key k, Qop.Range_sum { lo = 17; hi = window + 40 });
           (Qop.Key k, Qop.Current_error);
         |]))

let test_listen_driven_by_loadgen () =
  List.iter
    (fun domains ->
      with_temp ".sock" @@ fun path ->
      let addr = Addr.Unix_sock path in
      let c = { (base ~domains) with listen = [ addr ] } in
      let server = Domain.spawn (fun () -> Runner.serve c) in
      let load ~count ~query_mix ~global_mix ~shutdown =
        Loadgen.run
          { Loadgen.connect = addr; connections = 1; batch = c.batch; count; dist = c.dist;
            seed = c.seed; query_mix; global_mix; shutdown; timeout = 10.0; retries = 50 }
      in
      let answers =
        Fun.protect
          ~finally:(fun () ->
            (* stops the server even if a check below failed *)
            (try
               let cl = Client.connect ~timeout:10.0 addr in
               Client.shutdown cl;
               Client.close cl
             with _ -> ());
            Domain.join server)
        @@ fun () ->
        let client =
          Domain.spawn (fun () ->
              load ~count:c.count ~query_mix:0.0 ~global_mix:0.0 ~shutdown:false)
        in
        let o = Domain.join client in
        Alcotest.(check int) "every point acked" c.count o.Loadgen.acked;
        Alcotest.(check bool) "spot check" true o.Loadgen.spot_ok;
        let cl = Client.connect ~timeout:10.0 addr in
        let answers = Client.query cl (per_key_queries ~shards:c.shards ~window:c.window) in
        Client.close cl;
        (* mixed query traffic, then the loadgen's own shutdown *)
        let o = load ~count:2000 ~query_mix:0.3 ~global_mix:0.25 ~shutdown:true in
        Alcotest.(check int) "mixed run: every point acked" 2000 o.Loadgen.acked;
        Alcotest.(check bool) "mixed run: spot check" true o.Loadgen.spot_ok;
        answers
      in
      let expected =
        Pool.with_pool ~domains:1 (fun pool ->
            SE.query_many (oracle_engine ~pool c)
              (per_key_queries ~shards:c.shards ~window:c.window))
      in
      Array.iteri
        (fun i e ->
          if Int64.bits_of_float e <> Int64.bits_of_float answers.(i) then
            Alcotest.failf "domains %d, query %d (key %d): served %.17g, in-process %.17g" domains i
              (i / 4) answers.(i) e)
        expected)
    domain_counts

(* A listening runner refuses, before it binds, what it cannot honour:
   [Lazy] would publish no view for clients to read, and [record] and
   [query_mix] drive the in-process stream only.  [max_points = Some 0]
   ends at once a run that wrongly starts serving. *)
let test_listen_refuses_in_process_settings () =
  with_temp ".sock" @@ fun path ->
  let c = { (base ~domains:1) with listen = [ Addr.Unix_sock path ]; max_points = Some 0 } in
  List.iter
    (fun (what, c) ->
      (match Runner.serve c with
      | () -> Alcotest.failf "%s: served instead of refusing" what
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) (what ^ ": no socket left") false (Sys.file_exists path))
    [ ("--refresh lazy", { c with policy = Params.Lazy });
      ("--record", { c with record = Some (path ^ ".jsonl") });
      ("--query-mix", { c with query_mix = 0.5 }) ]

(* [Runner.check] refuses bad geometry before any work, naming the flag;
   a restore takes its geometry from the checkpoint, so it checks none. *)
let test_check_names_the_flag () =
  let c = base ~domains:1 in
  List.iter
    (fun (flag, bad) ->
      (match Runner.check bad with
      | () -> Alcotest.failf "%s: accepted" flag
      | exception Invalid_argument msg ->
        Alcotest.(check string) flag ("serve: " ^ flag ^ " must be >= 1") msg);
      Runner.check { bad with restore = Some "unused.ckpt" })
    [ ("--shards", { c with shards = 0 });
      ("--window", { c with window = 0 });
      ("--buckets", { c with buckets = 0 }) ]

(* [--checkpoint F] on a listening runner with no cadence: the client's
   Shutdown ends the run, and the runner writes F then — the bytes of an
   in-process engine fed the same stream, and a restore from F answers
   like that engine. *)
let test_listen_final_checkpoint () =
  List.iter
    (fun domains ->
      with_temp ".sock" @@ fun path ->
      with_temp ".ckpt" @@ fun ckpt ->
      with_temp ".ckpt" @@ fun oracle_ckpt ->
      let addr = Addr.Unix_sock path in
      let c = { (base ~domains) with listen = [ addr ]; checkpoint = Some ckpt } in
      let server = Domain.spawn (fun () -> Runner.serve c) in
      let o =
        Fun.protect
          ~finally:(fun () ->
            (* stops the server if the load generator failed before its Shutdown *)
            (try
               let cl = Client.connect ~timeout:10.0 addr in
               Client.shutdown cl;
               Client.close cl
             with _ -> ());
            Domain.join server)
        @@ fun () ->
        Loadgen.run
          { Loadgen.connect = addr; connections = 1; batch = c.batch; count = c.count;
            dist = c.dist; seed = c.seed; query_mix = 0.0; global_mix = 0.0; shutdown = true;
            timeout = 10.0; retries = 50 }
      in
      Alcotest.(check int) "every point acked" c.count o.Loadgen.acked;
      let what = Printf.sprintf "domains %d: final checkpoint" domains in
      Alcotest.(check bool) (what ^ " written") true (Sys.file_exists ckpt);
      let queries = per_key_queries ~shards:c.shards ~window:c.window in
      let expected =
        Pool.with_pool ~domains (fun pool ->
            let eng = oracle_engine ~pool c in
            SE.checkpoint eng ~file:oracle_ckpt;
            (* a restore refreshes every shard, so compare refreshed answers *)
            SE.refresh_all eng;
            SE.query_many eng queries)
      in
      Alcotest.(check bool) (what ^ " bytes") true (read_file ckpt = read_file oracle_ckpt);
      let restored_points, answers =
        Pool.with_pool ~domains (fun pool ->
            let eng = SE.restore_from ~pool ~file:ckpt in
            SE.refresh_all eng;
            (SE.total_points eng, SE.query_many eng queries))
      in
      Alcotest.(check int) (what ^ ": restored points") c.count restored_points;
      Array.iteri
        (fun i e ->
          if Int64.bits_of_float e <> Int64.bits_of_float answers.(i) then
            Alcotest.failf "%s, query %d (key %d): restored %.17g, in-process %.17g" what i (i / 4)
              answers.(i) e)
        expected)
    domain_counts

(* -------------------------------------------------------- exposition

   Each role exports exactly the families its own structures move.  The
   roles share this process, so the exposure table is emptied before each
   starts; the leaves start before the root's clear, and nothing a leaf
   does after its start exposes a family. *)

let net_families =
  [ "net_bytes_in_total"; "net_bytes_out_total"; "net_connections_total";
    "net_frames_in_total"; "net_frames_out_total"; "net_idle_closes_total";
    "net_points_total"; "net_protocol_errors_total"; "net_queries_total" ]

let leaf_families =
  net_families
  @ [ "engine_batches_total"; "engine_points_total"; "engine_queries_total";
      "engine_snapshots_published_total" ]
  @ List.map
      (fun f -> "fw_" ^ f ^ "_total")
      [ "cold_evals"; "cold_refreshes"; "herror_evals"; "hint_hits"; "hint_misses";
        "intervals_built"; "memo_hits"; "memo_probes"; "refreshes"; "scan_candidates";
        "scan_steps"; "search_steps"; "warm_evals"; "warm_refreshes" ]
  @ [ "latency_ingest_batch"; "latency_query"; "latency_shard_apply" ]

let persist_families =
  [ "persist_bytes_read_total"; "persist_bytes_written_total";
    "persist_corrupt_rejections_total"; "persist_files_written_total";
    "persist_restores_total" ]

let root_families =
  net_families @ [ "agg_fanouts_total"; "agg_leaf_failures_total"; "agg_partial_replies_total" ]

(* Families that stay at 0 through a healthy run, and why. *)
let still_reasons =
  [ ("net_protocol_errors_total", "no client sends a bad frame");
    ("net_idle_closes_total", "no client idles past the reaper's limit");
    ("agg_leaf_failures_total", "no leaf fails");
    ("agg_partial_replies_total", "no leaf is down, so no reply is partial");
    ("persist_corrupt_rejections_total", "no damaged checkpoint is restored");
    ("persist_restores_total", "a leaf restores only when it starts");
    ("persist_bytes_read_total", "a leaf reads a checkpoint only to restore it");
    ("fw_cold_evals_total", "only ~cold:true oracle rebuilds move it");
    ("fw_cold_refreshes_total", "only ~cold:true oracle rebuilds move it") ]

(* A Metrics reply's families, each with whether it moved: a counter's
   sample or a summary's _count above 0. *)
let reply_families text =
  let lines = String.split_on_char '\n' text in
  let sample name =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ n; v ] when n = name -> float_of_string_opt v
        | _ -> None)
      lines
  in
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "#"; "TYPE"; family; kind ] ->
        let moved = sample (if kind = "summary" then family ^ "_count" else family) in
        Some (family, Option.value ~default:0.0 moved > 0.0)
      | _ -> None)
    lines

let check_role ~what ~expected addr =
  let cl = Client.connect ~timeout:10.0 addr in
  let fams = reply_families (Client.metrics cl) in
  Client.close cl;
  Alcotest.(check (list string)) (what ^ ": exposed families")
    (List.sort String.compare expected) (List.map fst fams);
  List.iter
    (fun (family, moved) ->
      if not (moved || List.mem_assoc family still_reasons) then
        Alcotest.failf "%s: %s is exposed but never moved" what family)
    fams

let test_role_expositions () =
  with_temp ".sock" @@ fun leaf1 ->
  with_temp ".sock" @@ fun leaf2 ->
  with_temp ".sock" @@ fun root ->
  with_temp ".ckpt" @@ fun ckpt ->
  let leaf1 = Addr.Unix_sock leaf1 and leaf2 = Addr.Unix_sock leaf2 in
  let root = Addr.Unix_sock root in
  let load ?(shutdown = false) ~count ~global_mix addr =
    ignore
      (Loadgen.run
         { Loadgen.connect = addr; connections = 1; batch = 50; count; dist = Traffic.Uniform;
           seed = 3; query_mix = 0.1; global_mix; shutdown; timeout = 10.0; retries = 50 }
        : Loadgen.outcome)
  in
  let stop addr =
    try
      let cl = Client.connect ~timeout:10.0 addr in
      Client.shutdown cl;
      Client.close cl
    with _ -> ()
  in
  Sh_obs.Obs.clear ();
  let leaf addr checkpoint =
    let c = { (base ~domains:1) with shards = 4; listen = [ addr ]; checkpoint } in
    Domain.spawn (fun () -> Runner.serve c)
  in
  let leaves = [ leaf leaf1 (Some ckpt); leaf leaf2 None ] in
  Fun.protect
    ~finally:(fun () ->
      stop leaf1;
      stop leaf2;
      List.iter Domain.join leaves)
  @@ fun () ->
  load ~count:1000 ~global_mix:0.0 leaf1;
  load ~count:1000 ~global_mix:0.0 leaf2;
  check_role ~what:"leaf" ~expected:leaf_families leaf1;
  let cl = Client.connect ~timeout:10.0 leaf1 in
  ignore (Client.checkpoint cl : string);
  Client.close cl;
  check_role ~what:"leaf after a checkpoint" ~expected:(leaf_families @ persist_families) leaf1;
  Sh_obs.Obs.clear ();
  let agg =
    Domain.spawn (fun () ->
        Runner.aggregate ~leaves:[ leaf1; leaf2 ] ~listen:[ root ] ~timeout:10.0
          ~idle_timeout:30.0)
  in
  Fun.protect ~finally:(fun () -> stop root; Domain.join agg) @@ fun () ->
  load ~count:1000 ~global_mix:0.25 root;
  check_role ~what:"root" ~expected:root_families root

(* ----------------------------------------------------------- recorder *)

(* The text of one JSON field of a recorder line: up to the next ',' or
   '}' (every field the checks read is a scalar). *)
let field line name =
  let key = Printf.sprintf "\"%s\":" name in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length line then Alcotest.failf "no field %s in %s" name line
    else if String.sub line i kl = key then i + kl
    else find (i + 1)
  in
  let start = find 0 in
  let rec stop j = if line.[j] = ',' || line.[j] = '}' then j else stop (j + 1) in
  String.sub line start (stop start - start)

(* The paper's promise, checked against state: each valid spot check
   scores the engine's histogram of a key against the exact window it
   summarises, next to the V-optimal optimum. *)
let check_samples ~what ~epsilon ~samples path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check int) (what ^ ": samples") samples (List.length lines);
  let valid =
    List.filter
      (fun line ->
        bool_of_string (field line "spot_valid")
        &&
        let sse = float_of_string (field line "sse") in
        let opt = float_of_string (field line "sse_opt") in
        if not (opt <= sse && sse <= (1.0 +. epsilon) *. opt) then
          Alcotest.failf "%s: sse %.9g outside [sse_opt, (1+%g) sse_opt] = [%.9g, %.9g]: %s" what
            sse epsilon opt ((1.0 +. epsilon) *. opt) line;
        true)
      lines
  in
  if valid = [] then Alcotest.failf "%s: no valid spot check" what

let test_recorder_within_bound () =
  List.iter
    (fun (epsilon, policy) ->
      with_temp ".jsonl" @@ fun record ->
      with_temp ".ckpt" @@ fun ckpt ->
      with_temp ".jsonl" @@ fun record2 ->
      let what = Printf.sprintf "eps %g, %s" epsilon (Params.policy_to_string policy) in
      let c =
        { (base ~domains:1) with epsilon; policy; record = Some record; checkpoint = Some ckpt;
                                 record_every = 2 }
      in
      Runner.serve c;
      (* 17 batches: one sample every 2, plus the final one *)
      check_samples ~what ~epsilon ~samples:9 record;
      (* restored: a key's spot check waits for its baseline to fill *)
      Runner.serve
        { c with restore = Some ckpt; checkpoint = None; record = Some record2; count = 3000 };
      check_samples ~what:(what ^ ", restored") ~epsilon ~samples:6 record2)
    [ (0.2, Params.Every 64); (0.05, Params.Eager); (0.5, Params.Lazy) ]

let () =
  Alcotest.run "serve"
    [
      ( "traffic",
        [
          Alcotest.test_case "arrivals golden" `Quick test_traffic_arrivals;
          Alcotest.test_case "queries golden" `Quick test_traffic_queries;
        ] );
      ( "runner",
        [
          Alcotest.test_case "checkpoint equals engine" `Quick test_checkpoint_matches_engine;
          Alcotest.test_case "listen + loadgen equal engine" `Quick test_listen_driven_by_loadgen;
          Alcotest.test_case "listen writes a final checkpoint" `Quick test_listen_final_checkpoint;
          Alcotest.test_case "listen refuses in-process settings" `Quick
            test_listen_refuses_in_process_settings;
          Alcotest.test_case "check names the flag" `Quick test_check_names_the_flag;
          Alcotest.test_case "record within (1+eps) bound" `Quick test_recorder_within_bound;
        ] );
      ( "exposition",
        [ Alcotest.test_case "each role exposes what it moves" `Quick test_role_expositions ] );
    ]
