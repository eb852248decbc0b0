(* The traced run: per-layer figures, each measured from outside the
   program by timing calls into one layer's public entry points.

   1. A live phase of the workload's own traffic, bracketed by registry
      counter reads (Metrics) and engine Stats.
   2. A depth-1 live phase: Ping, one ingest request and one Key query
      batch at a time — the round trips the ledger must account for.
   3. An in-process Aggregator against the live leaves: Global and Key
      batches, and the bytes a Global pulls from the leaves.
   4. The correctness gate, then shutdown.
   5. An in-process replay of the workload's generated requests: Wire
      encode, Frame.scan_frame + Wire.decode_request,
      Shard_engine.ingest_groups on a replay engine, and shadow per-key
      Fixed_window summaries (Lazy policy, refreshed explicitly at the
      engine's cadence points) timing push_slice, refresh and view; query
      batches through Shard_engine.query_many, Query_op.eval_view and the
      Answers encoder.

   Only stable public entry points are called.  Replay spans stay in
   memory and are written as a Chrome trace at the end. *)

module SE = Sh_par.Shard_engine
module FW = Stream_histogram.Fixed_window
module Q = Stream_histogram.Query_op
module Wire = Sh_net.Wire
module Client = Sh_net.Client
module Frame = Sh_persist.Frame
module Agg = Sh_agg.Aggregator

let m = Live.m

(* ---- spans ------------------------------------------------------------- *)

type span = { name : string; req : int; track : int; t0 : int; t1 : int }

let max_spans = 20_000
let spans = ref []
let span_count = ref 0

let span name ~req ~track t0 t1 =
  if !span_count < max_spans then begin
    spans := { name; req; track; t0; t1 } :: !spans;
    incr span_count
  end

let tracks = [ (0, "request"); (1, "wire codec"); (2, "engine"); (3, "shadow fw"); (4, "query") ]

let chrome_trace () =
  let open Json in
  let evs = List.rev !spans in
  let base = List.fold_left (fun a s -> min a s.t0) max_int evs in
  let us ns = Num (Float.of_int ns /. 1e3) in
  let meta =
    List.map
      (fun (tid, name) ->
        Obj
          [
            ("ph", Str "M"); ("pid", Num 0.); ("tid", Num (Float.of_int tid));
            ("name", Str "thread_name"); ("args", Obj [ ("name", Str name) ]);
          ])
      tracks
  in
  let ev s =
    Obj
      [
        ("ph", Str "X"); ("pid", Num 0.); ("tid", Num (Float.of_int s.track)); ("name", Str s.name);
        ("ts", us (s.t0 - base)); ("dur", us (s.t1 - s.t0));
        ( "args",
          Obj
            [
              ("req", Num (Float.of_int s.req));
              ("parent", Str (if s.track = 0 then "" else "request"));
            ] );
      ]
  in
  to_string (Obj [ ("traceEvents", Arr (meta @ List.map ev evs)); ("displayTimeUnit", Str "ms") ])

(* ---- replay ------------------------------------------------------------ *)

type replay = {
  enc : Stats.buf;  (** ns per request: client Wire.encode_request *)
  dec : Stats.buf;  (** ns per request: scan_frame + decode_request *)
  hop : Stats.buf;  (** ns per request: the root's re-encode + leaf decode of sub-batches *)
  engine : Stats.buf;  (** ns per request: ingest_groups, summed over leaves *)
  ack : Stats.buf;  (** ns per request: Ack encodes *)
  touched : Stats.buf;  (** leaves a request reaches *)
  enc_pp : Stats.buf;
  dec_pp : Stats.buf;
  engine_us : Stats.buf;  (** per leaf sub-request *)
  tracking_us : Stats.buf;  (** per leaf sub-request: latency trackers on minus off *)
  self_pp : Stats.buf;
  push_pp : Stats.buf;
  refresh_us : Stats.buf;
  view_us : Stats.buf;
  refresh_words : Stats.buf;
  view_words : Stats.buf;
  q_enc : Stats.buf;
  q_dec : Stats.buf;
  q_hop : Stats.buf;
  q_engine : Stats.buf;
  q_ans : Stats.buf;
  q_touched : Stats.buf;
  eval_per_op : Stats.buf;
  ans_per_query : Stats.buf;
  mutable view_mismatches : int;
}

let fresh_replay () =
  let b () = Stats.create () in
  {
    enc = b (); dec = b (); hop = b (); engine = b (); ack = b (); touched = b ();
    enc_pp = b (); dec_pp = b (); engine_us = b (); tracking_us = b (); self_pp = b ();
    push_pp = b ();
    refresh_us = b (); view_us = b (); refresh_words = b (); view_words = b ();
    q_enc = b (); q_dec = b (); q_hop = b (); q_engine = b (); q_ans = b (); q_touched = b ();
    eval_per_op = b (); ans_per_query = b (); view_mismatches = 0;
  }

let timed f =
  let t0 = Stats.now_ns () in
  let v = f () in
  (v, t0, Stats.now_ns ())

let decode s =
  match Frame.scan_frame ~max_len:Wire.max_frame_payload s ~pos:0 ~len:(String.length s) with
  | Frame.Frame { payload; _ } -> Wire.decode_request payload
  | Frame.Incomplete -> failwith "replay: incomplete frame"

(* Split a request's groups (or scoped queries) by owning leaf, rebasing
   keys the way the aggregator does. *)
let split (spec : Spec.t) items ~key ~rebase =
  let per = Array.make spec.leaves [] in
  Array.iter
    (fun it ->
      let l = key it / spec.shards in
      per.(l) <- rebase it (l * spec.shards) :: per.(l))
    items;
  Array.map (fun l -> Array.of_list (List.rev l)) per

let replay (spec : Spec.t) ~seed ~until =
  (* Samples restart once every key has published a view (the live run's
     warm-up gets there too), so queries never see an empty window. *)
  let rr = ref (fresh_replay ()) in
  (* `shist serve` always tracks latency quantiles; so does its replica *)
  Sh_obs.Obs.set_latency_enabled true;
  Sh_obs.Obs.set_clock Unix.gettimeofday;
  let pool = Sh_par.Domain_pool.create ~domains:1 in
  Fun.protect ~finally:(fun () -> Sh_par.Domain_pool.shutdown pool) @@ fun () ->
  let engine () =
    let e =
      SE.create ~pool ~shards:spec.shards ~window:spec.window ~buckets:spec.buckets
        ~epsilon:spec.epsilon
    in
    SE.set_refresh_policy e (Stream_histogram.Params.Every spec.every);
    e
  in
  let engines = Array.init spec.leaves (fun _ -> engine ()) in
  (* a twin fed the same sub-requests with latency tracking off: the
     difference is what the trackers cost *)
  let untracked = Array.init spec.leaves (fun _ -> engine ()) in
  let ingest_untracked l sub =
    Sh_obs.Obs.set_latency_enabled false;
    let (), t0, t1 = timed (fun () -> SE.ingest_groups untracked.(l) sub) in
    Sh_obs.Obs.set_latency_enabled true;
    t1 - t0
  in
  let keys = Spec.keys spec in
  let shadow =
    Array.init keys (fun _ ->
        FW.create ~window:spec.window ~buckets:spec.buckets ~epsilon:spec.epsilon)
  in
  let shadow_view = Array.make keys None in
  let ks = Load.keyspace spec ~seed in
  let split_groups gs =
    split spec gs ~key:fst ~rebase:(fun (k, vs) base -> (k - base, vs))
  in
  (* The shadow summaries: push every group, then refresh and cut a view
     wherever the engine's Every-k cadence would.  Returns the ns spent. *)
  let shadow_apply ~req groups ~record =
    let r = !rr in
    let (), p0, p1 =
      timed (fun () ->
          Array.iter
            (fun (k, vs) -> FW.push_slice shadow.(k) vs ~pos:0 ~len:(Array.length vs))
            groups)
    in
    if record then begin
      span "fw.push_slice" ~req ~track:3 p0 p1;
      Stats.add r.push_pp (Float.of_int (p1 - p0) /. Float.of_int (Wire.points_in_groups groups))
    end;
    let spent = ref (p1 - p0) in
    Array.iter
      (fun (k, _) ->
        let fw = shadow.(k) in
        if FW.pending_pushes fw >= spec.every then begin
          (* no closure between the clock and counter reads: the words
             counted are the calls' own *)
          let w0 = Gc.minor_words () in
          let t0 = Stats.now_ns () in
          FW.refresh fw;
          let t1 = Stats.now_ns () in
          let w1 = Gc.minor_words () in
          let t2 = Stats.now_ns () in
          let v = FW.view fw in
          let t3 = Stats.now_ns () in
          let w2 = Gc.minor_words () in
          shadow_view.(k) <- Some v;
          spent := !spent + (t1 - t0) + (t3 - t2);
          if record then begin
            Stats.add r.refresh_us (Float.of_int (t1 - t0) /. 1e3);
            Stats.add r.view_us (Float.of_int (t3 - t2) /. 1e3);
            Stats.add r.refresh_words (w1 -. w0);
            Stats.add r.view_words (w2 -. w1);
            span "fw.refresh" ~req ~track:3 t0 t1;
            span "fw.view" ~req ~track:3 t2 t3
          end
        end)
      groups;
    !spent
  in
  (* Set-up, exactly as the live tree received it. *)
  List.iter
    (fun groups ->
      Array.iteri
        (fun l sub ->
          if sub <> [||] then begin
            SE.ingest_groups engines.(l) sub;
            ignore (ingest_untracked l sub)
          end)
        (split_groups groups);
      ignore (shadow_apply ~req:(-1) groups ~record:false))
    (Load.prefill spec ks);
  let pickers =
    match spec.loop with
    | Closed _ -> [| Load.picker spec ~seed 0; Load.picker spec ~seed 1 |]
    | Open _ -> [| Load.picker spec ~seed 0 |]
  in
  let queries = Load.queries spec ~seed in
  let ingest_one req =
    let r = !rr in
    let pick = pickers.(req mod Array.length pickers) in
    let groups = Load.request ks ~pick ~batch:spec.batch in
    let points = Float.of_int spec.batch in
    let s, e0, e1 = timed (fun () -> Wire.encode_request (Wire.Ingest groups)) in
    let decoded, d0, d1 = timed (fun () -> decode s) in
    let gs = match decoded with Wire.Ingest gs -> gs | _ -> failwith "replay: not an ingest" in
    span "wire.encode_request" ~req ~track:1 e0 e1;
    span "wire.decode_request" ~req ~track:1 d0 d1;
    let hop = ref 0 and engine = ref 0 and ack = ref 0 and touched = ref 0 in
    Array.iteri
      (fun l sub ->
        if sub <> [||] then begin
          incr touched;
          if spec.leaves > 1 then begin
            (* the root re-encodes the sub-batch; the leaf decodes it *)
            let s, h0, h1 = timed (fun () -> Wire.encode_request (Wire.Ingest sub)) in
            let _, h2, h3 = timed (fun () -> decode s) in
            hop := !hop + (h1 - h0) + (h3 - h2)
          end;
          let (), i0, i1 = timed (fun () -> SE.ingest_groups engines.(l) sub) in
          span "engine.ingest_groups" ~req ~track:2 i0 i1;
          Stats.add r.tracking_us (Float.of_int (i1 - i0 - ingest_untracked l sub) /. 1e3);
          let base = l * spec.shards in
          let global_sub = Array.map (fun (k, vs) -> (k + base, vs)) sub in
          let fw_ns = shadow_apply ~req global_sub ~record:true in
          let sub_points = Float.of_int (Wire.points_in_groups sub) in
          engine := !engine + (i1 - i0);
          Stats.add r.engine_us (Float.of_int (i1 - i0) /. 1e3);
          Stats.add r.self_pp (Float.of_int (i1 - i0 - fw_ns) /. sub_points);
          let ack_sub = Wire.Ack (Wire.points_in_groups sub) in
          let _, a0, a1 = timed (fun () -> Wire.encode_response ack_sub) in
          ack := !ack + (a1 - a0)
        end)
      (split_groups gs);
    let _, a0, a1 = timed (fun () -> Wire.encode_response (Wire.Ack spec.batch)) in
    if spec.leaves > 1 then ack := !ack + (a1 - a0);
    Stats.add r.enc (Float.of_int (e1 - e0));
    Stats.add r.dec (Float.of_int (d1 - d0));
    Stats.add r.hop (Float.of_int !hop);
    Stats.add r.engine (Float.of_int !engine);
    Stats.add r.ack (Float.of_int !ack);
    Stats.add r.touched (Float.of_int !touched);
    Stats.add r.enc_pp (Float.of_int (e1 - e0) /. points);
    Stats.add r.dec_pp (Float.of_int (d1 - d0) /. points);
    span "request" ~req ~track:0 e0 (Stats.now_ns ())
  in
  let query_one req =
    let r = !rr in
    let qs = queries.key_batch () in
    let ops = Float.of_int (Array.length qs) in
    let s, e0, e1 = timed (fun () -> Wire.encode_request (Wire.Query qs)) in
    let decoded, d0, d1 = timed (fun () -> decode s) in
    let qs = match decoded with Wire.Query qs -> qs | _ -> failwith "replay: not a query" in
    let subs =
      split spec qs
        ~key:(function Q.Key k, _ -> k | Q.Global, _ -> 0)
        ~rebase:(fun (scope, q) base ->
          match scope with Q.Key k -> (Q.Key (k - base), q) | Q.Global -> (scope, q))
    in
    let hop = ref 0 and engine = ref 0 and ans = ref 0 and touched = ref 0 in
    Array.iteri
      (fun l sub ->
        if sub <> [||] then begin
          incr touched;
          if spec.leaves > 1 then begin
            let s, h0, h1 = timed (fun () -> Wire.encode_request (Wire.Query sub)) in
            let _, h2, h3 = timed (fun () -> decode s) in
            hop := !hop + (h1 - h0) + (h3 - h2)
          end;
          let a, q0, q1 = timed (fun () -> SE.query_many engines.(l) sub) in
          span "engine.query_many" ~req ~track:4 q0 q1;
          engine := !engine + (q1 - q0);
          let _, v0, v1 =
            timed (fun () ->
                Array.iter
                  (fun (scope, q) ->
                    match scope with
                    | Q.Key k ->
                      let v = SE.view engines.(l) ~key:k in
                      ignore (Sys.opaque_identity (Q.eval_view v q))
                    | Q.Global -> ())
                  sub)
          in
          span "query_op.eval_view" ~req ~track:4 v0 v1;
          Stats.add r.eval_per_op (Float.of_int (v1 - v0) /. Float.of_int (Array.length sub));
          let _, a0, a1 = timed (fun () -> Wire.encode_response (Wire.Answers a)) in
          ans := !ans + (a1 - a0);
          Stats.add r.ans_per_query (Float.of_int (a1 - a0) /. Float.of_int (Array.length sub))
        end)
      subs;
    if spec.leaves > 1 then begin
      let answers = Wire.Answers (Array.make (Array.length qs) 0.0) in
      let _, a0, a1 = timed (fun () -> Wire.encode_response answers) in
      ans := !ans + (a1 - a0)
    end;
    Stats.add r.q_enc (Float.of_int (e1 - e0));
    Stats.add r.q_dec (Float.of_int (d1 - d0));
    Stats.add r.q_hop (Float.of_int !hop);
    Stats.add r.q_engine (Float.of_int !engine /. 1e3);
    Stats.add r.q_ans (Float.of_int !ans);
    Stats.add r.q_touched (Float.of_int !touched);
    ignore ops
  in
  let req = ref 0 and warm = ref false in
  while Stats.now () < until do
    if (not !warm) && Array.for_all Option.is_some shadow_view then begin
      warm := true;
      rr := fresh_replay ()
    end;
    ingest_one !req;
    if !req mod 4 = 3 then query_one !req;
    incr req
  done;
  let r = !rr in
  (* The shadow must track the engine's published views exactly. *)
  Array.iteri
    (fun k v ->
      match v with
      | Some v ->
        let e = SE.view engines.(k / spec.shards) ~key:(k mod spec.shards) in
        if not (Gate.same_bits (FW.View.current_error v) (FW.View.current_error e)) then
          r.view_mismatches <- r.view_mismatches + 1
      | None -> ())
    shadow_view;
  r

(* ---- live phases -------------------------------------------------------- *)

type rtt = { ping : Stats.buf; ping_leaf : Stats.buf; ingest : Stats.buf; query : Stats.buf }

(* Depth 1: nothing else in flight, so each round trip is one request's
   whole path. *)
let depth1 (spec : Spec.t) (tree : Servers.t) ~seed ~until lane =
  let r =
    {
      ping = Stats.create ();
      ping_leaf = Stats.create ();
      ingest = Stats.create ();
      query = Stats.create ();
    }
  in
  let c = tree.conns.(0) in
  let pick = Load.picker spec ~seed 0 in
  let queries = Load.queries spec ~seed in
  let rt buf f =
    let t0 = Stats.now_ns () in
    f ();
    Stats.add buf (Float.of_int (Stats.now_ns () - t0))
  in
  Load.guard lane ~outstanding:(fun () -> 1) (fun () ->
      while Stats.now () < until do
        rt r.ping (fun () -> Client.ping c);
        if spec.leaves > 1 then rt r.ping_leaf (fun () -> Client.ping (List.hd tree.leaves).admin);
        let groups = Load.request tree.ks ~pick ~batch:spec.batch in
        rt r.ingest (fun () ->
            lane.Load.attempted <- lane.attempted + 1;
            if Client.ingest c groups <> spec.batch then lane.failed <- lane.failed + 1);
        let qs = queries.key_batch () in
        rt r.query (fun () ->
            lane.attempted <- lane.attempted + 1;
            let answers = Client.query c qs in
            if Array.length answers <> Array.length qs then lane.failed <- lane.failed + 1)
      done);
  r

let leaf_bytes_out (tree : Servers.t) =
  List.fold_left
    (fun (bytes, reply) (p : Servers.proc) ->
      let text = Client.metrics p.admin in
      let v =
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "net_bytes_out_total"; v ] -> float_of_string_opt v
            | _ -> None)
          (String.split_on_char '\n' text)
      in
      (* the Metrics reply's own frame is flushed after the counter was
         rendered, so it lands in the next reading *)
      ( Option.bind bytes (fun b -> Option.map (( +. ) b) v),
        reply + String.length (Wire.encode_response (Wire.Metrics_reply text)) ))
    (Some 0.0, 0) tree.leaves

type agg = { global_ms : Stats.buf; key_us : Stats.buf; bytes_per_global : float option }

(* An in-process Aggregator over the live leaves. *)
let aggregator (spec : Spec.t) (tree : Servers.t) ~seed ~until lane =
  let a = Agg.create ~timeout:10.0 (List.map (fun (p : Servers.proc) -> p.addr) tree.leaves) in
  Fun.protect ~finally:(fun () -> Agg.close a) @@ fun () ->
  let queries = Load.queries spec ~seed in
  let r = { global_ms = Stats.create (); key_us = Stats.create (); bytes_per_global = None } in
  let call buf scale qs =
    let t0 = Stats.now_ns () in
    let answers, missing = Agg.query a qs in
    Stats.add buf (Float.of_int (Stats.now_ns () - t0) *. scale);
    lane.Load.attempted <- lane.Load.attempted + 1;
    if missing > 0 || Array.length answers <> Array.length qs then lane.failed <- lane.failed + 1
  in
  let half = Stats.now () +. ((until -. Stats.now ()) /. 2.0) in
  let b0, reply0 = leaf_bytes_out tree in
  while Stats.count r.global_ms < 3 || Stats.now () < half do
    call r.global_ms 1e-6 (queries.global_batch ())
  done;
  let b1, _ = leaf_bytes_out tree in
  let bytes_per_global =
    match (b0, b1) with
    | Some b0, Some b1 ->
      Some ((b1 -. b0 -. Float.of_int reply0) /. Float.of_int (Stats.count r.global_ms))
    | _ -> None
  in
  while Stats.count r.key_us < 3 || Stats.now () < until do
    call r.key_us 1e-3 (queries.key_batch ())
  done;
  { r with bytes_per_global }

(* ---- the traced run ----------------------------------------------------- *)

let med b = Option.value ~default:nan (Stats.median b)

let run (spec : Spec.t) ~seed ~seconds ~trace_out =
  let tree, _ = Servers.setup spec ~seed in
  let t = Stats.now () in
  let phase share = t +. (share *. seconds) in
  let s0 = Live.snapshot tree in
  let w = { Load.t_start = t; t_measure = t; t_end = phase 0.35 } in
  let lanes = Live.drive spec tree ~seed w in
  let s1 = Live.snapshot tree in
  let lane = Load.lane () in
  let rtt = depth1 spec tree ~seed ~until:(phase 0.5) lane in
  let agg = aggregator spec tree ~seed ~until:(phase 0.65) lane in
  let gate = Gate.run spec ~seed ~client:tree.conns.(0) ~ks:tree.ks in
  let exits = Servers.teardown tree in
  let r = replay spec ~seed ~until:(Stats.now () +. (0.35 *. seconds)) in
  Out_channel.with_open_text trace_out (fun oc -> output_string oc (chrome_trace ()));
  let ping_ns = med rtt.ping and ping_leaf_ns = med rtt.ping_leaf in
  let hops_ns touched = if spec.leaves > 1 then med touched *. ping_leaf_ns else 0.0 in
  let ingest_stages =
    ping_ns +. hops_ns r.touched +. med r.enc +. med r.dec +. med r.hop +. med r.engine
    +. med r.ack
  in
  let query_stages =
    ping_ns +. hops_ns r.q_touched +. med r.q_enc +. med r.q_dec +. med r.q_hop
    +. (1e3 *. med r.q_engine) +. med r.q_ans
  in
  let layers =
    List.filter_map Fun.id
      [
        Some (m "net.ping_rtt_us_p50" "us" (ping_ns /. 1e3));
        Live.pct "net.encode_ns_per_point" "ns" r.enc_pp 0.5;
        Live.pct "net.decode_ns_per_point" "ns" r.dec_pp 0.5;
        Live.pct "net.encode_answers_ns_per_query" "ns" r.ans_per_query 0.5;
        Live.pct "engine.ingest_us_per_request" "us" r.engine_us 0.5;
        Live.pct "engine.self_ns_per_point" "ns" r.self_pp 0.5;
        Live.pct "obs.latency_us_per_request" "us" r.tracking_us 0.5;
        Live.pct "engine.query_many_us_per_batch" "us" r.q_engine 0.5;
        Live.pct "fw.push_ns_per_point" "ns" r.push_pp 0.5;
        Live.pct "fw.refresh_us_p50" "us" r.refresh_us 0.5;
        Live.pct "fw.refresh_us_p99" "us" r.refresh_us 0.99;
        Live.pct "fw.view_us_p50" "us" r.view_us 0.5;
        Live.pct "fw.refresh_words" "words" r.refresh_words 0.5;
        Live.pct "fw.view_words" "words" r.view_words 0.5;
        Live.pct "query.eval_ns_per_op" "ns" r.eval_per_op 0.5;
        Live.pct "agg.global_ms_p50" "ms" agg.global_ms 0.5;
        Live.pct "agg.key_us_p50" "us" agg.key_us 0.5;
        Option.map (m "agg.leaf_bytes_per_global" "B") agg.bytes_per_global;
        Some (m "ledger.ingest_accounted_frac" "ratio" (ingest_stages /. med rtt.ingest));
        Some (m "ledger.query_accounted_frac" "ratio" (query_stages /. med rtt.query));
        Some (m "ledger.ingest_rtt_us_p50" "us" (med rtt.ingest /. 1e3));
        Some (m "ledger.query_rtt_us_p50" "us" (med rtt.query /. 1e3));
      ]
    @ Live.counter_metrics s0 s1 ~lanes
  in
  let attempted, failed, errs = Live.lane_totals (lane :: lanes) in
  let problems =
    errs @ gate.problems @ exits
    @
    if r.view_mismatches = 0 then []
    else [ Printf.sprintf "%d shadow views differ from the replay engine's" r.view_mismatches ]
  in
  {
    Live.metrics = [];
    layers;
    attempted = attempted + gate.attempted + List.length (Servers.procs tree) + 1;
    failed = failed + gate.failed + List.length exits + min 1 r.view_mismatches;
    problems;
  }
