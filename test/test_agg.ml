(* lib/agg: the two-tier aggregation plane over live sockets.  A two-leaf
   root must answer [Global] bit-identically to a single process fed the
   same per-key streams — under eager and lagging refresh alike, since both
   sides answer from published views — a killed leaf must degrade to a
   typed partial result, never a hang, and a leaf that comes back with a
   different layout must stay out of the answers.  Served by the one
   serve loop, the root exports the same [net.*] telemetry as a leaf. *)

module Qop = Stream_histogram.Query_op
module Params = Stream_histogram.Params
module SE = Sh_par.Shard_engine
module Pool = Sh_par.Domain_pool
module Addr = Sh_net.Addr
module Wire = Sh_net.Wire
module Server = Sh_net.Server
module Client = Sh_net.Client
module Aggregator = Sh_agg.Aggregator
module Registry = Sh_obs.Registry
module Rng = Sh_util.Rng

let bits = Int64.bits_of_float

let check_bits msg a b =
  if bits a <> bits b then Alcotest.failf "%s: %h <> %h (not bit-identical)" msg a b

let expect_incompatible what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Merge_incompatible" what
  | exception Aggregator.Merge_incompatible _ -> ()

(* ------------------------------------------------------- the Global fold *)

let fw_window = 64
let fw_buckets = 4

let global_queries =
  [
    Qop.Window_length;
    Qop.Current_error;
    Qop.Range_sum { lo = 1; hi = fw_window };
    Qop.Point_estimate { index = 3 };
    Qop.Herror { k = 2; x = 10 };
  ]

let test_global_is_key_fold () =
  (* The law the root relies on: an engine's [Global] answer is the
     left fold from 0.0 of its [Key] answers in ascending key order. *)
  let shards = 8 in
  Pool.with_pool ~domains:1 @@ fun pool ->
  let eng =
    SE.create ~pool ~shards ~window:fw_window ~buckets:fw_buckets ~epsilon:0.1
  in
  let rng = Helpers.rng ~seed:5 in
  Array.iter
    (fun k ->
      SE.ingest eng
        (Array.init
           (16 + (8 * k))
           (fun _ -> (k, float_of_int (Rng.int rng 100)))))
    (Array.init shards Fun.id);
  SE.refresh_all eng;
  List.iter
    (fun q ->
      let per_key = SE.query_many eng (Array.init shards (fun k -> (Qop.Key k, q))) in
      check_bits (Qop.to_string q)
        (SE.query_many eng [| (Qop.Global, q) |]).(0)
        (Array.fold_left ( +. ) 0.0 per_key))
    global_queries

(* ----------------------------------------- aggregation plane, live wire *)

let geometry = (64, 4, 0.1)

type live_leaf = {
  addr : Addr.t;
  listener : Unix.file_descr;
  stop : bool Atomic.t;
  domain : Server.report Domain.t;
  sock_path : string;
}

(* One leaf server on its own domain, individually killable, on a fresh
   socket unless [path] names one (a restart on the old address). *)
let start_leaf ?path ?window ?(policy = Params.Eager) ~shards () =
  let default_window, buckets, epsilon = geometry in
  let window = Option.value window ~default:default_window in
  let path =
    match path with
    | Some p -> p
    | None ->
      let p = Filename.temp_file "shist_agg" ".sock" in
      Unix.unlink p;
      p
  in
  let addr = Addr.Unix_sock path in
  let listener = Server.listen addr in
  let stop = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Pool.with_pool ~domains:1 (fun pool ->
            let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
            SE.set_refresh_policy eng policy;
            Server.run
              ~stop:(fun () -> Atomic.get stop)
              ~backend:(Server.engine eng) ~listeners:[ listener ] ()))
  in
  { addr; listener; stop; domain; sock_path = path }

let kill_leaf l =
  Atomic.set l.stop true;
  ignore (Domain.join l.domain : Server.report);
  (try Unix.close l.listener with Unix.Unix_error _ -> ());
  try Unix.unlink l.sock_path with Unix.Unix_error _ | Sys_error _ -> ()

let scoped_batch ~shards ~window =
  Array.append
    (Array.concat
       (List.init shards (fun k ->
            [|
              (Qop.Key k, Qop.Window_length);
              (Qop.Key k, Qop.Range_sum { lo = 1; hi = window });
              (Qop.Key k, Qop.Current_error);
            |])))
    [|
      (Qop.Global, Qop.Window_length);
      (Qop.Global, Qop.Range_sum { lo = 1; hi = window });
      (Qop.Global, Qop.Current_error);
      (Qop.Global, Qop.Point_estimate { index = 7 });
    |]

(* Both sides answer from published views, so the comparison holds for a
   lagging refresh policy too: under [Every 64] the keys with fewer than
   64 points still publish their empty initial view. *)
let aggregator_matches_single_process policy =
  let window, _, _ = geometry in
  let la = start_leaf ~policy ~shards:4 () in
  let lb = start_leaf ~policy ~shards:4 () in
  let oracle = start_leaf ~policy ~shards:8 () in
  Fun.protect ~finally:(fun () -> List.iter kill_leaf [ la; lb; oracle ]) @@ fun () ->
  let agg = Aggregator.create ~timeout:10.0 [ la.addr; lb.addr ] in
  let oc = Client.connect ~timeout:10.0 oracle.addr in
  Fun.protect
    ~finally:(fun () ->
      Aggregator.close agg;
      Client.close oc)
  @@ fun () ->
  Alcotest.(check int) "total shards" 8 (Aggregator.total_shards agg);
  Alcotest.(check int) "leaf count" 2 (Aggregator.leaf_count agg);
  Alcotest.(check int) "window" window (Aggregator.window agg);
  (* identical per-key streams into the tree and the single process *)
  let rng = Helpers.rng ~seed:99 in
  let groups =
    Array.init 8 (fun k ->
        (k, Array.init (40 + (8 * k)) (fun _ -> float_of_int (Rng.int rng 100))))
  in
  let total = Array.fold_left (fun acc (_, vs) -> acc + Array.length vs) 0 groups in
  let acked, missing = Aggregator.ingest agg groups in
  Alcotest.(check int) "aggregator acked all points" total acked;
  Alcotest.(check int) "no leaf missing on ingest" 0 missing;
  Alcotest.(check int) "oracle acked all points" total (Client.ingest oc groups);
  let qs = scoped_batch ~shards:8 ~window in
  let agg_answers, lm = Aggregator.query agg qs in
  Alcotest.(check int) "no leaf missing on query" 0 lm;
  let oracle_answers = Client.query oc qs in
  Alcotest.(check int) "answer counts" (Array.length oracle_answers)
    (Array.length agg_answers);
  Array.iteri
    (fun i expected ->
      let scope, q = qs.(i) in
      let tag =
        match scope with
        | Qop.Key k -> Printf.sprintf "key %d %s" k (Qop.to_string q)
        | Qop.Global -> Printf.sprintf "global %s" (Qop.to_string q)
      in
      check_bits tag expected agg_answers.(i))
    oracle_answers;
  (* a Global costs the root no per-query state: nothing registers new
     metric series *)
  let globals = Array.of_list (List.map (fun q -> (Qop.Global, q)) global_queries) in
  let series = Registry.series_count () in
  for _ = 1 to 10 do
    ignore (Aggregator.query agg globals : float array * int)
  done;
  Alcotest.(check int) "registry series unchanged by Global queries" series
    (Registry.series_count ());
  let st, sm = Aggregator.stats agg in
  Alcotest.(check int) "stats: no leaf missing" 0 sm;
  Alcotest.(check int) "stats: shards" 8 st.Wire.shards;
  Alcotest.(check int) "stats: total points" total st.Wire.total_points

let test_aggregator_matches_single_process () =
  List.iter aggregator_matches_single_process [ Params.Eager; Params.Every 64 ]

let test_aggregator_leaf_failure_partial () =
  let per_key = 10 in
  let la = start_leaf ~shards:2 () in
  let lb = start_leaf ~shards:2 () in
  let lb_killed = ref false in
  Fun.protect
    ~finally:(fun () ->
      kill_leaf la;
      if not !lb_killed then kill_leaf lb)
  @@ fun () ->
  let agg = Aggregator.create ~timeout:5.0 [ la.addr; lb.addr ] in
  Fun.protect ~finally:(fun () -> Aggregator.close agg) @@ fun () ->
  let groups =
    Array.init 4 (fun k -> (k, Array.init per_key (fun i -> float_of_int (k + i))))
  in
  let acked, missing = Aggregator.ingest agg groups in
  Alcotest.(check int) "all acked while healthy" (4 * per_key) acked;
  Alcotest.(check int) "no leaf missing while healthy" 0 missing;
  kill_leaf lb;
  lb_killed := true;
  let qs =
    [|
      (Qop.Key 0, Qop.Window_length);
      (Qop.Key 3, Qop.Window_length);
      (Qop.Global, Qop.Window_length);
    |]
  in
  (* typed partial result: the dead leaf's keys and its slice of the
     Global answer degrade to 0, the live leaf still answers *)
  let answers, lm = Aggregator.query agg qs in
  Alcotest.(check int) "one leaf missing" 1 lm;
  check_bits "live key answered" (float_of_int per_key) answers.(0);
  check_bits "dead leaf's key is 0" 0.0 answers.(1);
  check_bits "global covers live leaf only" (float_of_int (2 * per_key)) answers.(2);
  (* the leaf stays down across requests: reconnect fails fast, result
     stays typed-partial (and this test finishing at all is the no-hang
     guarantee) *)
  let answers2, lm2 = Aggregator.query agg qs in
  Alcotest.(check int) "still one leaf missing" 1 lm2;
  check_bits "still answers live key" (float_of_int per_key) answers2.(0);
  (* ingest degrades the same way: live sub-batch acked, dead one dropped *)
  let acked2, missing2 = Aggregator.ingest agg [| (0, [| 1.0 |]); (3, [| 1.0 |]) |] in
  Alcotest.(check int) "live leaf acked its point" 1 acked2;
  Alcotest.(check int) "ingest reports dead leaf" 1 missing2;
  (* a batch that never touches the dead leaf is complete, not partial:
     leaves_missing counts leaves asked to contribute that could not *)
  let answers3, lm3 = Aggregator.query agg [| (Qop.Key 0, Qop.Window_length) |] in
  Alcotest.(check int) "dead leaf not involved, not counted" 0 lm3;
  check_bits "live key grew by one" (float_of_int (per_key + 1)) answers3.(0)

let test_aggregator_rejects_bad_key () =
  let la = start_leaf ~shards:2 () in
  Fun.protect ~finally:(fun () -> kill_leaf la) @@ fun () ->
  let agg = Aggregator.create ~timeout:5.0 [ la.addr ] in
  Fun.protect ~finally:(fun () -> Aggregator.close agg) @@ fun () ->
  List.iter
    (fun k ->
      match Aggregator.query agg [| (Qop.Key k, Qop.Window_length) |] with
      | _ -> Alcotest.failf "key %d: expected Invalid_argument" k
      | exception Invalid_argument _ -> ())
    [ -1; 2; 100 ];
  match Aggregator.ingest agg [| (2, [| 1.0 |]) |] with
  | _ -> Alcotest.fail "ingest key 2: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_aggregator_geometry_mismatch () =
  let window, _, _ = geometry in
  let la = start_leaf ~shards:2 () in
  (* a leaf with a different window must be refused at create time *)
  let lb = start_leaf ~window:(window * 2) ~shards:2 () in
  Fun.protect ~finally:(fun () -> List.iter kill_leaf [ la; lb ]) @@ fun () ->
  expect_incompatible "window mismatch across leaves" (fun () ->
      let agg = Aggregator.create ~timeout:5.0 [ la.addr; lb.addr ] in
      Aggregator.close agg;
      agg)

let test_aggregator_reprobes_restarted_leaf () =
  let per_key = 10 in
  let la = start_leaf ~shards:2 () in
  let lb = ref (start_leaf ~shards:2 ()) in
  Fun.protect ~finally:(fun () -> List.iter kill_leaf [ la; !lb ]) @@ fun () ->
  let agg = Aggregator.create ~timeout:5.0 [ la.addr; !lb.addr ] in
  Fun.protect ~finally:(fun () -> Aggregator.close agg) @@ fun () ->
  let acked, _ =
    Aggregator.ingest agg (Array.init 4 (fun k -> (k, Array.make per_key 1.0)))
  in
  Alcotest.(check int) "all acked while healthy" (4 * per_key) acked;
  let qs = [| (Qop.Key 0, Qop.Window_length); (Qop.Global, Qop.Window_length) |] in
  let restart shards =
    let path = !lb.sock_path in
    kill_leaf !lb;
    lb := start_leaf ~path ~shards ()
  in
  let check_global tag lm_expected =
    let answers, lm = Aggregator.query agg qs in
    Alcotest.(check int) (tag ^ ": leaves missing") lm_expected lm;
    check_bits (tag ^ ": live key") (float_of_int per_key) answers.(0);
    check_bits (tag ^ ": global") (float_of_int (2 * per_key)) answers.(1)
  in
  (* the first query after the kill finds the old connection dead *)
  restart 3;
  check_global "old connection dropped" 1;
  (* the reconnect reaches a leaf with three shards: its keys would no
     longer line up with the layout fixed at create, so it stays down *)
  check_global "re-sharded leaf refused" 1;
  (* back with the original layout (and an empty window): it rejoins *)
  restart 2;
  check_global "matching leaf rejoins" 0

(* ------------------------------------------------ the root on the wire *)

(* A Prometheus family's samples in a Metrics reply, one per series. *)
let prom_samples text family =
  List.filter_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i when line.[0] <> '#' ->
        let series = String.sub line 0 i in
        let name =
          match String.index_opt series '{' with
          | Some j -> String.sub series 0 j
          | None -> series
        in
        if name = family then
          Some (float_of_string (String.sub line (i + 1) (String.length line - i - 1)))
        else None
      | _ -> None)
    (String.split_on_char '\n' text)

(* A root served by the one serve loop in front of two in-process leaves.
   The leaves share this process's registry, so the root's own [net.*]
   traffic is read as deltas: traffic to the root alone must move them. *)
let test_root_serves_metrics_and_degrades () =
  let la = start_leaf ~shards:2 () in
  let lb = start_leaf ~shards:2 () in
  let lb_killed = ref false in
  let path = Filename.temp_file "shist_agg_root" ".sock" in
  Unix.unlink path;
  let addr = Addr.Unix_sock path in
  let listener = Server.listen addr in
  let agg = Aggregator.create ~timeout:5.0 [ la.addr; lb.addr ] in
  let stop = Atomic.make false in
  let root =
    Domain.spawn (fun () ->
        Server.run
          ~stop:(fun () -> Atomic.get stop)
          ~backend:(Aggregator.backend agg) ~listeners:[ listener ] ())
  in
  let report = lazy (Domain.join root) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Lazy.force report : Server.report);
      Aggregator.close agg;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      kill_leaf la;
      if not !lb_killed then kill_leaf lb)
  @@ fun () ->
  let c = Client.connect ~timeout:5.0 addr in
  let m1 = Client.metrics c in
  List.iter
    (fun family ->
      if prom_samples m1 family = [] then Alcotest.failf "root metrics lack %s" family)
    [ "net_connections_total"; "net_frames_in_total"; "agg_fanouts_total" ];
  let c2 = Client.connect ~timeout:5.0 addr in
  Client.ping c2;
  Client.close c2;
  let m2 = Client.metrics c in
  let total m family = List.fold_left ( +. ) 0.0 (prom_samples m family) in
  let delta family = int_of_float (total m2 family -. total m1 family) in
  Alcotest.(check int) "root counts its connections" 1 (delta "net_connections_total");
  (* the Ping on the new connection and this Metrics request *)
  Alcotest.(check int) "root counts its frames" 2 (delta "net_frames_in_total");
  let groups = Array.init 4 (fun k -> (k, [| 1.0; 2.0 |])) in
  Alcotest.(check int) "all acked while healthy" 8 (Client.ingest c groups);
  kill_leaf lb;
  lb_killed := true;
  (match Client.call c (Wire.Query [| (Qop.Key 0, Qop.Window_length); (Qop.Global, Qop.Window_length) |]) with
  | Wire.Answers_partial { answers; leaves_missing } ->
    Alcotest.(check int) "one leaf missing" 1 leaves_missing;
    check_bits "live key" 2.0 answers.(0);
    check_bits "global covers the live leaf" 4.0 answers.(1)
  | _ -> Alcotest.fail "expected Answers_partial with a leaf down");
  Alcotest.(check int) "short ack: the dead leaf's points dropped" 4 (Client.ingest c groups);
  Client.shutdown c;
  Client.close c;
  let rep = Lazy.force report in
  Alcotest.(check int) "report: acked points" 12 rep.Server.points;
  Alcotest.(check int) "report: partial replies" 1 rep.Server.partial_replies;
  Alcotest.(check int) "report: connections" 2 rep.Server.connections

let () =
  Alcotest.run "agg"
    [
      ( "global fold",
        [
          Alcotest.test_case "engine Global == ascending Key fold" `Quick
            test_global_is_key_fold;
        ] );
      ( "aggregation plane",
        [
          Alcotest.test_case "two leaves == single process (bitwise)" `Quick
            test_aggregator_matches_single_process;
          Alcotest.test_case "killed leaf degrades to typed partial" `Quick
            test_aggregator_leaf_failure_partial;
          Alcotest.test_case "out-of-range keys rejected" `Quick
            test_aggregator_rejects_bad_key;
          Alcotest.test_case "leaf geometry mismatch refused" `Quick
            test_aggregator_geometry_mismatch;
          Alcotest.test_case "restarted leaf re-probed" `Quick
            test_aggregator_reprobes_restarted_leaf;
        ] );
      ( "root serve loop",
        [
          Alcotest.test_case "net.* metrics, partial answers, short acks" `Quick
            test_root_serves_metrics_and_degrades;
        ] );
    ]
