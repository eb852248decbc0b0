(* lib/par: domain pool semantics, shard-engine == sequential equivalence,
   push_many == push, and multi-domain telemetry safety.

   Domain counts default to {1, 2, 4}; the CI multicore smoke overrides
   them via SH_TEST_DOMAINS (comma-separated) to exercise specific pool
   sizes on multi-core runners. *)

module Pool = Sh_par.Domain_pool
module SE = Sh_par.Shard_engine
module FW = Stream_histogram.Fixed_window
module Qop = Stream_histogram.Query_op
module Params = Stream_histogram.Params
module H = Sh_histogram.Histogram
module Rng = Sh_util.Rng
module M = Sh_obs.Metric
module Obs = Sh_obs.Obs

let domain_counts =
  match Sys.getenv_opt "SH_TEST_DOMAINS" with
  | None | Some "" -> [ 1; 2; 4 ]
  | Some s ->
    List.filter_map int_of_string_opt (String.split_on_char ',' s)

(* Generation stamp of [key]'s published view, read under a pin. *)
let read_gen eng ~key = SE.with_view eng ~key ~f:FW.View.generation

(* ---------------------------------------------------------- domain pool *)

let test_pool_validation () =
  Alcotest.check_raises "domains >= 1" (Invalid_argument "Domain_pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0));
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check int) "domains accessor" 2 (Pool.domains pool))

let test_pool_run_results_in_order () =
  List.iter
    (fun d ->
      Pool.with_pool ~domains:d (fun pool ->
          let results = Pool.run pool (Array.init 37 (fun i -> fun () -> i * i)) in
          Alcotest.(check (array int))
            (Printf.sprintf "squares in order, %d domains" d)
            (Array.init 37 (fun i -> i * i))
            results))
    domain_counts

(* A task that runs a batch on its own pool: the inner [run] helps drain
   the queue instead of waiting for a worker, so it cannot deadlock even
   when every domain is inside an outer task. *)
let test_pool_nested_run () =
  List.iter
    (fun d ->
      Pool.with_pool ~domains:d (fun pool ->
          let outer =
            Pool.run pool
              (Array.init (2 * d) (fun i ->
                   fun () -> Pool.run pool (Array.init 9 (fun j -> fun () -> (10 * i) + j))))
          in
          Alcotest.(check (array (array int)))
            (Printf.sprintf "inner results in order, %d domains" d)
            (Array.init (2 * d) (fun i -> Array.init 9 (fun j -> (10 * i) + j)))
            outer))
    domain_counts

let test_pool_exception_propagates () =
  List.iter
    (fun d ->
      Pool.with_pool ~domains:d (fun pool ->
          let hit = Atomic.make 0 in
          let tasks =
            Array.init 8 (fun i ->
                fun () ->
                 if i = 3 then raise Exit;
                 Atomic.incr hit)
          in
          (match Pool.run pool tasks with
          | _ -> Alcotest.fail "expected Exit"
          | exception Exit -> ());
          (* every non-failing task still ran: run settles the batch *)
          Alcotest.(check int)
            (Printf.sprintf "batch settled, %d domains" d)
            7 (Atomic.get hit)))
    domain_counts

let test_pool_shutdown_rejects () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "submit after shutdown" (Invalid_argument "Domain_pool: pool is shut down")
    (fun () -> ignore (Pool.run pool [| (fun () -> ()) |]))

(* ------------------------------------------------- split_ix determinism *)

let test_split_ix_deterministic () =
  let draws rng = Array.init 8 (fun _ -> Rng.bits64 rng) in
  let root () = Rng.create ~seed:99 in
  let a = draws (Rng.split_ix (root ()) 3) in
  (* deriving other children first, or in another order, must not change
     child 3 — and must not advance the parent *)
  let r = root () in
  let _ = Rng.split_ix r 7 in
  let _ = Rng.split_ix r 0 in
  let b = draws (Rng.split_ix r 3) in
  Alcotest.(check (array int64)) "child independent of sibling order" a b;
  let c = draws r in
  let d = draws (root ()) in
  Alcotest.(check (array int64)) "parent not advanced" d c;
  Alcotest.(check bool) "distinct children differ" true
    (draws (Rng.split_ix (root ()) 1) <> draws (Rng.split_ix (root ()) 2));
  Alcotest.check_raises "negative index" (Invalid_argument "Rng.split_ix: index must be >= 0")
    (fun () -> ignore (Rng.split_ix (root ()) (-1)))

(* --------------------------------------- engine == sequential reference *)

let policies = [ Params.Lazy; Params.Eager; Params.Every 3 ]

(* Drive a Shard_engine and one plain Fixed_window per key with identical
   per-key data, then compare every observable: lengths, herror, and full
   histogram series. *)
let engine_matches_sequential ~domains ~shards ~window ~buckets ~epsilon ~policy ~batches =
  Pool.with_pool ~domains (fun pool ->
      let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
      SE.set_refresh_policy eng policy;
      let refs =
        Array.init shards (fun _ ->
            let fw = FW.create ~window ~buckets ~epsilon in
            FW.set_refresh_policy fw policy;
            (* reference runs unmemoised: the comparison then also proves
               the engine's memoised, arena-pooled rebuilds answer exactly
               like the plain re-evaluating kernel *)
            FW.set_memoisation fw false;
            fw)
      in
      List.iter
        (fun batch ->
          Helpers.ingest_pairs eng batch;
          (* reference: same per-key subsequences, same batched entry *)
          Array.iteri
            (fun k _ ->
              let sub =
                Array.of_list
                  (List.filter_map
                     (fun (k', v) -> if k' = k then Some v else None)
                     (Array.to_list batch))
              in
              FW.push_many refs.(k) sub)
            refs)
        batches;
      (* Quiesce the read plane before comparing: [Pinned] queries answer
         from the published snapshot, and under [Lazy] / mid-cadence
         [Every k] nothing is published until a refresh completes —
         [refresh_all] is the documented publication point. *)
      SE.refresh_all eng;
      let ok = ref true in
      Array.iteri
        (fun k fw ->
          if SE.with_view eng ~key:k ~f:FW.View.length <> FW.length fw then ok := false;
          if FW.length fw > 0 then begin
            let he = SE.with_view eng ~key:k ~f:FW.View.current_error in
            let hr = FW.current_error fw in
            if not (Helpers.close he hr) then ok := false;
            let se = H.to_series (SE.with_view eng ~key:k ~f:FW.View.current_histogram) in
            let sr = H.to_series (FW.current_histogram fw) in
            if se <> sr then ok := false
          end)
        refs;
      !ok)

let prop_engine_equals_sequential =
  Helpers.qcheck_case ~count:25
    ~name:"Shard_engine == one sequential Fixed_window per key"
    QCheck2.Gen.(
      let* shards = int_range 1 9 in
      let* window = int_range 4 48 in
      let* buckets = int_range 2 4 in
      let* policy = oneofl policies in
      let* nbatches = int_range 1 6 in
      let* batches =
        list_size (return nbatches)
          (list_size (int_range 0 40) (pair (int_range 0 (shards - 1)) (int_range 0 200)))
      in
      return (shards, window, buckets, policy, batches))
    (fun (shards, window, buckets, policy, batches) ->
      let batches =
        List.map
          (fun b -> Array.of_list (List.map (fun (k, v) -> (k, Float.of_int v)) b))
          batches
      in
      (* the lock-free engine against the sequential oracle, at every
         domain count — the equivalence witness the Locked mode used to
         provide lives entirely here now *)
      List.for_all
        (fun domains ->
          engine_matches_sequential ~domains ~shards ~window ~buckets ~epsilon:0.1 ~policy
            ~batches)
        domain_counts)

let prop_push_many_equals_push =
  Helpers.qcheck_case ~count:40 ~name:"push_many == repeated push (same query results)"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:1 ~max_len:120 ~vmax:500 () in
      let* window = int_range 2 40 in
      let* buckets = int_range 2 4 in
      let* policy = oneofl policies in
      let* cut = int_range 0 (Array.length data) in
      return (data, window, buckets, policy, cut))
    (fun (data, window, buckets, policy, cut) ->
      let mk () =
        let fw = FW.create ~window ~buckets ~epsilon:0.2 in
        FW.set_refresh_policy fw policy;
        fw
      in
      let single = mk () and batched = mk () in
      Array.iter (FW.push single) data;
      (* split into two batches at an arbitrary cut to also cover batch
         boundaries that straddle refresh periods *)
      FW.push_many batched (Array.sub data 0 cut);
      FW.push_many batched (Array.sub data cut (Array.length data - cut));
      FW.length single = FW.length batched
      && Helpers.close (FW.current_error single) (FW.current_error batched)
      && H.to_series (FW.current_histogram single) = H.to_series (FW.current_histogram batched))

(* Pinned bookkeeping for a batch that straddles an [Every k] refresh
   boundary: the batch counts every point, triggers exactly one rebuild at
   the batch end, and resets the period. *)
let test_push_many_every_k_bookkeeping () =
  let fw = FW.create ~window:4 ~buckets:2 ~epsilon:0.5 in
  FW.set_refresh_policy fw (Params.Every 4);
  List.iter (FW.push fw) [ 1.0; 2.0; 3.0 ];
  Alcotest.(check int) "3 pending before batch" 3 (FW.pending_pushes fw);
  Alcotest.(check int) "no refresh yet" 0 (FW.work_counters fw).FW.refreshes;
  Alcotest.(check bool) "dirty before batch" true (FW.needs_refresh fw);
  (* batch of 3 crosses the k=4 boundary at its first point; the window
     (capacity 4) evicts on the last two points *)
  FW.push_many fw [| 4.0; 5.0; 6.0 |];
  Alcotest.(check int) "one refresh for the whole batch" 1 (FW.work_counters fw).FW.refreshes;
  Alcotest.(check int) "period reset at batch end" 0 (FW.pending_pushes fw);
  Alcotest.(check int) "slide reset by refresh" 0 (FW.slide_since_refresh fw);
  Alcotest.(check bool) "clean after batched refresh" false (FW.needs_refresh fw);
  (* short follow-up batch: counted, under period, no rebuild *)
  FW.push_many fw [| 7.0; 8.0 |];
  Alcotest.(check int) "2 pending after follow-up" 2 (FW.pending_pushes fw);
  Alcotest.(check int) "evictions tracked" 2 (FW.slide_since_refresh fw);
  Alcotest.(check bool) "dirty again" true (FW.needs_refresh fw);
  Alcotest.(check int) "still one refresh" 1 (FW.work_counters fw).FW.refreshes;
  (* empty batch is a no-op *)
  FW.push_many fw [||];
  Alcotest.(check int) "empty batch ignored" 2 (FW.pending_pushes fw);
  Alcotest.check_raises "non-finite rejected before ingest"
    (Invalid_argument "Fixed_window.push_many: non-finite value") (fun () ->
      FW.push_many fw [| 9.0; Float.nan |]);
  Alcotest.(check int) "rejected batch ingested nothing" 2 (FW.pending_pushes fw)

(* ------------------------------------------------ engine odds and ends *)

let test_engine_validation () =
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.check_raises "shards >= 1"
        (Invalid_argument "Shard_engine.create: shards must be >= 1") (fun () ->
          ignore (SE.create ~pool ~shards:0 ~window:8 ~buckets:2 ~epsilon:0.1));
      let eng = SE.create ~pool ~shards:4 ~window:8 ~buckets:2 ~epsilon:0.1 in
      Alcotest.(check int) "shard count" 4 (SE.shard_count eng);
      Alcotest.check_raises "group key out of range"
        (Invalid_argument "Shard_engine: key 4 out of range [0, 4)") (fun () ->
          SE.ingest_groups eng [| (0, [| 1.0 |]); (4, [| 1.0 |]) |]);
      Alcotest.check_raises "group value not finite"
        (Invalid_argument "Shard_engine.ingest_groups: non-finite value") (fun () ->
          SE.ingest_groups eng [| (0, [| 1.0 |]); (1, [| 2.0; Float.infinity |]) |]);
      Alcotest.check_raises "column key out of range"
        (Invalid_argument "Shard_engine: key 4 out of range [0, 4)") (fun () ->
          SE.ingest_columns eng ~keys:[| 0; 4 |] ~values:[| 1.0; 2.0 |] ~len:2);
      Alcotest.check_raises "column length"
        (Invalid_argument "Shard_engine.ingest_columns: len out of range") (fun () ->
          SE.ingest_columns eng ~keys:[| 0 |] ~values:[| 1.0; 2.0 |] ~len:2);
      Alcotest.check_raises "column value not finite"
        (Invalid_argument "Shard_engine.ingest_columns: non-finite value") (fun () ->
          SE.ingest_columns eng ~keys:[| 0; 1 |] ~values:[| 1.0; Float.nan |] ~len:2);
      (* the rejected batches must not have ingested their valid prefixes *)
      Alcotest.(check int) "nothing ingested" 0 (SE.total_points eng);
      Alcotest.(check int) "shard untouched" 0 (SE.with_view eng ~key:0 ~f:FW.View.length))

let test_engine_refresh_all_and_counters () =
  Pool.with_pool ~domains:2 (fun pool ->
      let eng = SE.create ~pool ~shards:3 ~window:16 ~buckets:3 ~epsilon:0.2 in
      let batch = Array.init 60 (fun i -> (i mod 3, Float.of_int ((i * 13) mod 97))) in
      Helpers.ingest_pairs eng batch;
      Alcotest.(check int) "points counted" 60 (SE.total_points eng);
      Alcotest.(check int) "one batch" 1 (SE.batches eng);
      (* publish the snapshots: lengths read the view, which under the
         default [Lazy] policy is only published at refresh *)
      SE.refresh_all eng;
      Array.iter
        (fun k ->
          Alcotest.(check int) (Printf.sprintf "shard %d length" k) 16
            (SE.with_view eng ~key:k ~f:FW.View.length))
        [| 0; 1; 2 |];
      SE.refresh_all eng;
      Array.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d clean" k)
            false
            (SE.fold eng ~init:false ~f:(fun acc k' fw ->
                 if k = k' then FW.needs_refresh fw else acc)))
        [| 0; 1; 2 |];
      (* cold refresh is the oracle: answers must not move *)
      let errs = Array.init 3 (fun k -> SE.with_view eng ~key:k ~f:FW.View.current_error) in
      SE.refresh_all ~cold:true eng;
      Array.iteri
        (fun k e ->
          Helpers.check_close (Printf.sprintf "cold refresh agrees, shard %d" k) e
            (SE.with_view eng ~key:k ~f:FW.View.current_error))
        errs)

(* ------------------------------- reads beside the owner, skewed batches *)

(* Reads never wait for the owner: a reader domain's [query_many] on key
   k completes while the caller is blocked inside [SE.with_key ~key:k],
   and answers as before.  Latency tracking is on, so the tracker's mutex
   is on the read path too.  The callback waits at most 5 s for the
   reader's flag: a read that needed the shard fails the test instead of
   hanging it. *)
let test_reads_beside_held_key () =
  let qs =
    [| (Qop.Key 1, Qop.Current_error); (Qop.Key 1, Qop.Herror { k = 2; x = 9 });
       (Qop.Key 1, Qop.Range_sum { lo = 1; hi = 32 }); (Qop.Global, Qop.Window_length) |]
  in
  Obs.set_latency_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_latency_enabled false) @@ fun () ->
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let eng = SE.create ~pool ~shards:4 ~window:32 ~buckets:2 ~epsilon:0.3 in
          Helpers.ingest_pairs eng (Array.init 64 (fun i -> (i mod 4, Float.of_int i)));
          SE.refresh_all eng;
          let before = SE.query_many eng qs in
          let held = Atomic.make false and answered = Atomic.make false in
          let reader =
            Domain.spawn (fun () ->
                while not (Atomic.get held) do
                  Domain.cpu_relax ()
                done;
                let a = SE.query_many eng qs in
                Atomic.set answered true;
                a)
          in
          let completed =
            SE.with_key eng ~key:1 ~f:(fun _ ->
                Atomic.set held true;
                let deadline = Sh_net.Clock.now () +. 5.0 in
                while (not (Atomic.get answered)) && Sh_net.Clock.now () < deadline do
                  Domain.cpu_relax ()
                done;
                Atomic.get answered)
          in
          if not completed then
            Alcotest.failf "%d domains: query_many on key 1 did not complete in 5 s while \
                            with_key held it" domains;
          let during = Domain.join reader in
          Array.iteri
            (fun i b ->
              if Int64.bits_of_float b <> Int64.bits_of_float during.(i) then
                Alcotest.failf "%d domains, query %d: %.17g before, %.17g beside the owner"
                  domains i b during.(i))
            before))
    domain_counts

(* One key far hotter than the rest, more than a thousand points of it
   in one batch: every point must land in order, whether the batch comes
   as columns or as groups that repeat the hot key, and each shard must
   answer bit for bit like a memo-off sequential summary fed its
   per-key subsequence. *)
let test_backpressure_no_point_dropped () =
  let shards = 3 and window = 1500 and buckets = 3 and epsilon = 0.3 in
  let value i = Float.of_int ((i * 7) mod 53) in
  (* 1,800 of 2,000 points hit shard 0 *)
  let pairs =
    Array.init 2000 (fun i -> ((if i mod 10 = 9 then 1 + (i / 10 mod 2) else 0), value i))
  in
  (* the same arrivals as runs of 100: shard 0 recurs in every run *)
  let groups =
    Array.concat
      (List.init 20 (fun r ->
           let run = Array.sub pairs (r * 100) 100 in
           List.filter_map
             (fun k ->
               let vs =
                 Array.of_list
                   (List.filter_map
                      (fun (k', v) -> if k' = k then Some v else None)
                      (Array.to_list run))
               in
               if vs = [||] then None else Some (k, vs))
             [ 0; 1; 2 ]
           |> Array.of_list))
  in
  let refs =
    Array.init shards (fun k ->
        let fw = FW.create ~window ~buckets ~epsilon in
        FW.set_memoisation fw false;
        FW.push_many fw
          (Array.of_list
             (List.filter_map
                (fun (k', v) -> if k' = k then Some v else None)
                (Array.to_list pairs)));
        fw)
  in
  Alcotest.(check bool) "hot shard takes > 1024 points in the batch" true
    (Array.fold_left (fun n (k, _) -> if k = 0 then n + 1 else n) 0 pairs > 1024);
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun domains ->
      List.iter
        (fun (entry, feed) ->
          Pool.with_pool ~domains (fun pool ->
              let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
              feed eng;
              Alcotest.(check int) "every point counted" 2000 (SE.total_points eng);
              Alcotest.(check int) "one batch" 1 (SE.batches eng);
              (* publish: the default policy is Lazy *)
              SE.refresh_all eng;
              Array.iteri
                (fun key fw ->
                  let what = Printf.sprintf "%s, %d domains, shard %d" entry domains key in
                  Alcotest.(check int) (what ^ ": length") (FW.length fw)
                    (SE.with_view eng ~key ~f:FW.View.length);
                  Alcotest.(check int64) (what ^ ": current error")
                    (bits (FW.current_error fw))
                    (bits (SE.with_view eng ~key ~f:FW.View.current_error));
                  Alcotest.(check (list int64)) (what ^ ": histogram")
                    (List.map bits (Array.to_list (H.to_series (FW.current_histogram fw))))
                    (List.map bits
                       (Array.to_list
                          (H.to_series (SE.with_view eng ~key ~f:FW.View.current_histogram))));
                  List.iter
                    (fun x ->
                      Alcotest.(check int64)
                        (Printf.sprintf "%s: herror x=%d" what x)
                        (bits (FW.herror fw ~k:buckets ~x))
                        (bits
                           (SE.with_view eng ~key ~f:(fun v -> FW.View.herror v ~k:buckets ~x))))
                    [ 1; FW.length fw / 2; FW.length fw ])
                refs))
        [ ("ingest_groups", fun eng -> SE.ingest_groups eng groups);
          ("ingest_columns", fun eng -> Helpers.ingest_pairs eng pairs) ])
    domain_counts

(* The .mli's promise for [ingest_groups]: the same engine state as
   [ingest_columns] of the flattened rows, batch for batch — answers, counters
   and publications — with keys repeating across groups and empty groups
   mixed in. *)
let prop_ingest_groups_equals_ingest =
  Helpers.qcheck_case ~count:20 ~name:"ingest_groups == ingest of flattened pairs"
    QCheck2.Gen.(
      let* shards = int_range 1 6 in
      let* window = int_range 4 40 in
      let* buckets = int_range 2 4 in
      let* policy = oneofl policies in
      let* batches =
        list_size (int_range 1 5)
          (list_size (int_range 0 8)
             (pair (int_range 0 (shards - 1)) (list_size (int_range 0 12) (int_range 0 200))))
      in
      return (shards, window, buckets, policy, batches))
    (fun (shards, window, buckets, policy, batches) ->
      let batches =
        List.map
          (fun b ->
            Array.of_list
              (List.map (fun (k, vs) -> (k, Array.of_list (List.map Float.of_int vs))) b))
          batches
      in
      let flatten gs =
        Array.concat (Array.to_list (Array.map (fun (k, vs) -> Array.map (fun v -> (k, v)) vs) gs))
      in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let mk () =
                let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon:0.2 in
                SE.set_refresh_policy eng policy;
                eng
              in
              let by_groups = mk () and by_pairs = mk () in
              let same () =
                let ok = ref true in
                let check b = if not b then ok := false in
                check (SE.total_points by_groups = SE.total_points by_pairs);
                check (SE.batches by_groups = SE.batches by_pairs);
                check (SE.snapshots_published by_groups = SE.snapshots_published by_pairs);
                for key = 0 to shards - 1 do
                  check (read_gen by_groups ~key = read_gen by_pairs ~key);
                  check
                    (SE.with_view by_groups ~key ~f:FW.View.length
                    = SE.with_view by_pairs ~key ~f:FW.View.length);
                  check
                    (Float.equal (SE.with_view by_groups ~key ~f:FW.View.current_error)
                       (SE.with_view by_pairs ~key ~f:FW.View.current_error));
                  if SE.with_view by_pairs ~key ~f:FW.View.length > 0 then
                    check
                      (H.to_series (SE.with_view by_groups ~key ~f:FW.View.current_histogram)
                      = H.to_series (SE.with_view by_pairs ~key ~f:FW.View.current_histogram));
                  check
                    (SE.with_key by_groups ~key ~f:FW.length
                    = SE.with_key by_pairs ~key ~f:FW.length)
                done;
                !ok
              in
              let ok = ref true in
              List.iter
                (fun gs ->
                  SE.ingest_groups by_groups gs;
                  Helpers.ingest_pairs by_pairs (flatten gs);
                  if not (same ()) then ok := false)
                batches;
              SE.refresh_all by_groups;
              SE.refresh_all by_pairs;
              !ok && same ()))
        domain_counts)

(* The work-stealing sweep must refresh every shard exactly once per
   refresh_all, whatever the owner/stealer interleaving — claims go
   through per-owner atomic cursors, so a double refresh or a skipped
   shard would surface here as a work-counter mismatch. *)
let test_work_stealing_sweep_exactly_once () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let shards = 8 in
          let eng = SE.create ~pool ~shards ~window:16 ~buckets:2 ~epsilon:0.3 in
          (* Zipf-ish skew: every shard gets something, shard 0 gets most *)
          let batch =
            Array.init 200 (fun i ->
                let k = if i < 40 then i mod shards else 0 in
                (k, Float.of_int ((i * 11) mod 89)))
          in
          Helpers.ingest_pairs eng batch;
          let before =
            Array.init shards (fun k ->
                (SE.with_key eng ~key:k ~f:FW.work_counters).FW.refreshes)
          in
          SE.refresh_all eng;
          for k = 0 to shards - 1 do
            Alcotest.(check int)
              (Printf.sprintf "shard %d refreshed exactly once, %d domains" k domains)
              (before.(k) + 1)
              (SE.with_key eng ~key:k ~f:FW.work_counters).FW.refreshes
          done;
          Alcotest.(check bool) "steal counter is sane" true (SE.refresh_steals eng >= 0)))
    domain_counts

(* A rebuild borrows the HERROR memo table of the domain it runs on,
   stolen sweeps included, and a live read claims the calling domain's.
   Shard 0 gets most points and noisy values, the rest constant ones, so
   its owner is still rebuilding it while the others run out of work and
   steal (the scheduler decides how often, so that is not asserted).
   After every sweep each shard must answer bit for bit like a memo-off
   sequential summary, live and through its published view. *)
let test_stolen_sweeps_match_memo_off () =
  let shards = 8 and window = 48 and buckets = 4 and epsilon = 0.2 in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
          SE.set_refresh_policy eng Params.Lazy;
          let refs =
            Array.init shards (fun _ ->
                let fw = FW.create ~window ~buckets ~epsilon in
                FW.set_refresh_policy fw Params.Lazy;
                FW.set_memoisation fw false;
                fw)
          in
          for round = 0 to 5 do
            let batch =
              Array.init 240 (fun i ->
                  if i < 160 then (0, Float.of_int (((round * 240) + i) * 53 mod 211))
                  else (i mod shards, Float.of_int (i mod shards)))
            in
            Helpers.ingest_pairs eng batch;
            Array.iter (fun (k, v) -> FW.push refs.(k) v) batch;
            SE.refresh_all eng;
            Array.iteri
              (fun key fw ->
                let ok = ref true in
                let same a b =
                  if Int64.bits_of_float a <> Int64.bits_of_float b then ok := false
                in
                let live f = SE.with_key eng ~key ~f in
                let expect = FW.current_error fw in
                same expect (live FW.current_error);
                same expect (SE.with_view eng ~key ~f:FW.View.current_error);
                for k = 1 to buckets do
                  for x = 0 to FW.length fw do
                    let expect = FW.herror fw ~k ~x in
                    same expect (live (fun s -> FW.herror s ~k ~x));
                    same expect (SE.with_view eng ~key ~f:(fun v -> FW.View.herror v ~k ~x))
                  done
                done;
                let series h = List.map Int64.bits_of_float (Array.to_list (H.to_series h)) in
                let expect = series (FW.current_histogram fw) in
                if series (live FW.current_histogram) <> expect then ok := false;
                if series (SE.with_view eng ~key ~f:FW.View.current_histogram) <> expect then
                  ok := false;
                Alcotest.(check bool)
                  (Printf.sprintf "%d domains, round %d, shard %d: bit-identical" domains round key)
                  true !ok)
              refs
          done))
    domain_counts

(* ------------------------------------------------ wait-free read plane *)

(* The read plane's central claim: a published snapshot answers
   current_error / current_histogram / herror bit-identically (plain
   float / structural equality, no tolerance) to the quiesced live
   summary it was captured from — across every domain count, all
   refresh policies, B = 1..5 and every level k = 1..B. *)
let prop_snapshot_equals_quiesced_live =
  Helpers.qcheck_case ~count:15
    ~name:"published view == quiesced live shard (bit-identical)"
    QCheck2.Gen.(
      let* shards = int_range 1 5 in
      let* window = int_range 4 40 in
      let* buckets = int_range 1 5 in
      let* policy = oneofl policies in
      let* nbatches = int_range 1 4 in
      let* batches =
        list_size (return nbatches)
          (list_size (int_range 0 40) (pair (int_range 0 (shards - 1)) (int_range 0 200)))
      in
      return (shards, window, buckets, policy, batches))
    (fun (shards, window, buckets, policy, batches) ->
      let batches =
        List.map
          (fun b -> Array.of_list (List.map (fun (k, v) -> (k, Float.of_int v)) b))
          batches
      in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon:0.15 in
              SE.set_refresh_policy eng policy;
              List.iter (Helpers.ingest_pairs eng) batches;
              SE.refresh_all eng;
              let ok = ref true in
              let check b = if not b then ok := false in
              for key = 0 to shards - 1 do
                let v = SE.view eng ~key in
                (* quiesced: published == live, generation and watermark *)
                check (SE.generation_lag eng ~key = 0);
                check (SE.publication_lag eng ~key = 0);
                let n = SE.with_key eng ~key ~f:FW.length in
                check (FW.View.length v = n);
                check (FW.View.buckets v = buckets);
                let live_err = SE.with_key eng ~key ~f:FW.current_error in
                check (Float.equal (FW.View.current_error v) live_err);
                check (Float.equal (SE.with_view eng ~key ~f:FW.View.current_error) live_err);
                if n > 0 then begin
                  let sv = H.to_series (FW.View.current_histogram v) in
                  check (sv = H.to_series (SE.with_key eng ~key ~f:FW.current_histogram));
                  check (sv = H.to_series (SE.with_view eng ~key ~f:FW.View.current_histogram));
                  List.iter
                    (fun k ->
                      List.iter
                        (fun x ->
                          let live =
                            SE.with_key eng ~key ~f:(fun fw -> FW.herror fw ~k ~x)
                          in
                          check (Float.equal (FW.View.herror v ~k ~x) live);
                          check
                            (Float.equal
                               (SE.with_view eng ~key ~f:(fun v -> FW.View.herror v ~k ~x))
                               live))
                        [ 0; 1; (n + 1) / 2; n ])
                    (List.init buckets (fun i -> i + 1))
                end
              done;
              (* the Global scope folds the same published views the per-key
                 reads above just checked: same association, from 0.0 *)
              let expect = ref 0.0 in
              for key = 0 to shards - 1 do
                expect := !expect +. Float.of_int (SE.with_view eng ~key ~f:FW.View.length)
              done;
              check
                (Float.equal
                   (SE.query_many eng [| (Qop.Global, Qop.Window_length) |]).(0)
                   !expect);
              !ok))
        domain_counts)

(* Freshness: once any engine call has returned, the published generation
   never lags the live one — every refresh path (drain-triggered Eager /
   Every-k rebuilds, sweeps) republishes before handing the shard back.
   The staleness contract of the .mli, as a property. *)
let prop_view_never_stale =
  Helpers.qcheck_case ~count:15
    ~name:"published generation never lags a completed engine call"
    QCheck2.Gen.(
      let* shards = int_range 1 4 in
      let* window = int_range 4 24 in
      let* policy = oneofl policies in
      let* batches =
        list_size (int_range 1 5)
          (list_size (int_range 0 30) (pair (int_range 0 (shards - 1)) (int_range 0 99)))
      in
      return (shards, window, policy, batches))
    (fun (shards, window, policy, batches) ->
      let batches =
        List.map
          (fun b -> Array.of_list (List.map (fun (k, v) -> (k, Float.of_int v)) b))
          batches
      in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let eng = SE.create ~pool ~shards ~window ~buckets:3 ~epsilon:0.2 in
              SE.set_refresh_policy eng policy;
              let fresh () =
                let ok = ref true in
                for key = 0 to shards - 1 do
                  if SE.generation_lag eng ~key <> 0 then ok := false
                done;
                !ok
              in
              let ok = ref (fresh ()) in
              List.iter
                (fun b ->
                  Helpers.ingest_pairs eng b;
                  if not (fresh ()) then ok := false)
                batches;
              for key = 0 to shards - 1 do
                ignore (SE.with_view eng ~key ~f:FW.View.current_error);
                ignore (SE.with_view eng ~key ~f:FW.View.length)
              done;
              if not (fresh ()) then ok := false;
              SE.refresh_all eng;
              if not (fresh ()) then ok := false;
              (* after a full sweep the snapshot also carries every point *)
              for key = 0 to shards - 1 do
                if SE.publication_lag eng ~key <> 0 then ok := false
              done;
              !ok))
        domain_counts)

(* Serving-layer clamping of [query_many], against the strict view
   readers; also pins down the query counters. *)
let test_query_many_clamping () =
  Pool.with_pool ~domains:2 (fun pool ->
      let eng = SE.create ~pool ~shards:2 ~window:8 ~buckets:2 ~epsilon:0.3 in
      Helpers.ingest_pairs eng (Array.init 16 (fun i -> (i mod 2, Float.of_int (i + 1))));
      SE.refresh_all eng;
      Alcotest.(check int) "window filled" 8 (SE.with_view eng ~key:0 ~f:FW.View.length);
      let key0 = Qop.Key 0 in
      let qs =
        [|
          (key0, Qop.Window_length);
          (key0, Qop.Current_error);
          (key0, Qop.Herror { k = 99; x = 999 });      (* clamps to (buckets, n) *)
          (key0, Qop.Herror { k = 0; x = -5 });        (* clamps to (1, 0) -> 0 *)
          (key0, Qop.Range_sum { lo = -3; hi = 999 }); (* intersected with [1, n] *)
          (key0, Qop.Range_sum { lo = 6; hi = 2 });    (* empty -> 0 *)
          (key0, Qop.Point_estimate { index = 0 });    (* out of range -> 0 *)
          (key0, Qop.Point_estimate { index = 1 });
          (Qop.Key 1, Qop.Window_length);
          (Qop.Global, Qop.Window_length);             (* all-keys fold *)
        |]
      in
      let out = SE.query_many eng qs in
      let h = SE.with_view eng ~key:0 ~f:FW.View.current_histogram in
      Alcotest.(check (float 0.0)) "window length" 8.0 out.(0);
      Alcotest.(check (float 0.0)) "current error == the view's"
        (SE.with_view eng ~key:0 ~f:FW.View.current_error) out.(1);
      Alcotest.(check (float 0.0)) "clamped herror == strict herror at the bounds"
        (SE.with_view eng ~key:0 ~f:(fun v -> FW.View.herror v ~k:2 ~x:8)) out.(2);
      Alcotest.(check (float 0.0)) "herror clamped to x=0 is 0" 0.0 out.(3);
      Alcotest.(check (float 1e-9)) "full-range sum estimate"
        (H.range_sum_estimate h ~lo:1 ~hi:8) out.(4);
      Alcotest.(check (float 0.0)) "inverted range" 0.0 out.(5);
      Alcotest.(check (float 0.0)) "point out of range" 0.0 out.(6);
      Alcotest.(check (float 1e-9)) "point estimate" (H.point_estimate h 1) out.(7);
      Alcotest.(check (float 0.0)) "second shard length" 8.0 out.(8);
      Alcotest.(check (float 0.0)) "global length sums both shards" 16.0 out.(9);
      (* a batched call counts each element once; the three [with_view]
         reads above (histogram, error, herror) count nothing *)
      Alcotest.(check int) "query counter" 10 (SE.queries eng))

(* ------------------------------------------------ recycled views *)

(* Everything a reader can observe of a view, as bits: generation,
   watermark, current error, histogram (a copy, and every point estimate
   read in place) and every HERROR[x, k]. *)
let view_bits v =
  let bits = Int64.bits_of_float in
  let n = FW.View.length v and b = FW.View.buckets v in
  ( (FW.View.generation v, FW.View.points_seen v, n),
    bits (FW.View.current_error v),
    (if n = 0 then None else Some (Array.map bits (H.to_series (FW.View.current_histogram v)))),
    List.init n (fun i -> bits (FW.View.point_estimate v (i + 1))),
    List.init b (fun i -> List.init (n + 1) (fun x -> bits (FW.View.herror v ~k:(i + 1) ~x))) )

(* Publication refills retired views, so a view a reader still holds must
   never be refilled.  One domain, one owner: every publication of any
   key goes through the owner's one spare, so without the pin check the
   second publication of the held key would refill the held view.  Held
   through [with_view], key 1 is republished twice; taken by [view]
   (pinned for good), three times. *)
let test_held_views_stay_put () =
  Pool.with_pool ~domains:1 (fun pool ->
      let shards = 3 and window = 32 in
      let eng = SE.create ~pool ~shards ~window ~buckets:3 ~epsilon:0.2 in
      SE.set_refresh_policy eng Params.Eager;
      let next = ref 0 in
      let batch key len =
        Array.init len (fun _ ->
            incr next;
            (key, Float.of_int ((!next * 37) mod 101)))
      in
      (* fill every window, so recycled views carry full-length state *)
      for key = 0 to shards - 1 do
        Helpers.ingest_pairs eng (batch key window)
      done;
      (* republish [key] [times] times, with other keys published between *)
      let republish key times =
        let g = read_gen eng ~key in
        for _ = 1 to times do
          Helpers.ingest_pairs eng (batch ((key + 1) mod shards) 5);
          Helpers.ingest_pairs eng (batch key 7);
          Helpers.ingest_pairs eng (batch ((key + 2) mod shards) 3)
        done;
        Alcotest.(check int) "republished" (g + times) (read_gen eng ~key)
      in
      SE.with_view eng ~key:1 ~f:(fun v ->
          let before = view_bits v in
          republish 1 2;
          Alcotest.(check bool) "a view held through with_view is unchanged" true
            (before = view_bits v));
      let v = SE.view eng ~key:1 in
      let before = view_bits v in
      republish 1 3;
      Alcotest.(check bool) "a view taken by view is unchanged" true (before = view_bits v);
      (* and the engine still answers from its latest publication *)
      let live = SE.with_key eng ~key:1 ~f:FW.current_error in
      Alcotest.(check int64) "latest answers" (Int64.bits_of_float live)
        (Int64.bits_of_float (SE.with_view eng ~key:1 ~f:FW.View.current_error)))

(* Publication recomputes a retired view's histogram into the view's own
   storage.  So [FW.View.current_histogram] read under [SE.with_view]
   must hand out a copy: one taken
   before any number of later republications of its key stays
   bit-identical.  And a reader holding a view through [with_view] reads
   [Range_sum] and [Point_estimate] in place: on a refilled view they
   must answer what a fresh [FW.view] of the shard answers at the same
   generation, over every range and index, clamped ones included.  One
   domain, one owner, [Eager]: every publication refills the owner's one
   spare, so the views read here are refilled ones. *)
let test_refilled_view_reads () =
  Pool.with_pool ~domains:1 (fun pool ->
      let shards = 3 and window = 24 in
      let eng = SE.create ~pool ~shards ~window ~buckets:4 ~epsilon:0.2 in
      SE.set_refresh_policy eng Params.Eager;
      let next = ref 0 in
      let batch key len =
        Array.init len (fun _ ->
            incr next;
            (key, Float.of_int ((!next * 53) mod 97) -. 40.0))
      in
      let ops n =
        Array.concat
          [ Array.init (n + 4) (fun i -> Qop.Point_estimate { index = i - 1 });
            Array.concat
              (List.init (n + 3) (fun lo ->
                   Array.init (n + 4 - lo) (fun d -> Qop.Range_sum { lo = lo - 1; hi = lo - 2 + d })))
          ]
      in
      let answers v = Array.map (fun q -> Int64.bits_of_float (Qop.eval_view v q)) (ops window) in
      let series h = Array.map Int64.bits_of_float (H.to_series h) in
      let seen = ref [] and refilled = ref 0 and held = ref [] in
      for round = 0 to 59 do
        let key = round mod shards in
        Helpers.ingest_pairs eng (batch key (1 + (round mod 7)));
        let fresh = SE.with_key eng ~key ~f:FW.view in
        SE.with_view eng ~key ~f:(fun v ->
            Alcotest.(check int) "same generation" (FW.View.generation fresh) (FW.View.generation v);
            if List.memq v !seen then incr refilled else seen := v :: !seen;
            if answers v <> answers fresh then
              Alcotest.failf "round %d key %d: in-place estimates differ from a fresh view's"
                round key);
        let h = SE.with_view eng ~key:0 ~f:FW.View.current_histogram in
        held := (h, series h) :: !held;
        List.iteri
          (fun age (h, before) ->
            if before <> series h then
              Alcotest.failf "round %d: the histogram copy taken %d rounds ago changed" round age)
          !held
      done;
      Alcotest.(check bool) "reads of refilled views" true (!refilled > 40))

(* A reader domain loops [query_many] while the producer ingests.  Each
   answer is kept with the generations it was read between: the published
   generation before and after the call.  Publications of one key are
   ordered, so the view read had a generation in that range, and the
   answer must equal the answer of a sequential Fixed_window fed the same
   per-key subsequence at one of those generations.  Each element of a
   batch pins its view on its own, so each is checked on its own.  The
   reader also reads through [with_view], which stamps a whole set of
   answers with the generation of the one view they came from.  A view
   refilled while a reader still reads it would give answers that match
   no generation. *)
let test_concurrent_reads_match_oracle () =
  let shards = 2 and window = 128 and buckets = 4 and epsilon = 0.2 in
  let policy = Params.Every 4 and nbatches = 600 in
  let batches =
    Array.init nbatches (fun b ->
        Array.init 10 (fun i ->
            ((b + (i * i)) mod shards, Float.of_int ((((b * 10) + i) * 53) mod 97))))
  in
  let ops key =
    [| (Qop.Key key, Qop.Current_error);
       (Qop.Key key, Qop.Window_length);
       (Qop.Key key, Qop.Herror { k = 2; x = window / 2 });
       (Qop.Key key, Qop.Range_sum { lo = 3; hi = window - 4 });
       (Qop.Key key, Qop.Point_estimate { index = 5 }) |]
  in
  let bits = Array.map Int64.bits_of_float in
  (* oracle: answers per (key, generation), from a sequential summary
     driven like a shard, one push_many per batch *)
  let oracle = Hashtbl.create 256 in
  for key = 0 to shards - 1 do
    let fw = FW.create ~window ~buckets ~epsilon in
    FW.set_refresh_policy fw policy;
    let record () =
      let v = FW.view fw in
      Hashtbl.replace oracle (key, FW.generation fw)
        (bits (Array.map (fun (_, q) -> Qop.eval_view v q) (ops key)))
    in
    record ();
    Array.iter
      (fun b ->
        let g = FW.generation fw in
        FW.push_many fw
          (Array.of_list (List.filter_map (fun (k, v) -> if k = key then Some v else None)
                            (Array.to_list b)));
        if FW.generation fw <> g then record ())
      batches
  done;
  let matches key g a = Hashtbl.find_opt oracle (key, g) = Some (bits a) in
  let element_matches key g i a =
    match Hashtbl.find_opt oracle (key, g) with
    | Some e -> e.(i) = Int64.bits_of_float a
    | None -> false
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
          SE.set_refresh_policy eng policy;
          let started = Atomic.make false and stop = Atomic.make false in
          let reader =
            Domain.spawn (fun () ->
                let kept = ref [] and stamped = ref [] in
                let rec loop () =
                  let last = Atomic.get stop in
                  for key = 0 to shards - 1 do
                    let g0 = read_gen eng ~key in
                    let a = SE.query_many eng (ops key) in
                    let g1 = read_gen eng ~key in
                    kept := (key, g0, g1, a) :: !kept;
                    stamped :=
                      SE.with_view eng ~key ~f:(fun v ->
                          (key, FW.View.generation v,
                           Array.map (fun (_, q) -> Qop.eval_view v q) (ops key)))
                      :: !stamped
                  done;
                  Atomic.set started true;
                  if not last then loop ()
                in
                loop ();
                (!kept, !stamped))
          in
          while not (Atomic.get started) do
            Domain.cpu_relax ()
          done;
          Array.iter (Helpers.ingest_pairs eng) batches;
          Atomic.set stop true;
          let kept, stamped = Domain.join reader in
          List.iter
            (fun (key, g0, g1, a) ->
              Array.iteri
                (fun i a ->
                  let gens = List.init (g1 - g0 + 1) (( + ) g0) in
                  if not (List.exists (fun g -> element_matches key g i a) gens) then
                    Alcotest.failf "%d domains: key %d, element %d, read between generations \
                                    %d and %d matches the sequential oracle at none"
                      domains key i g0 g1)
                a)
            kept;
          List.iter
            (fun (key, g, a) ->
              if not (matches key g a) then
                Alcotest.failf "%d domains: key %d read through with_view at generation %d \
                                differs from the sequential oracle" domains key g)
            stamped;
          (* the reader's last round ran after the final batch *)
          Alcotest.(check bool)
            (Printf.sprintf "%d domains: reads reached the final generations" domains)
            true
            (List.for_all
               (fun key -> List.exists (fun (k, g, _) -> k = key && g = read_gen eng ~key) stamped)
               (List.init shards Fun.id))))
    [ 1; 2 ]

(* ------------------------------------------ state is not telemetry *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Structures own their counts: [Obs.reset] zeroes the process-wide
   families but leaves every engine total, every summary's work counters
   and every checkpoint byte as it was. *)
let test_obs_reset_leaves_state () =
  let path = Filename.temp_file "shist_par" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  Pool.with_pool ~domains:2 (fun pool ->
      let eng = SE.create ~pool ~shards:4 ~window:32 ~buckets:3 ~epsilon:0.2 in
      SE.set_refresh_policy eng (Params.Every 8);
      for b = 0 to 4 do
        Helpers.ingest_pairs eng
          (Array.init 20 (fun i -> ((i + b) mod 4, Float.of_int ((((b * 20) + i) * 37) mod 101))))
      done;
      SE.refresh_all eng;
      ignore (SE.query_many eng [| (Qop.Global, Qop.Current_error) |]);
      let counters () = SE.fold eng ~init:[] ~f:(fun acc _ fw -> FW.work_counters fw :: acc) in
      let state () =
        SE.checkpoint eng ~file:path;
        ( (SE.total_points eng, SE.batches eng, SE.queries eng, SE.snapshots_published eng),
          counters (),
          read_file path )
      in
      let ((points, _, _, _) as totals), work, bytes = state () in
      Alcotest.(check int) "points ingested" 100 points;
      Obs.reset ();
      Alcotest.(check int) "the family was zeroed" 0 (Helpers.exposed_count "engine_points_total");
      let totals', work', bytes' = state () in
      Alcotest.(check bool) "engine totals unchanged" true (totals = totals');
      Alcotest.(check bool) "work_counters unchanged" true (work = work');
      Alcotest.(check bool) "checkpoint bytes unchanged" true (String.equal bytes bytes'))

(* The exposition holds one entry per family, so once every operation
   that exposes a family has run, creating more structures (of every
   kind that counts work) adds nothing to it. *)
let test_series_count_independent_of_structures () =
  Pool.with_pool ~domains:1 (fun pool ->
      let first = SE.create ~pool ~shards:2 ~window:8 ~buckets:2 ~epsilon:0.5 in
      Helpers.ingest_pairs first [| (0, 1.0); (1, 2.0) |];
      SE.refresh_all first;
      let families = Helpers.exposed_families () in
      for i = 1 to 1000 do
        let fw = FW.create ~window:8 ~buckets:2 ~epsilon:0.5 in
        FW.push_many fw [| Float.of_int i; 2.0; 3.0 |];
        FW.refresh fw;
        let ew = Stream_histogram.Exact_window.create ~window:8 ~buckets:2 in
        Stream_histogram.Exact_window.push ew (Float.of_int i)
      done;
      let second = SE.create ~pool ~shards:3 ~window:8 ~buckets:2 ~epsilon:0.5 in
      Helpers.ingest_pairs second [| (2, 1.0) |];
      SE.refresh_all second;
      Alcotest.(check (list string)) "exposed families unchanged" families
        (Helpers.exposed_families ()))

(* ------------------------------------------- telemetry under parallelism *)

let test_counter_no_lost_increments () =
  let c = M.counter "par.stress.counter" in
  let before = M.value c in
  let per_domain = 50_000 and nd = 4 in
  let ds =
    List.init nd (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              M.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no increments lost across 4 domains" (before + (nd * per_domain))
    (M.value c)

(* Structures built on several domains at once expose the same handle:
   the table keeps it once, and its one series carries every increment. *)
let test_registry_expose_race () =
  let c = M.counter "par.stress.race" in
  let per_domain = 1_000 and nd = 4 in
  let ds =
    List.init nd (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.expose [ Obs.Counter c ];
              M.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check (list string)) "one family" [ "par_stress_race_total" ]
    (List.filter (String.equal "par_stress_race_total") (Helpers.exposed_families ()));
  Alcotest.(check int) "one series, all increments" (nd * per_domain)
    (Helpers.exposed_count "par_stress_race_total")

let () =
  Alcotest.run "sh_par"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "validation" `Quick test_pool_validation;
          Alcotest.test_case "run keeps order" `Quick test_pool_run_results_in_order;
          Alcotest.test_case "nested run keeps order" `Quick test_pool_nested_run;
          Alcotest.test_case "exceptions propagate" `Quick test_pool_exception_propagates;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown_rejects;
        ] );
      ("rng", [ Alcotest.test_case "split_ix deterministic" `Quick test_split_ix_deterministic ]);
      ( "shard_engine",
        [
          prop_engine_equals_sequential;
          prop_push_many_equals_push;
          Alcotest.test_case "push_many Every-k bookkeeping" `Quick
            test_push_many_every_k_bookkeeping;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "refresh_all + counters" `Quick test_engine_refresh_all_and_counters;
          Alcotest.test_case "reads complete while with_key holds the key" `Quick
            test_reads_beside_held_key;
          Alcotest.test_case "backpressure drops nothing" `Quick
            test_backpressure_no_point_dropped;
          prop_ingest_groups_equals_ingest;
          Alcotest.test_case "work-stealing sweep exactly once" `Quick
            test_work_stealing_sweep_exactly_once;
          Alcotest.test_case "stolen sweeps == memo-off oracle" `Quick
            test_stolen_sweeps_match_memo_off;
        ] );
      ( "read_plane",
        [
          prop_snapshot_equals_quiesced_live;
          prop_view_never_stale;
          Alcotest.test_case "query_many clamping + counters" `Quick test_query_many_clamping;
          Alcotest.test_case "held views stay put across publications" `Quick
            test_held_views_stay_put;
          Alcotest.test_case "refilled views: pinned reads, copied histograms" `Quick
            test_refilled_view_reads;
          Alcotest.test_case "concurrent reads == sequential oracle" `Quick
            test_concurrent_reads_match_oracle;
        ] );
      ( "state_vs_metrics",
        [
          Alcotest.test_case "Obs.reset leaves engine state" `Quick test_obs_reset_leaves_state;
          Alcotest.test_case "series count independent of structures" `Quick
            test_series_count_independent_of_structures;
        ] );
      ( "obs_domain_safety",
        [
          Alcotest.test_case "counter stress" `Quick test_counter_no_lost_increments;
          Alcotest.test_case "registry race" `Quick test_registry_expose_race;
        ] );
    ]
