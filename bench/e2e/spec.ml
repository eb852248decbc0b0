(* The four workloads.  Each stresses a different layer of the serving
   path; README.md records why each exists and what it was sized to.
   Every workload carries both ingest and query traffic, so every
   end-to-end metric is measured under that workload's own load. *)

type loop =
  | Closed of { depth : int; query_every : int }
      (** Both generator connections keep [depth] requests outstanding,
          each on its own half of the keys; connection 1 sends a query
          batch in place of every [query_every]-th ingest request. *)
  | Open of { points_per_s : float; batches_per_s : float }
      (** Connection 0 sends ingest on a fixed schedule, connection 1 sends
          query batches on another. *)

type t = {
  name : string;
  why : string;
  leaves : int;  (** 1 = one [shist serve]; more = leaves behind [shist aggregate] *)
  shards : int;  (** per leaf *)
  window : int;
  buckets : int;
  epsilon : float;
  every : int;  (** refresh cadence, [--refresh every:K] *)
  zipf : bool;  (** Zipf(1.1) keys, else uniform *)
  batch : int;  (** points per ingest request *)
  global_every : int;  (** every [global_every]-th query batch is [Global] *)
  loop : loop;
}

let all =
  [
    {
      name = "refresh-bound";
      why = "CreateList refresh and view publication dominate server time";
      leaves = 1;
      shards = 16;
      window = 1024;
      buckets = 8;
      epsilon = 0.2;
      every = 16;
      zipf = false;
      batch = 32;
      global_every = 2;
      loop = Closed { depth = 1; query_every = 4 };
    };
    {
      name = "wire-bound";
      why = "per-request cost dominates: codec, CRC, select loop, syscalls, ring route";
      leaves = 1;
      shards = 64;
      window = 512;
      buckets = 8;
      epsilon = 0.5;
      every = 4096;
      zipf = false;
      batch = 16;
      global_every = 2;
      loop = Closed { depth = 8; query_every = 64 };
    };
    {
      name = "read-mix";
      why = "queries wait behind ingest rounds while hot keys republish views";
      leaves = 1;
      shards = 16;
      window = 1024;
      buckets = 8;
      epsilon = 0.5;
      every = 64;
      zipf = true;
      batch = 64;
      global_every = 12;
      loop = Open { points_per_s = 4000.0; batches_per_s = 200.0 };
    };
    {
      name = "agg-global";
      why = "the only workload through the aggregator; Global pulls and decodes leaf snapshots";
      leaves = 2;
      shards = 8;
      window = 512;
      buckets = 8;
      epsilon = 0.5;
      every = 64;
      zipf = true;
      batch = 64;
      global_every = 12;
      loop = Open { points_per_s = 2000.0; batches_per_s = 48.0 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let keys w = w.leaves * w.shards

(* Smoke variant: the same shape on quarter-size windows and cadences. *)
let smoke w = { w with window = w.window / 4; every = max 1 (w.every / 4) }

let loop_to_string w =
  let queries = Printf.sprintf "1 in %d query batches Global" w.global_every in
  match w.loop with
  | Closed { depth; query_every } ->
    Printf.sprintf
      "closed loop, 2 connections, depth %d, 1 in %d requests on one a query batch, %s" depth
      query_every queries
  | Open { points_per_s; batches_per_s } ->
    Printf.sprintf "open loop, ingest %.0f points/s, query batches %.0f/s, %s" points_per_s
      batches_per_s queries

let to_json w =
  let open Json in
  Obj
    [
      ("name", Str w.name);
      ("leaves", Num (Float.of_int w.leaves));
      ("shards_per_leaf", Num (Float.of_int w.shards));
      ("window", Num (Float.of_int w.window));
      ("buckets", Num (Float.of_int w.buckets));
      ("epsilon", Num w.epsilon);
      ("refresh", Str (Printf.sprintf "every:%d" w.every));
      ("keys", Str (if w.zipf then "zipf(1.1)" else "uniform"));
      ("batch", Num (Float.of_int w.batch));
      ("loop", Str (loop_to_string w));
    ]
