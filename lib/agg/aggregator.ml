module Codec = Sh_persist.Codec
module Q = Stream_histogram.Query_op
module Wire = Sh_net.Wire
module Client = Sh_net.Client
module Server = Sh_net.Server
module Addr = Sh_net.Addr
module Obs = Sh_obs.Obs
module M = Sh_obs.Metric

exception Merge_incompatible of string

let c_fanouts = M.counter "agg.fanouts"
let c_leaf_failures = M.counter "agg.leaf_failures"
let c_partial = M.counter "agg.partial_replies"

let merge_incompatiblef fmt =
  Printf.ksprintf (fun s -> raise (Merge_incompatible s)) fmt

(* One leaf `shist serve` process.  [shards] and [offset] are fixed at
   creation: the leaf owns global keys [offset .. offset + shards - 1].
   [client] is None while the leaf is down; every touch goes through
   [with_leaf], which reconnects on demand (zero retries, bounded by the
   aggregator timeout), re-probes the leaf's geometry, and marks the leaf
   down again on any transport or protocol failure — a dead leaf costs one
   fast failed connect per request, never a hang. *)
type leaf = {
  addr : Addr.t;
  shards : int;
  offset : int;
  mutable client : Client.t option;
}

type t = {
  leaves : leaf array;
  total_shards : int;
  window : int;
  buckets : int;
  timeout : float;
}

let total_shards t = t.total_shards
let leaf_count t = Array.length t.leaves
let window t = t.window
let buckets t = t.buckets

let create ?(timeout = 5.0) addrs =
  if addrs = [] then invalid_arg "Aggregator.create: no leaves";
  Obs.(expose [ Counter c_fanouts; Counter c_leaf_failures; Counter c_partial ]);
  let probed =
    List.map
      (fun addr ->
        let c = Client.connect ~timeout addr in
        let s = Client.stats c in
        (addr, c, s))
      addrs
  in
  (match probed with
  | [] -> assert false
  | (addr0, _, s0) :: rest ->
    List.iter
      (fun (addr, _, s) ->
        if s.Wire.window <> s0.Wire.window || s.Wire.buckets <> s0.Wire.buckets
        then
          merge_incompatiblef
            "aggregate: leaf %s geometry (window %d, buckets %d) differs \
             from leaf %s (window %d, buckets %d)"
            (Addr.to_string addr) s.Wire.window s.Wire.buckets
            (Addr.to_string addr0) s0.Wire.window s0.Wire.buckets)
      rest);
  let offset = ref 0 in
  let leaves =
    Array.of_list
      (List.map
         (fun (addr, c, s) ->
           let l = { addr; shards = s.Wire.shards; offset = !offset; client = Some c } in
           offset := !offset + s.Wire.shards;
           l)
         probed)
  in
  let _, _, s0 = List.hd probed in
  {
    leaves;
    total_shards = !offset;
    window = s0.Wire.window;
    buckets = s0.Wire.buckets;
    timeout;
  }

let mark_down l =
  (match l.client with Some c -> Client.close c | None -> ());
  l.client <- None;
  M.incr c_leaf_failures

let close t =
  Array.iter
    (fun l ->
      match l.client with
      | Some c ->
        Client.close c;
        l.client <- None
      | None -> ())
    t.leaves

(* Reconnect a down leaf and re-probe its layout.  A leaf restarted with
   a different shard count, window or bucket budget would shift the key
   space or add foreign geometry into [Global] answers, so it stays down
   until it matches the layout fixed at [create]. *)
let reconnect t l =
  let c = Client.connect ~timeout:t.timeout ~retries:0 l.addr in
  match Client.stats c with
  | s
    when s.Wire.shards = l.shards && s.Wire.window = t.window
         && s.Wire.buckets = t.buckets ->
    c
  | s ->
    Client.close c;
    merge_incompatiblef
      "aggregate: leaf %s came back with (shards %d, window %d, buckets %d), \
       expected (%d, %d, %d)"
      (Addr.to_string l.addr) s.Wire.shards s.Wire.window s.Wire.buckets l.shards
      t.window t.buckets
  | exception e ->
    Client.close c;
    raise e

let leaf_failure = function
  | Client.Net_error _ | Codec.Corrupt _ | Codec.Version_mismatch _
  | Merge_incompatible _ | Unix.Unix_error _ ->
    true
  | _ -> false

(* Run [f] against a leaf's client, reconnecting a down leaf on demand
   (one attempt, fail-fast).  Any transport error, protocol garbage, or
   layout change marks the leaf down and yields [None] — the caller
   degrades, never crashes, never hangs beyond the client timeout. *)
let with_leaf t l f =
  match
    let c =
      match l.client with
      | Some c -> c
      | None ->
        let c = reconnect t l in
        l.client <- Some c;
        c
    in
    f c
  with
  | v -> Some v
  | exception e when leaf_failure e ->
    mark_down l;
    None

let check_key t k =
  if k < 0 || k >= t.total_shards then
    invalid_arg
      (Printf.sprintf "Aggregator: key %d out of range [0, %d)" k t.total_shards)

(* The leaf owning global key [k] (offsets are cumulative and ascending;
   leaf counts are tiny, so a linear scan beats bookkeeping). *)
let route t k =
  let li = ref 0 in
  while k >= t.leaves.(!li).offset + t.leaves.(!li).shards do
    incr li
  done;
  !li

(* A leaf's part in one query batch.  [Idle]: the batch asked nothing of
   it.  [Answered]: [out.(globals_at + g * shards + k)] is local key [k]'s
   answer to the batch's [g]-th [Global] op. *)
type leaf_reply =
  | Idle
  | Missing
  | Answered of { globals_at : int; out : float array }

(* Fan a scoped query batch out as one [Query] per leaf.  [Key] elements
   are routed to their owning leaf (rebased to the leaf's local key
   space); each [Global] op is expanded into [Key 0 .. shards - 1] on
   every leaf and folded here from [0.0], leaves in ascending offset
   order and each leaf's keys ascending — the exact association
   {!Query_op.scope} fixes and the single-process engine uses, so
   complete answers are bit-identical to a one-process oracle over the
   same per-key streams, and every answer comes from a published view.
   Elements whose leaf is down answer 0.0 (a [Global] drops that leaf's
   terms) and the leaf counts once toward [leaves_missing]. *)
let query t qs =
  M.incr c_fanouts;
  let answers = Array.make (Array.length qs) 0.0 in
  let keyed = Array.make (Array.length t.leaves) [] in
  let globals = ref [] in
  Array.iteri
    (fun i (scope, q) ->
      match scope with
      | Q.Key k ->
        check_key t k;
        let li = route t k in
        keyed.(li) <- (i, (Q.Key (k - t.leaves.(li).offset), q)) :: keyed.(li)
      | Q.Global -> globals := (i, q) :: !globals)
    qs;
  let globals = Array.of_list (List.rev !globals) in
  let replies =
    Array.mapi
      (fun li l ->
        let keyed = Array.of_list (List.rev keyed.(li)) in
        let expanded =
          Array.init (Array.length globals * l.shards) (fun j ->
              (Q.Key (j mod l.shards), snd globals.(j / l.shards)))
        in
        let sub = Array.append (Array.map snd keyed) expanded in
        if Array.length sub = 0 then Idle
        else
          match with_leaf t l (fun c -> Client.query c sub) with
          | Some out when Array.length out = Array.length sub ->
            Array.iteri (fun j (i, _) -> answers.(i) <- out.(j)) keyed;
            Answered { globals_at = Array.length keyed; out }
          | Some _ ->
            mark_down l;
            Missing
          | None -> Missing)
      t.leaves
  in
  Array.iteri
    (fun g (i, _) ->
      let acc = ref 0.0 in
      Array.iteri
        (fun li reply ->
          match reply with
          | Answered { globals_at; out } ->
            let shards = t.leaves.(li).shards in
            let base = globals_at + (g * shards) in
            for k = 0 to shards - 1 do
              acc := !acc +. out.(base + k)
            done
          | Idle | Missing -> ())
        replies;
      answers.(i) <- !acc)
    globals;
  let lm =
    Array.fold_left
      (fun n r -> match r with Missing -> n + 1 | Idle | Answered _ -> n)
      0 replies
  in
  if lm > 0 then M.incr c_partial;
  (answers, lm)

(* Split an ingest batch across the owning leaves (rebasing keys) and
   forward each sub-batch.  Returns the points actually acked plus how
   many leaves were unreachable — their sub-batches are dropped, which
   the partial ack surfaces to the producer. *)
let ingest t groups =
  M.incr c_fanouts;
  Array.iter (fun (k, _) -> check_key t k) groups;
  let per_leaf = Array.make (Array.length t.leaves) [] in
  Array.iter
    (fun (k, vs) ->
      let li = route t k in
      per_leaf.(li) <- (k - t.leaves.(li).offset, vs) :: per_leaf.(li))
    groups;
  let acked = ref 0 in
  let missing = ref 0 in
  Array.iteri
    (fun li gs ->
      match gs with
      | [] -> ()
      | gs -> (
        let sub = Array.of_list (List.rev gs) in
        match with_leaf t t.leaves.(li) (fun c -> Client.ingest c sub) with
        | Some n -> acked := !acked + n
        | None -> incr missing))
    per_leaf;
  (!acked, !missing)

(* Aggregated stats: the tree's geometry plus the sum of the live
   leaves' cumulative counters (a down leaf contributes nothing). *)
let stats t =
  let acc =
    ref
      {
        Wire.shards = t.total_shards;
        window = t.window;
        buckets = t.buckets;
        total_points = 0;
        batches = 0;
        queries = 0;
        backpressure_waits = 0;
        snapshots_published = 0;
      }
  in
  let missing = ref 0 in
  Array.iter
    (fun l ->
      match with_leaf t l Client.stats with
      | Some s ->
        acc :=
          {
            !acc with
            Wire.total_points = !acc.Wire.total_points + s.Wire.total_points;
            batches = !acc.Wire.batches + s.Wire.batches;
            queries = !acc.Wire.queries + s.Wire.queries;
            snapshots_published =
              !acc.Wire.snapshots_published + s.Wire.snapshots_published;
          }
      | None -> incr missing)
    t.leaves;
  (!acc, !missing)

(* Rows [lo, lo + n) of a serve-loop batch, cut back into runs of one key
   each: a request's groups, with adjacent groups of one key merged and
   empty groups dropped, which changes no leaf's arrival order. *)
let runs (b : Wire.Batch.t) lo n =
  let out = ref [] and hi = ref (lo + n) in
  while !hi > lo do
    let k = b.keys.(!hi - 1) in
    let start = ref (!hi - 1) in
    while !start > lo && b.keys.(!start - 1) = k do
      decr start
    done;
    out := (k, Array.sub b.values !start (!hi - !start)) :: !out;
    hi := !start
  done;
  Array.of_list !out

(* The root as a backend of the one serve loop: each ingest request of the
   round's batch is split per leaf and forwarded on its own, so a down
   leaf shortens only that request's ack. *)
let backend t =
  {
    Server.shards = t.total_shards;
    ingest =
      (fun b ->
        let lo = ref 0 in
        Array.init b.requests (fun j ->
            let n = b.counts.(j) in
            let acked = fst (ingest t (runs b !lo n)) in
            lo := !lo + n;
            acked));
    query = query t;
    stats = (fun () -> fst (stats t));
    checkpoint = None;
  }
