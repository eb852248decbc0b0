(* End-of-run correctness gate.

   1. Sync requests carry max(window, cadence) fresh points for every key,
      each key's points as one group (so one push_slice): each key crosses
      its refresh cadence, so every published view is current when the
      last ack returns, and each window holds only these points.  These
      windows and the probe ranges come from a fixed seed, not the run's:
      the accuracy metrics below are then a function of the code alone,
      not of the run's data or of how far the measured phase got.  Each
      request stays far below the server's 1 MiB read watermark: a frame
      larger than that is never read, because the server stops reading a
      connection that holds that many undecoded bytes.
   2. One query batch probes every key, plus [Global].
   3. Every answer must be bit-identical to a local per-key Fixed_window
      oracle fed the same per-key streams, regenerated from the seed now
      (the measured phase never paid for it); [Global] must equal the
      ascending-key fold of the oracle's answers from 0.0.
   4. The same replies give sse_ratio_max (served Current_error over the
      exact V-opt SSE of the window, which must stay within 1 + epsilon)
      and range_sum_relerr_p95 (the Section 5.1 method: relative error of
      served Range_sum answers against exact window sums). *)

module FW = Stream_histogram.Fixed_window
module Q = Stream_histogram.Query_op
module Client = Sh_net.Client
module Codec = Sh_persist.Codec

type result = {
  attempted : int;
  failed : int;
  problems : string list;
  sse_ratio_max : float;
  range_sum_relerr_p95 : float;
}

let ranges_per_key = 32
let sync_points = 32768
let data_seed = 20020226

(* Per-key probes: the whole-window answers, two HERROR points, both window
   ends, and [ranges_per_key] random ranges.  [Current_error] comes first. *)
let key_probes (spec : Spec.t) rng =
  let n = spec.window and b = spec.buckets in
  let fixed =
    [
      Q.Current_error;
      Q.Window_length;
      Q.Herror { k = b; x = n };
      Q.Herror { k = max 1 (b / 2); x = n / 2 };
      Q.Point_estimate { index = 1 };
      Q.Point_estimate { index = n };
    ]
  in
  let ranges =
    List.init ranges_per_key (fun _ ->
        let lo = 1 + Sh_util.Rng.int rng n in
        Q.Range_sum { lo; hi = lo + Sh_util.Rng.int rng (n - lo + 1) })
  in
  Array.of_list (fixed @ ranges)

let globals (spec : Spec.t) =
  let n = spec.window in
  [|
    Q.Current_error;
    Q.Window_length;
    Q.Herror { k = spec.buckets; x = n };
    Q.Range_sum { lo = 1; hi = n };
    Q.Point_estimate { index = n / 2 };
  |]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let run (spec : Spec.t) ~seed ~client ~(ks : Load.keyspace) =
  let keys = Spec.keys spec and n = spec.window in
  let tail_len = max n spec.every in
  let tails =
    Array.init keys (fun k ->
        let rng = Load.child ~seed:data_seed (Load.tail_ix spec k) in
        Sh_gen.Source.take (Load.network rng) tail_len)
  in
  let rng = Load.child ~seed:data_seed (Load.probe_ix spec) in
  let probes = Array.init keys (fun _ -> key_probes spec rng) in
  let per_key = Array.length probes.(0) in
  let ops =
    Array.append
      (Array.concat (List.init keys (fun k -> Array.map (fun q -> (Q.Key k, q)) probes.(k))))
      (Array.map (fun q -> (Q.Global, q)) (globals spec))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let sync_failed = ref 0 in
  let per_request = max 1 (sync_points / tail_len) in
  let served =
    try
      for first = 0 to (keys - 1) / per_request do
        let base = first * per_request in
        let group = List.init (min per_request (keys - base)) (fun i -> base + i) in
        let sync = Array.of_list (List.map (fun k -> (k, tails.(k))) group) in
        let acked = Client.ingest client sync in
        let points = List.length group * tail_len in
        if acked <> points then begin
          incr sync_failed;
          problem "sync acked %d of %d points" acked points
        end
      done;
      Some (Client.query client ops)
    with
    | (Client.Net_error _ | Unix.Unix_error _ | Codec.Corrupt _ | Codec.Version_mismatch _) as e ->
      problem "gate request failed: %s" (Printexc.to_string e);
      None
  in
  let served =
    match served with
    | Some a when Array.length a = Array.length ops -> a
    | Some a ->
      problem "short answer vector: %d of %d" (Array.length a) (Array.length ops);
      Array.make (Array.length ops) nan
    | None -> Array.make (Array.length ops) nan
  in
  (* The oracle: each key's whole stream, drawn again from the seed. *)
  let fresh = Load.keyspace spec ~seed in
  let views =
    Array.init keys (fun k ->
        let fw = FW.create ~window:n ~buckets:spec.buckets ~epsilon:spec.epsilon in
        for _ = 1 to ks.sent.(k) do
          FW.push fw (fresh.sources.(k) ())
        done;
        FW.push_many fw tails.(k);
        FW.view fw)
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun i (scope, q) ->
      let expected =
        match scope with
        | Q.Key k -> Q.eval_view views.(k) q
        | Q.Global -> Array.fold_left (fun acc v -> acc +. Q.eval_view v q) 0.0 views
      in
      if not (same_bits served.(i) expected) then begin
        incr mismatches;
        if !mismatches <= 5 then
          problem "%s %s: served %.17g, oracle %.17g"
            (match scope with Q.Key k -> Printf.sprintf "key %d" k | Q.Global -> "global")
            (Q.to_string q) served.(i) expected
      end)
    ops;
  (* Accuracy against exact answers on each key's window (the last n tail
     points). *)
  let sse_ratio_max = ref 0.0 and bound_violations = ref 0 in
  let relerrs = Stats.create () in
  for k = 0 to keys - 1 do
    let data = Array.sub tails.(k) (tail_len - n) n in
    let base = k * per_key in
    let exact =
      Sh_histogram.Vopt.optimal_error (Sh_prefix.Prefix_sums.make data) ~buckets:spec.buckets
    in
    let ratio =
      if exact > 0.0 then served.(base) /. exact
      else if served.(base) = 0.0 then 1.0
      else infinity
    in
    sse_ratio_max := Float.max !sse_ratio_max ratio;
    if not (ratio <= 1.0 +. spec.epsilon) then begin
      incr bound_violations;
      problem "key %d: SSE ratio %.6f exceeds 1 + epsilon" k ratio
    end;
    Array.iteri
      (fun j q ->
        match q with
        | Q.Range_sum { lo; hi } ->
          let sum = ref 0.0 in
          for i = lo - 1 to hi - 1 do
            sum := !sum +. data.(i)
          done;
          let err = Float.abs (served.(base + j) -. !sum) in
          Stats.add relerrs (err /. Float.max 1.0 (Float.abs !sum))
        | _ -> ())
      probes.(k)
  done;
  {
    attempted = ((keys - 1) / per_request) + 1 + Array.length ops;
    failed = !sync_failed + !mismatches + !bound_violations;
    problems = List.rev !problems;
    sse_ratio_max = !sse_ratio_max;
    range_sum_relerr_p95 = Option.value ~default:nan (Stats.quantile relerrs 0.95);
  }
