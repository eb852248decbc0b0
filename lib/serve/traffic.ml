module Rng = Sh_util.Rng
module Wk = Sh_gen.Workloads
module Qop = Stream_histogram.Query_op

type dist = Uniform | Zipf of float | Round_robin

let dist_name = function Uniform -> "uniform" | Zipf _ -> "zipf" | Round_robin -> "roundrobin"

let sources root ~shards =
  Array.init shards (fun k -> Wk.network (Rng.split_ix root k) Wk.default_network)

type t = { sources : Sh_gen.Source.t array; key_rng : Rng.t; next_key : unit -> int }

let create root ~shards dist =
  let sources = sources root ~shards in
  let key_rng = Rng.split_ix root shards in
  let next_key =
    match dist with
    | Uniform -> fun () -> Rng.int key_rng shards
    | Zipf skew -> fun () -> Rng.zipf key_rng ~n:shards ~skew - 1
    | Round_robin ->
      let rr = ref 0 in
      fun () ->
        let k = !rr in
        rr := (k + 1) mod shards;
        k
  in
  { sources; key_rng; next_key }

let next t =
  let k = t.next_key () in
  (k, t.sources.(k) ())

let key_rng t = t.key_rng

let one_in_16_global ~shards rng =
  if Rng.int rng 16 = 0 then Qop.Global else Qop.Key (Rng.int rng shards)

let global_fraction ~shards f rng =
  if f > 0.0 && Rng.float rng 1.0 < f then Qop.Global else Qop.Key (Rng.int rng shards)

let random_query rng ~scope ~buckets ~window =
  let scope = scope rng in
  let q =
    match Rng.int rng 5 with
    | 0 -> Qop.Current_error
    | 1 -> Qop.Window_length
    | 2 -> Qop.Herror { k = 1 + Rng.int rng buckets; x = Rng.int rng (window + 1) }
    | 3 ->
      let lo = 1 + Rng.int rng window in
      Qop.Range_sum { lo; hi = lo + Rng.int rng window }
    | _ -> Qop.Point_estimate { index = 1 + Rng.int rng window }
  in
  (scope, q)
