(** The one seeded traffic generator behind [shist serve], [shist loadgen]
    and the read benchmark: per-key value streams, a key chooser, and
    random estimation queries.

    Every key owns a {!Sh_gen.Workloads.network} stream derived from the
    root generator and its key alone ([Rng.split_ix root k]), so a run's
    per-key values do not depend on the key distribution, the batch size
    or the domain count.  The key chooser draws from [Rng.split_ix root
    shards]. *)

module Rng := Sh_util.Rng
module Qop := Stream_histogram.Query_op

type dist =
  | Uniform  (** every key equally likely *)
  | Zipf of float  (** Zipfian over keys with this skew: hot keys first *)
  | Round_robin  (** keys 0, 1, …, shards − 1, 0, … *)

val dist_name : dist -> string
(** [uniform], [zipf] or [roundrobin]: the [--dist] spelling. *)

val sources : Rng.t -> shards:int -> Sh_gen.Source.t array
(** Key [k]'s value stream is [Workloads.network (Rng.split_ix root k)]. *)

type t

val create : Rng.t -> shards:int -> dist -> t
(** [create root ~shards dist]: {!sources} plus a key chooser. *)

val next : t -> int * float
(** The next arrival: choose a key, then draw that key's next value. *)

val key_rng : t -> Rng.t
(** The chooser's generator.  [loadgen] also draws its queries from it,
    interleaved with the keys. *)

val one_in_16_global : shards:int -> Rng.t -> Qop.scope
(** [serve --query-mix]'s scope rule: [Global] with probability 1/16,
    else a uniform key. *)

val global_fraction : shards:int -> float -> Rng.t -> Qop.scope
(** [loadgen --global-mix f]'s scope rule: [Global] with probability [f]
    (no draw at all when [f = 0]), else a uniform key. *)

val random_query :
  Rng.t -> scope:(Rng.t -> Qop.scope) -> buckets:int -> window:int -> Qop.scope * Qop.t
(** Draw the scope with [scope], then one of the five query kinds with
    uniform parameters sized to the engine's [buckets] and [window]. *)
