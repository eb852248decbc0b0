(** The shared estimation-query vocabulary of the serving planes.

    One variant, one clamping contract, one wire encoding — consumed by
    {!Sh_par.Shard_engine.query_many}, the {!Sh_net.Wire} codec, and the
    {!Sh_agg} root aggregator, so a query means exactly the same thing
    whether it is answered in-process, by a leaf server, or by a merged
    multi-leaf snapshot.

    {b The clamping contract} (shared by every serving path): a remote
    client cannot know the instantaneous window length of the answering
    summary, so structural parameters are clamped to the answering state
    rather than raising — [Herror]'s [k] to [\[1, B\]] and [x] to
    [\[0, n\]]; [Range_sum]'s range is intersected with [\[1, n\]] (an
    empty intersection, or an empty window, sums to 0); [Point_estimate]
    answers 0 outside [\[1, n\]].  {!eval_view} is that contract's single
    implementation. *)

type t =
  | Current_error  (** approximate HERROR\[n, B\] of the window *)
  | Window_length  (** points in the window, as a float *)
  | Herror of { k : int; x : int }
      (** HERROR\[x, k\]; [k] clamped to [\[1, B\]], [x] to [\[0, n\]] *)
  | Range_sum of { lo : int; hi : int }
      (** histogram range-sum estimate over window indices, intersected
          with [\[1, n\]] (empty intersection and empty window sum to 0) *)
  | Point_estimate of { index : int }
      (** histogram point estimate; 0 outside [\[1, n\]] *)

type scope =
  | Key of int  (** one stream key (a shard of one engine, or a global key
                    routed to its owning leaf by an aggregator) *)
  | Global
      (** every key of every shard behind the answering peer.  A [Global]
          answer is the fold of the per-key answers in ascending key
          order, accumulated left-to-right from [0.0] — a fixed float
          association, so a single-process engine and a root aggregator
          merging the same keys answer bit-identically. *)

val to_string : t -> string

val eval_view : Fixed_window.View.t -> t -> float
(** Answer one query against a published fixed-window view under the
    clamping contract above.  [Herror] runs the view's candidate scan
    (see {!Fixed_window.View.herror}); [Range_sum] and [Point_estimate]
    read the view's histogram in place, so the view must be held while
    this runs (the sharded engine pins it). *)

(** {2 Codec}

    The sub-tag bytes of the wire protocol's query frames (and of any
    future persisted query log), kept next to the variant so the encoding
    cannot drift from it.  [get]/[get_scope] raise
    {!Sh_persist.Codec.Corrupt} on an unknown tag. *)

val put : Buffer.t -> t -> unit
val get : Sh_persist.Codec.reader -> t
val put_scope : Buffer.t -> scope -> unit
val get_scope : Sh_persist.Codec.reader -> scope
