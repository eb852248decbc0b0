(** The shared shape of a streaming summary: what every maintainer in this
    repository looks like to generic code (the {!Snapshot} functor, the
    durability tests, benchmark drivers).

    Conformance (checked by [module _ : S = ...] proofs in [Snapshot]):
    - {!Fixed_window} — the paper's sliding-window maintainer, directly;
    - {!Exact_window} — the exact DP baseline ([epsilon] recorded only);
    - {!Agglomerative} — via its [Summary] submodule (the primary API keeps
      the historical whole-stream [create] without a window).

    Convention pinned by this interface: [create] takes mandatory labelled
    geometry and nothing else — no trailing [unit], no optional arguments
    (OCaml cannot erase an optional that is followed only by labels, which
    is what the old trailing units worked around).  Optional knobs live in
    explicitly named variants ([create_with_delta], [create_rebasing]) or
    post-creation setters ([set_refresh_policy]). *)

exception Merge_incompatible of string
(** Raised when summaries cannot be combined — today, when the leaves
    behind [Sh_agg.Aggregator.create] disagree on window or bucket
    geometry.  A concrete exception so aggregation code can catch one
    thing. *)

let merge_incompatiblef fmt =
  Printf.ksprintf (fun s -> raise (Merge_incompatible s)) fmt

module type Persistable = sig
  type t

  val name : string
  (** Family name used in error messages and benchmark labels. *)

  val encode : Buffer.t -> t -> unit
  (** Append the snapshot payload for {!decode}.  Must be read-only: a
      snapshot taken mid-stream leaves the summary untouched. *)

  val decode : Sh_persist.Codec.reader -> t
  (** Rebuild a summary from {!encode}'s bytes.  Raises
      {!Sh_persist.Codec.Corrupt} on malformed input; must consume the
      payload exactly (the caller checks for trailing bytes). *)
end

module type S = sig
  include Persistable

  val create : window:int -> buckets:int -> epsilon:float -> t
  (** Empty summary for a window of [window] points, a space budget of
      [buckets], and precision [epsilon].  Raises [Invalid_argument] on
      out-of-range geometry. *)

  val window : t -> int
  val buckets : t -> int
  val epsilon : t -> float

  val length : t -> int
  (** Points currently summarised ([<= window t] for bounded windows). *)

  val push : t -> float -> unit
  (** Ingest the next stream value.  Raises [Invalid_argument] on a
      non-finite value — NaN would silently poison the prefix sums. *)

  val current_error : t -> float
  val current_histogram : t -> Sh_histogram.Histogram.t
end
