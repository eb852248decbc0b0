(** Serial (index-partitioning) histograms.

    A histogram over a sequence [v_1 .. v_n] is a partition of the index
    range [\[1, n\]] into B contiguous buckets, each represented by a single
    value [h_i] (here always the bucket mean, which minimises SSE).  This is
    the representation H_B of Section 3 of the paper.

    All indices are 1-based and bucket ranges inclusive, matching the paper. *)

type bucket = {
  lo : int;      (** first index covered, 1-based *)
  hi : int;      (** last index covered, inclusive *)
  value : float; (** representative (the bucket mean) *)
}

type t = private {
  n : int;              (** length of the approximated sequence *)
  his : int array;      (** bucket right ends, increasing, the last [n];
                            bucket [i] starts at 1 or at [his.(i-1) + 1] *)
  values : float array; (** one representative per bucket *)
}
(** Columns, not bucket records: {!point_estimate} and
    {!range_sum_estimate} run the column kernel below, which storage that
    is refilled in place (a published fixed-window view's) runs too. *)

val make : n:int -> bucket array -> t
(** Validates that buckets are non-empty, contiguous and cover [\[1, n\]].
    Raises [Invalid_argument] otherwise. *)

val of_columns : n:int -> his:int array -> values:float array -> count:int -> t
(** The histogram of the first [count] rows of the columns, copied: the
    columns may be overwritten afterwards.  Raises [Invalid_argument]
    unless the rows are non-empty contiguous buckets covering [\[1, n\]]. *)

val of_boundaries : Sh_prefix.Prefix_sums.t -> boundaries:int array -> t
(** [of_boundaries prefix ~boundaries] builds the histogram whose bucket
    right-endpoints are [boundaries] (strictly increasing, last equal to the
    sequence length); bucket values are the exact range means. *)

val bucket_count : t -> int

val buckets : t -> bucket array
(** The buckets as fresh records, in order. *)

val find_bucket : t -> int -> bucket
(** Bucket containing index [i], by binary search in O(log B). *)

val point_estimate : t -> int -> float
(** Estimated v_i: the value of the covering bucket. *)

val range_sum_estimate : t -> lo:int -> hi:int -> float
(** Estimated sum of [v_lo .. v_hi] under the uniform-within-bucket
    assumption: each bucket contributes (overlap length) x (bucket value). *)

val range_avg_estimate : t -> lo:int -> hi:int -> float

val to_series : t -> float array
(** The length-n reconstructed approximation (0-based array;
    element [i-1] approximates v_i). *)

val sse_against : t -> Sh_prefix.Prefix_sums.t -> float
(** Exact SSE of the histogram against the data it summarises:
    E_X(H_B) of the paper, computed in O(B) from prefix sums. *)

val pp : Format.formatter -> t -> unit

(** {2 The estimate kernel over bucket columns}

    What {!point_estimate} and {!range_sum_estimate} evaluate, over rows
    [\[0, count)] of a right-end column and a value column laid out as in
    {!t} (the columns may be longer).  For callers that keep a histogram
    in storage of their own; they check arguments themselves. *)

val point_in : his:int array -> values:float array -> count:int -> int -> float
(** Value of the bucket covering index [i].  Requires
    [1 <= i <= his.(count - 1)]. *)

val range_sum_in :
  his:int array -> values:float array -> count:int -> lo:int -> hi:int -> float
(** The {!range_sum_estimate} of [\[lo, hi\]]: 0 when [lo > hi], else
    requires [1 <= lo] and [hi <= his.(count - 1)]. *)
