(** Value-domain histograms for selectivity estimation.

    The serial histograms of {!Sh_histogram} partition the {e index} axis
    of a sequence; query optimisers instead need the {e value}
    distribution: "what fraction of tuples has [a <= v <= b]?"  ([PI97],
    [IP95] — the query-optimisation applications the paper's introduction
    motivates).  This module provides the classic constructions over a
    column of values:

    - equi-width: fixed-width value ranges;
    - equi-depth: ranges holding equal tuple counts (from exact quantiles
      offline, or from a one-pass GK summary on a stream);
    - V-optimal-on-frequencies: bucket the {e frequency vector} of the
      (discretised) value domain with the optimal DP, minimising the SSE
      of frequency estimates — the classic V-optimal(F, V) histogram.

    Estimators assume uniform spread inside a bucket, the standard
    assumption. *)

type bucket = {
  lo_v : float;    (** inclusive lower value bound *)
  hi_v : float;    (** exclusive upper value bound (inclusive for the last bucket) *)
  count : float;   (** number of tuples falling in the bucket *)
  distinct : float;(** distinct-value estimate inside the bucket (>= 1) *)
}

type t = private {
  total : float;          (** total tuple count *)
  buckets : bucket array; (** contiguous, increasing value ranges *)
}

val equi_width : float array -> buckets:int -> t
(** Fixed-width partition of [\[min, max\]].  Raises on empty input. *)

val equi_depth : float array -> buckets:int -> t
(** Boundaries at exact quantiles (sorts a copy). *)

val equi_depth_of_gk : Sh_gk.Gk.t -> buckets:int -> t
(** Streaming equi-depth: boundaries from a GK summary, so the histogram
    is buildable in one pass and bucket counts are within the GK rank
    guarantee.  Raises on an empty summary. *)

val v_optimal : float array -> buckets:int -> domain_bins:int -> t
(** Discretise the value domain into [domain_bins] cells, then apply the
    V-optimal DP to the cell-frequency vector; bucket counts are exact. *)

val of_window_view : Stream_histogram.Fixed_window.View.t -> t
(** Value-domain sketch from a published fixed-window read view (the
    wait-free query plane): each bucket of the view's index histogram
    contributes its width as tuples at its mean value, and adjacent mass
    points become tiling value ranges under the uniform-spread
    assumption.  At most B buckets; buildable from a snapshot while
    ingest continues on the live summary.  Raises [Invalid_argument] on
    an empty-window view. *)

val bucket_count : t -> int

val selectivity_range : t -> lo:float -> hi:float -> float
(** Estimated fraction of tuples with value in [\[lo, hi\]], by uniform
    interpolation inside partially-overlapped buckets.  Clamped to
    [\[0, 1\]]. *)

val selectivity_eq : t -> float -> float
(** Estimated fraction of tuples equal to the given value (uniform spread
    over the bucket's distinct values). *)

val estimate_count : t -> lo:float -> hi:float -> float
(** [selectivity_range] scaled by the total tuple count. *)

val pp : Format.formatter -> t -> unit
