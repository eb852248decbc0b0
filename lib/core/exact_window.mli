(** The naive fixed-window baseline of Section 3 of the paper: keep the
    raw window in a circular buffer and run the optimal O(n^2 B) dynamic
    program on it whenever a histogram is needed ("a naive application of
    the optimal histogram construction algorithm to each subsequence").

    This is the "Exact" series of Figure 6: the quality ceiling the
    streaming algorithm approximates, at a per-query cost that is
    quadratic in the window length.  [shist serve --record] keeps one per
    key as the oracle for its SSE spot checks. *)

type t

val create : window:int -> buckets:int -> t
(** Raises [Invalid_argument] on bad geometry. *)

val window : t -> int
val buckets : t -> int
val length : t -> int

val push : t -> float -> unit
(** O(1): append to the circular buffer.  Raises [Invalid_argument] on a
    non-finite value. *)

val current_histogram : t -> Sh_histogram.Histogram.t
(** Optimal B-bucket histogram of the current window, recomputed from
    scratch: O(n^2 B).  Raises [Invalid_argument] on an empty window. *)

val current_error : t -> float
(** The optimal SSE itself.  Raises [Invalid_argument] on an empty window. *)

val sse : t -> Sh_histogram.Histogram.t -> float
(** SSE of the given histogram against the current window's exact values,
    e.g. another summary's answer for the same window: O(n) to rebuild the
    prefix sums, then O(buckets).  Raises [Invalid_argument] on an empty
    window. *)
