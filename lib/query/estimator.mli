(** A uniform query interface over every synopsis in the repository, plus
    exact ground truth — what the experiment harness sweeps over.

    Indices are 1-based; ranges inclusive. *)

type t = {
  name : string;
  n : int;                                   (** covered index range [1..n] *)
  point : int -> float;                      (** estimate of v_i *)
  range_sum : lo:int -> hi:int -> float;     (** estimate of sum v_lo..v_hi *)
}

val range_avg : t -> lo:int -> hi:int -> float

val of_histogram : ?name:string -> Sh_histogram.Histogram.t -> t
val of_wavelet : ?name:string -> Sh_wavelet.Synopsis.t -> t

val exact : ?name:string -> Sh_prefix.Prefix_sums.t -> t
(** Ground truth from prefix sums. *)

val of_series : ?name:string -> float array -> t
(** Estimator backed by an explicit approximation series (0-based array
    approximating v_1..v_n). *)

val of_streaming_wavelet : ?name:string -> Sh_wavelet.Streaming.t -> t
(** Estimator over an incrementally maintained wavelet synopsis. *)
