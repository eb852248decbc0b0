module Histogram = Sh_histogram.Histogram
module Synopsis = Sh_wavelet.Synopsis
module Prefix_sums = Sh_prefix.Prefix_sums

type t = {
  name : string;
  n : int;
  point : int -> float;
  range_sum : lo:int -> hi:int -> float;
}

let range_avg t ~lo ~hi =
  if lo > hi then 0.0 else t.range_sum ~lo ~hi /. Float.of_int (hi - lo + 1)

let of_histogram ?(name = "histogram") h =
  {
    name;
    n = h.Histogram.n;
    point = Histogram.point_estimate h;
    range_sum = Histogram.range_sum_estimate h;
  }

let of_wavelet ?(name = "wavelet") w =
  {
    name;
    n = Synopsis.length w;
    point = Synopsis.point_estimate w;
    range_sum = Synopsis.range_sum_estimate w;
  }

let exact ?(name = "exact") prefix =
  {
    name;
    n = Prefix_sums.length prefix;
    point = (fun i -> Prefix_sums.range_sum prefix ~lo:i ~hi:i);
    range_sum = Prefix_sums.range_sum prefix;
  }

let of_series ?(name = "series") series =
  let prefix = Prefix_sums.make series in
  { (exact prefix) with name }

let of_streaming_wavelet ?(name = "streaming-wavelet") s =
  {
    name;
    n = Sh_wavelet.Streaming.count s;
    point = Sh_wavelet.Streaming.point_estimate s;
    range_sum = Sh_wavelet.Streaming.range_sum_estimate s;
  }
