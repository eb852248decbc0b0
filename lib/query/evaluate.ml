module Metrics = Sh_util.Metrics

let check_compatible (truth : Estimator.t) (est : Estimator.t) =
  if truth.Estimator.n <> est.Estimator.n then
    invalid_arg "Evaluate: estimators cover different index ranges"

let range_sum_errors ~truth est queries =
  check_compatible truth est;
  let truths =
    Array.map (fun { Workload.lo; hi } -> truth.Estimator.range_sum ~lo ~hi) queries
  in
  let estimates =
    Array.map (fun { Workload.lo; hi } -> est.Estimator.range_sum ~lo ~hi) queries
  in
  Metrics.summarize ~estimates ~truths

let point_errors ~truth est points =
  check_compatible truth est;
  let truths = Array.map truth.Estimator.point points in
  let estimates = Array.map est.Estimator.point points in
  Metrics.summarize ~estimates ~truths

let range_avg_errors ~truth est queries =
  check_compatible truth est;
  let truths =
    Array.map (fun { Workload.lo; hi } -> Estimator.range_avg truth ~lo ~hi) queries
  in
  let estimates =
    Array.map (fun { Workload.lo; hi } -> Estimator.range_avg est ~lo ~hi) queries
  in
  Metrics.summarize ~estimates ~truths
