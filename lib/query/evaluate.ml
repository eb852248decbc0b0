module Metrics = Sh_util.Metrics
module Obs = Sh_obs.Obs
module M = Sh_obs.Metric

(* Query-volume accounting is global (not per-estimator): evaluation
   batches mix estimators over the same workload, so the interesting
   number is total queries answered per kind. *)
let c_range_sum = Obs.counter "query.range_sum_queries"
let c_point = Obs.counter "query.point_queries"
let c_range_avg = Obs.counter "query.range_avg_queries"

let check_compatible (truth : Estimator.t) (est : Estimator.t) =
  if truth.Estimator.n <> est.Estimator.n then
    invalid_arg "Evaluate: estimators cover different index ranges"

let range_sum_errors ~truth est queries =
  check_compatible truth est;
  M.add c_range_sum (Array.length queries);
  let truths =
    Array.map (fun { Workload.lo; hi } -> truth.Estimator.range_sum ~lo ~hi) queries
  in
  let estimates =
    Array.map (fun { Workload.lo; hi } -> est.Estimator.range_sum ~lo ~hi) queries
  in
  Metrics.summarize ~estimates ~truths

let point_errors ~truth est points =
  check_compatible truth est;
  M.add c_point (Array.length points);
  let truths = Array.map truth.Estimator.point points in
  let estimates = Array.map est.Estimator.point points in
  Metrics.summarize ~estimates ~truths

let range_avg_errors ~truth est queries =
  check_compatible truth est;
  M.add c_range_avg (Array.length queries);
  let truths =
    Array.map (fun { Workload.lo; hi } -> Estimator.range_avg truth ~lo ~hi) queries
  in
  let estimates =
    Array.map (fun { Workload.lo; hi } -> Estimator.range_avg est ~lo ~hi) queries
  in
  Metrics.summarize ~estimates ~truths
