(* Prometheus text exposition of the exposed handles, in Registry.snapshot
   order, so diffs between dumps are meaningful.  Registry.expose keeps
   one handle per family, so every family gets exactly one TYPE line. *)

(* 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p999" *)
let phi_label phi =
  let s = Printf.sprintf "%g" (phi *. 100.0) in
  "p" ^ String.concat "" (String.split_on_char '.' s)

let prom_float f =
  if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_nan f then "NaN"
  else Printf.sprintf "%.17g" f

let prometheus buf =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun h ->
      let family = Registry.family h in
      match h with
      | Registry.Counter c ->
        line "# TYPE %s counter" family;
        line "%s %d" family (Metric.value c)
      | Registry.Tracker tr ->
        line "# TYPE %s summary" family;
        if Latency.count tr > 0 then
          List.iter
            (fun phi ->
              match Latency.quantile tr phi with
              | Some v -> line "%s{quantile=\"%g\"} %s" family phi (prom_float v)
              | None -> ())
            Latency.percentiles;
        line "%s_sum %s" family (prom_float (Latency.sum tr));
        line "%s_count %d" family (Latency.count tr))
    (Registry.snapshot ())
