(* Prometheus text exposition of the registry and the latency trackers,
   in Registry.snapshot order followed by Latency.snapshot order, so
   diffs between dumps are meaningful. *)

(* 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p999" *)
let phi_label phi =
  let s = Printf.sprintf "%g" (phi *. 100.0) in
  "p" ^ String.concat "" (String.split_on_char '.' s)

(* Registry names use dots as namespace separators; Prometheus only
   allows [a-zA-Z0-9_:]. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float f =
  if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_nan f then "NaN"
  else Printf.sprintf "%.17g" f

let ends_with ~suffix s =
  let ls = String.length s and lf = String.length suffix in
  ls >= lf && String.sub s (ls - lf) lf = suffix

let prometheus buf =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* two names can render as one family ("x" and "x_total", "a.b" and
     "a_b"); snapshot order puts them next to each other, so the TYPE
     header is still emitted once *)
  let last_type_line = ref "" in
  let type_line family kind =
    let l = Printf.sprintf "# TYPE %s %s" family kind in
    if l <> !last_type_line then begin
      last_type_line := l;
      line "%s" l
    end
  in
  List.iter
    (function
      | Registry.Counter c ->
        let family =
          let n = prom_name c.Metric.c_name in
          if ends_with ~suffix:"_total" n then n else n ^ "_total"
        in
        type_line family "counter";
        line "%s %d" family (Metric.value c)
      | Registry.Gauge g ->
        let family = prom_name g.Metric.g_name in
        type_line family "gauge";
        line "%s %s" family (prom_float (Metric.gvalue g)))
    (Registry.snapshot ());
  List.iter
    (fun tr ->
      let family = prom_name (Latency.name tr) in
      type_line family "summary";
      if Latency.count tr > 0 then
        List.iter
          (fun phi ->
            match Latency.quantile tr phi with
            | Some v -> line "%s{quantile=\"%g\"} %s" family phi (prom_float v)
            | None -> ())
          Latency.percentiles;
      line "%s_sum %s" family (prom_float (Latency.sum tr));
      line "%s_count %d" family (Latency.count tr))
    (Latency.snapshot ())
