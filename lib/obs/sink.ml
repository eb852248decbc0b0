(* Exposition of the registry and the latency trackers in three formats:
   an aligned human-readable dump, JSON lines (one object per series),
   and Prometheus text format.  All sinks render the same
   Registry.snapshot order, so diffs between dumps are meaningful. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

(* ------------------------------------------------------------- text *)

(* 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p999" *)
let phi_label phi =
  let s = Printf.sprintf "%g" (phi *. 100.0) in
  "p" ^ String.concat "" (String.split_on_char '.' s)

let labels_to_string = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let text buf =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let series = Registry.snapshot () in
  let counters = List.filter_map (function Registry.Counter c -> Some c | _ -> None) series in
  let gauges = List.filter_map (function Registry.Gauge g -> Some g | _ -> None) series in
  if counters <> [] then begin
    line "counters:";
    List.iter
      (fun (c : Metric.counter) ->
        line "  %-48s %d" (c.Metric.c_name ^ labels_to_string c.Metric.c_labels) (Metric.value c))
      counters
  end;
  if gauges <> [] then begin
    line "gauges:";
    List.iter
      (fun (g : Metric.gauge) ->
        line "  %-48s %g" (g.Metric.g_name ^ labels_to_string g.Metric.g_labels) (Metric.gvalue g))
      gauges
  end;
  (match Latency.snapshot () with
  | [] -> ()
  | trackers ->
    line "latency:";
    List.iter
      (fun tr ->
        let quantiles =
          if Latency.count tr = 0 then ""
          else
            String.concat ""
              (List.map
                 (fun phi ->
                   match Latency.quantile tr phi with
                   | Some v -> Printf.sprintf " %s=%g" (phi_label phi) v
                   | None -> "")
                 Latency.percentiles)
        in
        line "  %-48s count=%d sum=%g%s"
          (Latency.name tr ^ labels_to_string (Latency.labels tr))
          (Latency.count tr) (Latency.sum tr) quantiles)
      trackers)

(* ------------------------------------------------------- JSON lines *)

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) labels)
  ^ "}"

let json_lines buf =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (function
      | Registry.Counter c ->
        line "{\"type\":\"counter\",\"name\":\"%s\",\"labels\":%s,\"value\":%d}"
          (json_escape c.Metric.c_name) (json_labels c.Metric.c_labels) (Metric.value c)
      | Registry.Gauge g ->
        line "{\"type\":\"gauge\",\"name\":\"%s\",\"labels\":%s,\"value\":%s}"
          (json_escape g.Metric.g_name) (json_labels g.Metric.g_labels) (json_float (Metric.gvalue g)))
    (Registry.snapshot ());
  List.iter
    (fun tr ->
      let quantiles =
        if Latency.count tr = 0 then ""
        else
          String.concat ","
            (List.filter_map
               (fun phi ->
                 match Latency.quantile tr phi with
                 | Some v -> Some (Printf.sprintf "\"%g\":%s" phi (json_float v))
                 | None -> None)
               Latency.percentiles)
      in
      line "{\"type\":\"summary\",\"name\":\"%s\",\"labels\":%s,\"count\":%d,\"sum\":%s,\"quantiles\":{%s}}"
        (json_escape (Latency.name tr))
        (json_labels (Latency.labels tr))
        (Latency.count tr)
        (json_float (Latency.sum tr))
        quantiles)
    (Latency.snapshot ())

(* ------------------------------------------------------- Prometheus *)

(* Registry names use dots as namespace separators; Prometheus only
   allows [a-zA-Z0-9_:]. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (prom_name k) (prom_escape v)) labels)
    ^ "}"

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
  (* snapshot order groups series of a family together, so a TYPE header
     is emitted exactly once per family *)
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
        line "%s%s %d" family (prom_labels c.Metric.c_labels) (Metric.value c)
      | Registry.Gauge g ->
        let family = prom_name g.Metric.g_name in
        type_line family "gauge";
        line "%s%s %s" family (prom_labels g.Metric.g_labels) (prom_float (Metric.gvalue g)))
    (Registry.snapshot ());
  List.iter
    (fun tr ->
      let family = prom_name (Latency.name tr) in
      let labels = Latency.labels tr in
      type_line family "summary";
      if Latency.count tr > 0 then
        List.iter
          (fun phi ->
            match Latency.quantile tr phi with
            | Some v ->
              line "%s%s %s" family
                (prom_labels (labels @ [ ("quantile", Printf.sprintf "%g" phi) ]))
                (prom_float v)
            | None -> ())
          Latency.percentiles;
      line "%s_sum%s %s" family (prom_labels labels) (prom_float (Latency.sum tr));
      line "%s_count%s %d" family (prom_labels labels) (Latency.count tr))
    (Latency.snapshot ())
