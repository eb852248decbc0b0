(* Plain-text tables for the experiment harness: each experiment prints the
   same rows/series shape as the corresponding table or figure in the
   paper, so EXPERIMENTS.md can cite the output verbatim. *)

let section title =
  let line = String.make (String.length title + 8) '=' in
  Printf.printf "\n%s\n=== %s ===\n%s\n" line title line

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  # %s\n" s) fmt

let table ~headers rows =
  let ncols = List.length headers in
  let widths = Array.of_list (List.map String.length headers) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let print_row row =
    List.iteri
      (fun i cell ->
        if i < ncols then Printf.printf "  %-*s" (widths.(i) + 2) cell)
      row;
    print_newline ()
  in
  print_row headers;
  print_row (List.mapi (fun i _ -> String.make widths.(i) '-') headers);
  List.iter print_row rows;
  print_newline ()

let time f =
  let t0 = Sh_net.Clock.now () in
  let r = f () in
  (r, Sh_net.Clock.now () -. t0)

(* ------------------------------------------------ machine-readable output

   Experiments push (key, value) pairs into an accumulator as they run;
   main.exe dumps the collected object when --json FILE is given.  A tiny
   hand-rolled serializer keeps the harness dependency-free. *)

type json =
  | Jnull
  | Jbool of bool
  | Jint of int
  | Jfloat of float
  | Jstring of string
  | Jlist of json list
  | Jobj of (string * json) list

(* Shortest-first float printing: %.17g always round-trips but renders 0.1
   as 0.10000000000000001; %.12g is clean for every humanly-chosen
   parameter, so prefer it whenever it parses back to the same bits. *)
let float_to_json f =
  let short = Printf.sprintf "%.12g" f in
  if float_of_string short = f then short else Printf.sprintf "%.17g" f

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec json_to_buf buf ~indent j =
  let pad n = String.make n ' ' in
  match j with
  | Jnull -> Buffer.add_string buf "null"
  | Jbool b -> Buffer.add_string buf (if b then "true" else "false")
  | Jint i -> Buffer.add_string buf (string_of_int i)
  | Jfloat f ->
    if Float.is_finite f then Buffer.add_string buf (float_to_json f)
    else Buffer.add_string buf "null"
  | Jstring s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (escape_string s))
  | Jlist [] -> Buffer.add_string buf "[]"
  | Jlist items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        json_to_buf buf ~indent:(indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf ']'
  | Jobj [] -> Buffer.add_string buf "{}"
  | Jobj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        Buffer.add_string buf (Printf.sprintf "\"%s\": " (escape_string k));
        json_to_buf buf ~indent:(indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 1024 in
  json_to_buf buf ~indent:0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let json_acc : (string * json) list ref = ref []
let json_add key value = json_acc := (key, value) :: !json_acc

(* Provenance of a results file: every timing in it is a property of the
   host that produced it. *)
let host_json ~scale =
  let cpu_model =
    let prefix = "model name" in
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> "unknown"
    | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | l when String.starts_with ~prefix l -> (
          match String.index_opt l ':' with
          | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
          | None -> "unknown")
        | _ -> find ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) find
  in
  (* the checkout's commit, "-dirty" when the working tree differs from it *)
  let commit =
    match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  in
  Jobj
    [
      ("cpu_model", Jstring cpu_model);
      ("cores", Jint (Domain.recommended_domain_count ()));
      ("commit", Jstring commit);
      ("os", Jstring Sys.os_type);
      ("ocaml", Jstring Sys.ocaml_version);
      ("scale", Jstring scale);
    ]

let json_out ~path =
  let oc = open_out path in
  output_string oc (json_to_string (Jobj (List.rev !json_acc)));
  close_out oc

(* Snapshot of the exposed telemetry in the accumulator's json type, so
   BENCH_*.json carries the work counters behind each timing row. *)
let registry_json () =
  let module R = Sh_obs.Registry in
  Jlist
    (List.map
       (fun h ->
         Jobj
           (("name", Jstring (R.name h))
           ::
           (match h with
           | R.Counter c -> [ ("type", Jstring "counter"); ("value", Jint (Sh_obs.Metric.value c)) ]
           | R.Tracker t -> [ ("type", Jstring "summary"); ("count", Jint (Sh_obs.Latency.count t)) ]
           )))
       (R.snapshot ()))

let fmt_time seconds =
  if seconds < 1e-3 then Printf.sprintf "%.1f us" (seconds *. 1e6)
  else if seconds < 1.0 then Printf.sprintf "%.2f ms" (seconds *. 1e3)
  else Printf.sprintf "%.2f s" seconds

let fmt_g v = Printf.sprintf "%.4g" v
