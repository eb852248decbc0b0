(* End-to-end serving benchmark: drives real `shist serve` / `shist
   aggregate` processes over Unix sockets and prints every metric by name
   and unit, as a table and as JSON.  See README.md.

     e2e.exe [--workload W]... [--seed N] [--seconds S] [--trace [0|1]]
             [--smoke] [--out FILE] [--benchmark FILE]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics, or with
   --trace the per-layer ones, restricted to the names BENCHMARK.json lists
   when that file is readable. *)

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out \
     FILE] [--benchmark FILE]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun (w : Spec.t) -> w.name) Spec.all));
  exit 2

type opts = {
  mutable workloads : Spec.t list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  mutable benchmark : string;
}

let parse_args () =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = 30.0;
      trace = false;
      smoke = false;
      out = None;
      benchmark = "BENCHMARK.json";
    }
  in
  let num f s = match f s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      (match Spec.find w with Some s -> o.workloads <- o.workloads @ [ s ] | None -> usage ());
      go rest
    | "--seed" :: n :: rest ->
      o.seed <- num int_of_string_opt n;
      go rest
    | ("--seconds" | "--duration") :: s :: rest ->
      o.seconds <- num float_of_string_opt s;
      if not (o.seconds > 0.0) then usage ();
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      o.trace <- v = "1";
      go rest
    | "--trace" :: rest ->
      o.trace <- true;
      go rest
    | "--smoke" :: rest ->
      o.smoke <- true;
      go rest
    | "--out" :: f :: rest ->
      o.out <- Some f;
      go rest
    | "--benchmark" :: f :: rest ->
      o.benchmark <- f;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if o.workloads = [] then o.workloads <- Spec.all;
  o

(* Metric names BENCHMARK.json lists under [section]. *)
let listed file section =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match Json.member section (Json.parse text) with
    | Some (Json.Arr l) ->
      Some
        (List.filter_map
           (fun e -> match Json.member "name" e with Some (Json.Str s) -> Some s | _ -> None)
           l)
    | _ -> None)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (x : Live.metric) ->
         (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ]))
       ms)

let host =
  lazy
    (let open Json in
     let str = function Some s -> Str s | None -> Null in
     [
       ( "nproc",
         match Option.bind (Procs.command_line "nproc" []) int_of_string_opt with
         | Some n -> Num (Float.of_int n)
         | None -> Null );
       ("recommended_domain_count", Num (Float.of_int (Domain.recommended_domain_count ())));
       ("ocaml", Str Sys.ocaml_version);
       ("git_head", str (Procs.command_line "git" [ "rev-parse"; "HEAD" ]));
       ("shist", Str Procs.shist);
     ])

type result = { spec : Spec.t; outcome : Live.outcome; correct : bool }

let warmup o = if o.smoke then 0.5 else 2.0
let seconds o = if o.smoke then 2.0 else o.seconds

let run_one o (spec : Spec.t) =
  let spec = if o.smoke then Spec.smoke spec else spec in
  let outcome =
    try
      if o.trace then begin
        Procs.mkdir_p ".e2e";
        let trace_out = Printf.sprintf ".e2e/trace-%s-seed%d.json" spec.name o.seed in
        let r = Trace.run spec ~seed:o.seed ~seconds:(seconds o) ~trace_out in
        Printf.printf "chrome trace: %s\n" trace_out;
        r
      end
      else Live.run spec ~seed:o.seed ~seconds:(seconds o) ~warmup:(warmup o)
    with e ->
      let msg = Printexc.to_string e in
      let logs =
        List.filter_map
          (fun n -> match Procs.log_tail n with "" -> None | s -> Some (n ^ ": " ^ String.trim s))
          [ "leaf0"; "leaf1"; "root" ]
      in
      Procs.kill_all ();
      { Live.metrics = []; layers = []; attempted = 1; failed = 1; problems = msg :: logs }
  in
  (try Procs.remove_run_dir () with Sys_error _ | Unix.Unix_error _ -> ());
  { spec; outcome; correct = outcome.failed = 0 && outcome.problems = [] }

let print_result o r =
  let kind = if o.trace then "trace" else "measured" in
  Printf.printf "== %s (%s): seed %d, %s %g s%s ==\n" r.spec.name r.spec.why o.seed kind (seconds o)
    (if o.trace then "" else Printf.sprintf " after a %g s warm-up" (warmup o));
  Printf.printf "   %s\n" (Spec.loop_to_string r.spec);
  let table title ms =
    if ms <> [] then begin
      Printf.printf "  %s\n" title;
      List.iter
        (fun (x : Live.metric) -> Printf.printf "    %-34s %14.6g  %s\n" x.name x.value x.unit)
        ms
    end
  in
  table (if o.trace then "per-layer" else "end-to-end") r.outcome.metrics;
  table (if o.trace then "per-layer" else "per-layer (counters, sample counts)") r.outcome.layers;
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) r.outcome.problems;
  Printf.printf "  %s: %d of %d ops failed\n" (if r.correct then "correct" else "INCORRECT")
    r.outcome.failed r.outcome.attempted;
  let record =
    Json.Obj
      [
        ("workload", Json.Str r.spec.name);
        ("seed", Json.Num (Float.of_int o.seed));
        ("trace", Json.Bool o.trace);
        ("smoke", Json.Bool o.smoke);
        ("correct", Json.Bool r.correct);
        ("attempted", Json.Num (Float.of_int r.outcome.attempted));
        ("failed", Json.Num (Float.of_int r.outcome.failed));
        ("problems", Json.Arr (List.map (fun s -> Json.Str s) r.outcome.problems));
        ("metrics", metrics_json r.outcome.metrics);
        ("layers", metrics_json r.outcome.layers);
        ( "provenance",
          Json.Obj
            (Lazy.force host
            @ [
                ("seconds", Json.Num (seconds o));
                ("warmup_s", Json.Num (if o.trace then 0.0 else warmup o));
                ("setups", Json.Num (Float.of_int (if o.trace then 1 else Live.setups)));
                ("workload", Spec.to_json r.spec);
              ]) );
      ]
  in
  let line = Json.to_string record in
  Printf.printf "record %s\n%!" line;
  Option.iter
    (fun f ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 f (fun oc ->
          output_string oc (line ^ "\n")))
    o.out

(* The smoke check: every metric BENCHMARK.json names is present and
   finite, and nothing failed. *)
let smoke_check results ~e2e_names ~layer_names =
  let ok = ref true in
  List.iter
    (fun (trace, r) ->
      let names, ms =
        if trace then (layer_names, r.outcome.layers) else (e2e_names, r.outcome.metrics)
      in
      List.iter
        (fun n ->
          match List.find_opt (fun (x : Live.metric) -> x.name = n) ms with
          | Some x when Float.is_finite x.value -> ()
          | Some _ ->
            ok := false;
            Printf.printf "smoke: %s %s is not finite\n" r.spec.name n
          | None ->
            ok := false;
            Printf.printf "smoke: %s is missing %s\n" r.spec.name n)
        names;
      if not r.correct then begin
        ok := false;
        Printf.printf "smoke: %s%s failed %d of %d ops\n" r.spec.name
          (if trace then " (trace)" else "")
          r.outcome.failed r.outcome.attempted
      end)
    results;
  !ok

let () =
  (* A large minor heap keeps the generator's two domains from meeting in
     stop-the-world minor collections every few requests. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 22 };
  let o = parse_args () in
  if not (Sys.file_exists Procs.shist) then begin
    Printf.eprintf "e2e: %s not found (build it with dune build bin/shist.exe)\n" Procs.shist;
    exit 2
  end;
  let e2e_names = listed o.benchmark "end_to_end" in
  let layer_names = listed o.benchmark "per_layer" in
  if o.smoke then begin
    let results =
      List.concat_map
        (fun spec ->
          List.map
            (fun trace ->
              o.trace <- trace;
              let r = run_one o spec in
              print_result o r;
              (trace, r))
            [ false; true ])
        o.workloads
    in
    let need = function Some l -> l | None -> failwith ("cannot read " ^ o.benchmark) in
    let ok = smoke_check results ~e2e_names:(need e2e_names) ~layer_names:(need layer_names) in
    Printf.printf "smoke: %s\n" (if ok then "ok" else "FAILED");
    exit (if ok then 0 else 1)
  end;
  let results =
    List.map
      (fun spec ->
        let r = run_one o spec in
        print_result o r;
        r)
      o.workloads
  in
  let keep names ms =
    match names with
    | None -> ms
    | Some l -> List.filter (fun (x : Live.metric) -> List.mem x.name l) ms
  in
  let line_metrics r =
    if o.trace then keep layer_names r.outcome.layers else keep e2e_names r.outcome.metrics
  in
  let metrics =
    match results with
    | [ r ] -> line_metrics r
    | rs ->
      List.concat_map
        (fun r ->
          List.map
            (fun (x : Live.metric) -> { x with name = r.spec.name ^ "/" ^ x.name })
            (line_metrics r))
        rs
  in
  let correct = List.for_all (fun r -> r.correct) results in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (Float.of_int (sum (fun r -> r.outcome.attempted))));
            ("failed", Json.Num (Float.of_int (sum (fun r -> r.outcome.failed))));
            ("metrics", metrics_json metrics);
          ]));
  exit (if correct then 0 else 1)
