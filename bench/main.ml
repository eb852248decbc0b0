(* Benchmark and experiment harness.

   Usage:
     dune exec bench/main.exe                      # every experiment, default scale
     dune exec bench/main.exe -- fig6a fig6c       # selected experiments
     dune exec bench/main.exe -- --scale small     # smoke-test sizes
     dune exec bench/main.exe -- --scale full all  # closest to paper sizes
     dune exec bench/main.exe -- --json BENCH_fixed_window.json micro-fw micro-obs

   Experiments (see DESIGN.md section 3 for the per-experiment index):
     fig6a fig6b fig6c fig6d      Figure 6 of the paper
     agg-wavelet agg-opt          Section 5.2 additional experiments
     sim-whole sim-sub            Section 5.2 similarity experiments
     ablate-delta ablate-rebuild ablate-rebase ablate-wavelet
     micro                        bechamel per-operation benchmarks *)

let experiments : (string * (Bench_config.scale -> unit)) list =
  [
    ("fig6a", Fig6.accuracy ~eps:0.1);
    ("fig6b", Fig6.accuracy ~eps:0.01);
    ("fig6c", Fig6.construction ~eps:0.1);
    ("fig6d", Fig6.construction ~eps:0.01);
    ("agg-wavelet", Additional.agg_vs_wavelet);
    ("agg-opt", Additional.agg_vs_opt);
    ("sim-whole", Additional.similarity_whole);
    ("sim-sub", Additional.similarity_subseq);
    ("ablate-delta", Ablations.delta);
    ("ablate-rebuild", Ablations.rebuild);
    ("ablate-rebase", Ablations.rebase);
    ("ablate-wavelet", Ablations.wavelet);
    ("ext-synopses", Extensions.synopses);
    ("micro", Micro.run);
    ("micro-fw", Micro.run_fw);
    ("micro-obs", Micro.run_obs);
    ("micro-par", Micro.run_par);
    ("micro-read", Micro.run_read);
    ("micro-persist", Micro.run_persist);
    ("micro-net", Micro.run_net);
  ]

let usage () =
  Printf.printf "usage: main.exe [--scale small|default|full] [--json FILE] [experiment...]\n";
  Printf.printf "experiments: all %s\n" (String.concat " " (List.map fst experiments));
  Printf.printf "--json FILE  write machine-readable results of the selected experiments\n";
  exit 1

let () =
  let scale = ref Bench_config.Default in
  let json_file = ref None in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: s :: rest ->
      (match Bench_config.scale_of_string s with
      | Some sc -> scale := sc
      | None -> usage ());
      parse rest
    | "--json" :: f :: rest ->
      json_file := Some f;
      parse rest
    | ("-h" | "--help") :: _ -> usage ()
    | name :: rest ->
      selected := name :: !selected;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* fail on an unwritable --json path now, not after minutes of benching *)
  (match !json_file with
  | Some path -> (
    try close_out (open_out path)
    with Sys_error msg ->
      Printf.eprintf "cannot write --json file: %s\n" msg;
      exit 1)
  | None -> ());
  let names =
    match List.rev !selected with
    | [] | [ "all" ] -> List.map fst experiments
    | names -> names
  in
  let scale_name =
    match !scale with
    | Bench_config.Small -> "small"
    | Bench_config.Default -> "default"
    | Bench_config.Full -> "full"
  in
  Printf.printf "stream-histograms experiment harness (scale: %s)\n" scale_name;
  Printf.printf "reproducing: Guha & Koudas, ICDE 2002 (see DESIGN.md / EXPERIMENTS.md)\n";
  let t0 = Sh_net.Clock.now () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run ->
        let (), dt = Report.time (fun () -> run !scale) in
        Printf.printf "  [%s finished in %s]\n%!" name (Report.fmt_time dt)
      | None ->
        Printf.printf "unknown experiment: %s\n" name;
        usage ())
    names;
  (match !json_file with
  | Some path ->
    Report.json_add "host" (Report.host_json ~scale:scale_name);
    Report.json_out ~path;
    Printf.printf "\nwrote machine-readable results to %s\n" path
  | None -> ());
  Printf.printf "\ntotal elapsed: %s\n" (Report.fmt_time (Sh_net.Clock.now () -. t0))
