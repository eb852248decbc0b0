module SE = Sh_par.Shard_engine
module FW = Stream_histogram.Fixed_window
module EW = Stream_histogram.Exact_window
module Lat = Sh_obs.Latency
module Clock = Sh_net.Clock

type t = {
  eng : SE.t;
  file : string;
  oc : out_channel;
  restored : bool;
  window : int;
  exact : EW.t array;
  mutable samples : int;
  mutable last_t : float;
  mutable last_pts : int;
}

let create eng ~file ~restored ~window ~buckets =
  {
    eng;
    file;
    oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 file;
    restored;
    window;
    exact = Array.init (SE.shard_count eng) (fun _ -> EW.create ~window ~buckets);
    samples = 0;
    last_t = Clock.now ();
    last_pts = SE.total_points eng;
  }

let observe t ~keys ~values ~len =
  for i = 0 to len - 1 do
    EW.push t.exact.(keys.(i)) values.(i)
  done

let sample t =
  let eng = t.eng in
  let now = Clock.now () in
  let pts = SE.total_points eng in
  let d_pts = pts - t.last_pts in
  let ns_per_point = if d_pts > 0 then (now -. t.last_t) *. 1e9 /. Float.of_int d_pts else 0.0 in
  t.last_t <- now;
  t.last_pts <- pts;
  let spot_key = t.samples mod Array.length t.exact in
  t.samples <- t.samples + 1;
  let ew = t.exact.(spot_key) in
  let spot_n = EW.length ew in
  let spot_valid = spot_n > 0 && ((not t.restored) || spot_n = t.window) in
  let sse, sse_opt =
    if not spot_valid then (0.0, 0.0)
    else begin
      (* the live summary, not the published view: the baseline mirrors
         the live window exactly, so the SSE spot check must read through
         [with_key] or a stale [Pinned] view would be scored against data
         it has not seen yet *)
      let h = SE.with_key eng ~key:spot_key ~f:FW.current_histogram in
      (EW.sse ew h, EW.sse ew (EW.current_histogram ew))
    end
  in
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "{\"batches\":%d,\"items\":%d,\"ns_per_point\":%.6g,\"spot_key\":%d,\"spot_n\":%d,\
     \"spot_valid\":%b,\"sse\":%.9g,\"sse_opt\":%.9g,\"resident_words\":%d,\
     \"refresh_steals\":%d,\"latency\":{"
    (SE.batches eng) pts ns_per_point spot_key spot_n spot_valid sse sse_opt heap_words
    (SE.refresh_steals eng);
  Sh_obs.Registry.snapshot ()
  |> List.filter_map (function Sh_obs.Obs.Tracker l when Lat.count l > 0 -> Some l | _ -> None)
  |> List.iteri (fun i l ->
         if i > 0 then Buffer.add_char buf ',';
         Printf.bprintf buf "\"%s\":{\"count\":%d" (Lat.name l) (Lat.count l);
         List.iter
           (fun phi ->
             Option.iter
               (Printf.bprintf buf ",\"%s\":%.9g" (Sh_obs.Sink.phi_label phi))
               (Lat.quantile l phi))
           Lat.percentiles;
         Buffer.add_char buf '}');
  Buffer.add_string buf "}}\n";
  output_string t.oc (Buffer.contents buf);
  flush t.oc

let close t =
  sample t;
  close_out t.oc;
  Printf.printf "record: %d sample(s) appended to %s\n" t.samples t.file
