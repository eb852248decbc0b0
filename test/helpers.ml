(* Shared test utilities: float comparison, QCheck generators, and naive
   reference implementations used as oracles. *)

let close ?(eps = 1e-9) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_close ?(eps = 1e-9) msg expected actual =
  if not (close ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let qcheck_case ?(count = 100) ~name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* Data arrays: small integer-valued floats, as the paper's bounded-integer
   stream model assumes. *)
let gen_data ?(min_len = 1) ?(max_len = 64) ?(vmax = 100) () =
  QCheck2.Gen.(
    let* len = int_range min_len max_len in
    let* ints = array_size (return len) (int_range 0 vmax) in
    return (Array.map Float.of_int ints))

(* Naive oracles. *)
let naive_range_sum data lo hi =
  let acc = ref 0.0 in
  for i = lo to hi do
    acc := !acc +. data.(i - 1)
  done;
  !acc

let naive_sqerror data lo hi =
  if lo > hi then 0.0 else Sh_util.Stats.sse_about_mean data (lo - 1) (hi - 1)

(* Exhaustive optimal histogram error for tiny inputs: enumerate every way
   to choose b-1 boundaries among n-1 gaps. *)
let brute_force_optimal_error data buckets =
  let n = Array.length data in
  let b = min buckets n in
  let best = ref infinity in
  (* boundaries are right endpoints 1 <= e1 < e2 < ... < e_{b-1} < n *)
  let rec go start remaining prev_end acc_err =
    if remaining = 0 then begin
      let total = acc_err +. naive_sqerror data (prev_end + 1) n in
      if total < !best then best := total
    end
    else
      for e = start to n - remaining do
        go (e + 1) (remaining - 1) e (acc_err +. naive_sqerror data (prev_end + 1) e)
      done
  in
  go 1 (b - 1) 0 0.0;
  !best

let rng ~seed = Sh_util.Rng.create ~seed

(* Read the exposition the way a scraper does: the families its TYPE
   lines name, and the sample of one counter family (0 while it is not
   exposed). *)
let exposition () = String.split_on_char '\n' (Sh_obs.Obs.render ())

let exposed_families () =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "#"; "TYPE"; family; _ ] -> Some family
      | _ -> None)
    (exposition ())

let exposed_count family =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ f; v ] when f = family -> int_of_string_opt v
      | _ -> None)
    (exposition ())
  |> Option.value ~default:0

(* Ingest [(key, value)] arrivals through the engine's column entry, the
   one the serve loop calls. *)
let ingest_pairs eng pairs =
  Sh_par.Shard_engine.ingest_columns eng ~keys:(Array.map fst pairs)
    ~values:(Array.map snd pairs) ~len:(Array.length pairs)

(* A wire peer on a fresh Unix socket, on its own domain: it completes
   the handshake, reads one request per element of [replies] and answers
   it with that response, then stops reading.  It closes the connection
   [linger] seconds after accepting it, or as soon as [f] returns. *)
let with_stalled_peer ?(replies = []) ~linger f =
  let module Wire = Sh_net.Wire in
  let path = Filename.temp_file "shist_stalled" ".sock" in
  Unix.unlink path;
  let addr = Sh_net.Addr.Unix_sock path in
  let listener = Sh_net.Server.listen addr in
  let released = Atomic.make false in
  let peer =
    Domain.spawn (fun () ->
        match Unix.select [ listener ] [] [] linger with
        | [], _, _ -> ()
        | _ ->
          let fd, _ = Unix.accept listener in
          Unix.clear_nonblock fd;
          let deadline = Sh_net.Clock.now () +. linger in
          let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
          let read_more () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith "stalled peer: EOF before its requests"
            | n -> Buffer.add_subbytes buf chunk 0 n
          in
          let write s = ignore (Unix.write_substring fd s 0 (String.length s) : int) in
          while Buffer.length buf < Wire.preamble_len do
            read_more ()
          done;
          write Wire.preamble;
          let pos = ref Wire.preamble_len in
          List.iter
            (fun reply ->
              let rec request () =
                let s = Buffer.contents buf in
                match Sh_persist.Frame.scan_frame s ~pos:!pos ~len:(String.length s - !pos) with
                | Sh_persist.Frame.Frame { consumed; _ } -> pos := !pos + consumed
                | Sh_persist.Frame.Incomplete ->
                  read_more ();
                  request ()
              in
              request ();
              write (Wire.encode_response reply))
            replies;
          while (not (Atomic.get released)) && Sh_net.Clock.now () < deadline do
            Unix.sleepf 0.01
          done;
          Unix.close fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set released true;
      Domain.join peer;
      Unix.close listener;
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () -> f addr)
