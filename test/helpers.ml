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
