(* lib/persist + engine checkpoints: codec primitives, frame integrity,
   round-trip equivalence ("restore == never crashed", bit-identical), a
   pinned checkpoint image, and the fault-injection matrix proving every
   partial or mangled write is either cleanly recovered or loudly rejected
   with a typed error. *)

module Crc32 = Sh_persist.Crc32
module Codec = Sh_persist.Codec
module Frame = Sh_persist.Frame
module Fault = Sh_persist.Fault
module P = Sh_persist.Persist
module FW = Stream_histogram.Fixed_window
module Params = Stream_histogram.Params
module Pool = Sh_par.Domain_pool
module SE = Sh_par.Shard_engine
module H = Sh_histogram.Histogram

let domain_counts =
  match Sys.getenv_opt "SH_TEST_DOMAINS" with
  | None | Some "" -> [ 1; 2; 4 ]
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

let bits = Int64.bits_of_float

(* Restores must fail with a *typed* error — anything else (success, or a
   stray Failure/Invalid_argument escaping a decoder) is a bug. *)
let expect_rejected what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt/Version_mismatch, restore succeeded" what
  | exception P.Corrupt _ -> ()
  | exception P.Version_mismatch _ -> ()

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt, restore succeeded" what
  | exception P.Corrupt _ -> ()

let expect_injected what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Fault.Injected" what
  | exception Fault.Injected _ -> ()

let with_temp_file f =
  let file = Filename.temp_file "shist_persist" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      try Sys.remove (file ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f file)

(* ---------------------------------------------------------------- crc32 *)

let test_crc32_vector () =
  Alcotest.(check int) "reference vector" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "sub slice agrees"
    (Crc32.string "123456789")
    (Crc32.sub "xx123456789yy" ~pos:2 ~len:9);
  Alcotest.(check bool) "one flipped byte changes the sum" true
    (Crc32.string "123456788" <> Crc32.string "123456789")

(* ---------------------------------------------------------------- codec *)

let test_varint_round_trip () =
  let cases =
    [ 0; 1; 127; 128; 255; 300; 16383; 16384; 1 lsl 20; (1 lsl 30) + 7; max_int / 2 ]
  in
  let buf = Buffer.create 64 in
  List.iter (Codec.put_varint buf) cases;
  let r = Codec.of_string (Buffer.contents buf) in
  List.iter
    (fun v -> Alcotest.(check int) (Printf.sprintf "varint %d" v) v (Codec.get_varint r))
    cases;
  Alcotest.(check bool) "consumed exactly" true (Codec.at_end r);
  Alcotest.check_raises "negative rejected at write time"
    (Invalid_argument "Codec.put_varint: negative") (fun () ->
      Codec.put_varint (Buffer.create 4) (-1))

let test_varint_malformed () =
  (* truncated: a continuation byte with nothing after it *)
  expect_rejected "truncated varint" (fun () ->
      Codec.get_varint (Codec.of_string "\x80"));
  (* overlong: ten continuation bytes overflow the 62-bit budget *)
  expect_rejected "overlong varint" (fun () ->
      Codec.get_varint (Codec.of_string (String.make 10 '\xff')))

let test_float_bit_identical () =
  let specials =
    [ 0.0; -0.0; 1.5; -1.5; Float.min_float; Float.max_float; 4.9e-324 (* subnormal *); 1e308 ]
  in
  let buf = Buffer.create 64 in
  List.iter (Codec.put_float buf) specials;
  let r = Codec.of_string (Buffer.contents buf) in
  List.iter
    (fun v ->
      Alcotest.(check int64)
        (Printf.sprintf "float %h bit-identical" v)
        (bits v)
        (bits (Codec.get_float r)))
    specials

let test_scalar_round_trips () =
  let buf = Buffer.create 64 in
  Codec.put_u8 buf 0xAB;
  Codec.put_u32 buf 0xDEADBEEF;
  Codec.put_bool buf true;
  Codec.put_bool buf false;
  Codec.put_string buf "hello";
  Codec.put_string buf "";
  Codec.put_float_array buf [| 1.0; -2.5; 0.0 |];
  Codec.put_float_array buf [||];
  let r = Codec.of_string (Buffer.contents buf) in
  Alcotest.(check int) "u8" 0xAB (Codec.get_u8 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.get_u32 r);
  Alcotest.(check bool) "true" true (Codec.get_bool r);
  Alcotest.(check bool) "false" false (Codec.get_bool r);
  Alcotest.(check string) "string" "hello" (Codec.get_string r);
  Alcotest.(check string) "empty string" "" (Codec.get_string r);
  Alcotest.(check (array (float 0.0))) "float array" [| 1.0; -2.5; 0.0 |]
    (Codec.get_float_array r);
  Alcotest.(check (array (float 0.0))) "empty float array" [||] (Codec.get_float_array r);
  Codec.expect_end r ~what:"scalar round trip"

let test_codec_guards () =
  expect_rejected "bad bool byte" (fun () -> Codec.get_bool (Codec.of_string "\x07"));
  expect_rejected "truncated float" (fun () -> Codec.get_float (Codec.of_string "\x00\x00"));
  (* a float-array length far beyond the remaining bytes must be rejected
     before any allocation-sized-by-attacker happens *)
  let buf = Buffer.create 8 in
  Codec.put_varint buf 1_000_000;
  Buffer.add_string buf "\x00\x00";
  expect_rejected "float array length beyond input" (fun () ->
      Codec.get_float_array (Codec.of_string (Buffer.contents buf)));
  expect_rejected "string length beyond input" (fun () ->
      Codec.get_string (Codec.of_string "\x05ab"));
  expect_rejected "trailing bytes" (fun () ->
      Codec.expect_end (Codec.of_string "x") ~what:"test")

(* ---------------------------------------------------------------- frame *)

let test_header_round_trip () =
  let r = Codec.of_string (Frame.header_string ()) in
  Frame.read_header r;
  Alcotest.(check bool) "header consumed" true (Codec.at_end r)

let test_header_bad_magic () =
  expect_rejected "bad magic" (fun () ->
      Frame.read_header (Codec.of_string "NOPE\x01"));
  expect_rejected "empty input" (fun () -> Frame.read_header (Codec.of_string ""))

let test_header_version_mismatch () =
  let buf = Buffer.create 8 in
  Buffer.add_string buf Frame.magic;
  Codec.put_varint buf (Frame.format_version + 1);
  match Frame.read_header (Codec.of_string (Buffer.contents buf)) with
  | () -> Alcotest.fail "foreign version accepted"
  | exception Codec.Version_mismatch { found; expected } ->
    Alcotest.(check int) "found" (Frame.format_version + 1) found;
    Alcotest.(check int) "expected" Frame.format_version expected

let test_frame_round_trip () =
  let payloads = [ "alpha"; ""; String.make 300 'z' ] in
  let buf = Buffer.create 64 in
  List.iter (Frame.add_frame buf) payloads;
  let r = Codec.of_string (Buffer.contents buf) in
  List.iter
    (fun p ->
      let fr = Frame.read_frame r in
      Alcotest.(check string) "payload" p (Codec.get_raw fr (String.length p));
      Codec.expect_end fr ~what:"payload")
    payloads;
  Alcotest.(check bool) "no frame left" false (Frame.has_frame r)

(* The in-place writer the serve loop frames replies with writes exactly
   [add_frame]'s bytes, at every length-prefix width, at an offset, and
   [scan_bytes] reads them back. *)
let test_frame_blit_matches_add () =
  List.iter
    (fun n ->
      let payload = Buffer.create n in
      Buffer.add_string payload (String.init n (fun i -> Char.chr (i land 0xff)));
      let expect = Frame.frame_string (Buffer.contents payload) in
      let size = Frame.framed_size n in
      Alcotest.(check int) (Printf.sprintf "framed size of %d" n) (String.length expect) size;
      let dst = Bytes.make (size + 3) '#' in
      Alcotest.(check int) "end offset" (3 + size) (Frame.blit_frame payload dst 3);
      Alcotest.(check string) (Printf.sprintf "frame of %d bytes" n) expect (Bytes.sub_string dst 3 size);
      match Frame.scan_bytes ~max_len:n dst ~pos:3 ~len:size with
      | Frame.Frame { payload = r; consumed } ->
        Alcotest.(check int) "consumed" size consumed;
        Alcotest.(check string) "payload" (Buffer.contents payload) (Codec.get_raw r n)
      | Frame.Incomplete -> Alcotest.fail "scan_bytes: Incomplete")
    [ 0; 1; 127; 128; 300; 16_383; 16_384; 70_000 ]

let test_frame_damage_detected () =
  let img = Frame.frame_string "payload bytes here" in
  (* flip one payload byte: CRC must catch it *)
  let bad = Bytes.of_string img in
  Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 0x10));
  expect_rejected "payload bit flip" (fun () ->
      Frame.read_frame (Codec.of_string (Bytes.to_string bad)));
  (* truncations at every byte of a short frame *)
  for k = 0 to String.length img - 1 do
    expect_rejected
      (Printf.sprintf "truncated at %d" k)
      (fun () -> Frame.read_frame (Codec.of_string (String.sub img 0 k)))
  done

(* --------------------------------------- shard payload round trips (qcheck) *)

let policies = [ Params.Lazy; Params.Eager; Params.Every 3 ]

(* Structural equality of two fixed windows, checked *before* any query
   (queries refresh, which resets the Every-k arrival cadence). *)
let fw_state_equal a b =
  FW.length a = FW.length b
  && FW.window a = FW.window b
  && FW.buckets a = FW.buckets b
  && bits (FW.epsilon a) = bits (FW.epsilon b)
  && FW.refresh_policy a = FW.refresh_policy b
  && FW.pending_pushes a = FW.pending_pushes b
  && FW.memoisation a = FW.memoisation b

let fw_answers_equal a b =
  FW.length a = FW.length b
  && (FW.length a = 0
     || bits (FW.current_error a) = bits (FW.current_error b)
        && H.to_series (FW.current_histogram a) = H.to_series (FW.current_histogram b))

(* One shard's payload, through the same calls [Shard_engine] makes per
   shard frame. *)
let fw_encode fw =
  let buf = Buffer.create 256 in
  FW.encode buf fw;
  Buffer.contents buf

let fw_decode s =
  let r = Codec.of_string s in
  let fw = FW.decode r in
  Codec.expect_end r ~what:"shard frame";
  fw

let prop_fixed_window_round_trip =
  Helpers.qcheck_case ~count:60 ~name:"Fixed_window: restore (snapshot t) == t, bit-identical"
    QCheck2.Gen.(
      let* data = Helpers.gen_data ~min_len:0 ~max_len:120 ~vmax:500 () in
      let* window = int_range 2 40 in
      let* buckets = int_range 2 4 in
      let* policy = oneofl policies in
      let* memo = bool in
      let* cut = int_range 0 (Array.length data) in
      return (data, window, buckets, policy, memo, cut))
    (fun (data, window, buckets, policy, memo, cut) ->
      let fw = FW.create ~window ~buckets ~epsilon:0.1 in
      FW.set_refresh_policy fw policy;
      FW.set_memoisation fw memo;
      let prefix = Array.sub data 0 cut and suffix = Array.sub data cut (Array.length data - cut) in
      Array.iter (FW.push fw) prefix;
      let s = fw_encode fw in
      let r = fw_decode s in
      (* the payload is a pure function of the state, so a restored
         summary must re-encode to the very same bytes *)
      fw_state_equal fw r
      && fw_encode r = s
      && fw_answers_equal fw r
      && begin
           (* "equivalent to never having crashed": the restored summary
              must track the original through arbitrary further arrivals *)
           Array.iter
             (fun v ->
               FW.push fw v;
               FW.push r v)
             suffix;
           fw_answers_equal fw r
         end)

(* One summary to a file and back, through the framing and atomic write
   that [Shard_engine.checkpoint] uses for each shard. *)
let test_save_load_file () =
  with_temp_file @@ fun file ->
  let fw = FW.create ~window:16 ~buckets:3 ~epsilon:0.2 in
  for i = 1 to 50 do
    FW.push fw (Float.of_int ((i * 13) mod 97))
  done;
  P.write_file_atomic ~path:file ~header:(Frame.header_string ())
    ~frames:[ Frame.frame_string (fw_encode fw) ];
  let r = Codec.of_string (P.read_file file) in
  Frame.read_header r;
  let fr = Frame.read_frame r in
  let restored = FW.decode fr in
  Codec.expect_end fr ~what:"shard frame";
  Alcotest.(check bool) "no frame left" false (Frame.has_frame r);
  Alcotest.(check bool) "state equal" true (fw_state_equal fw restored);
  Alcotest.(check bool) "answers equal" true (fw_answers_equal fw restored);
  Alcotest.(check bool) "no temp residue" false (Sys.file_exists (file ^ ".tmp"))

(* -------------------------------------------- shard-engine checkpointing *)

let mk_batch ~shards ~n salt =
  Array.init n (fun i -> ((i * 7 + salt) mod shards, Float.of_int (((i + salt) * 13) mod 97)))

(* Callers must quiesce both engines ([SE.refresh_all]) before comparing:
   [Pinned] answers come from the snapshot published at the last refresh
   completion, so an engine with trailing unrefreshed pushes would compare
   stale view answers against the other side's self-refreshing live
   answers.  Quiescing cannot happen here because it resets the persisted
   arrival-cadence counter and would break byte-identity checks that
   callers interleave with comparisons. *)
let engines_equal a b =
  SE.shard_count a = SE.shard_count b
  && SE.total_points a = SE.total_points b
  && SE.batches a = SE.batches b
  &&
  let ok = ref true in
  for k = 0 to SE.shard_count a - 1 do
    let read eng f = SE.with_view eng ~key:k ~f in
    let n = read a FW.View.length in
    if n <> read b FW.View.length then ok := false
    else if n > 0 then begin
      if bits (read a FW.View.current_error) <> bits (read b FW.View.current_error) then
        ok := false;
      if H.to_series (read a FW.View.current_histogram)
         <> H.to_series (read b FW.View.current_histogram)
      then ok := false
    end
  done;
  !ok

let test_engine_checkpoint_restore () =
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "%d domains" domains in
      with_temp_file @@ fun file ->
      Pool.with_pool ~domains @@ fun pool ->
      let shards = 5 in
      let eng = SE.create ~pool ~shards ~window:24 ~buckets:3 ~epsilon:0.2 in
      SE.set_refresh_policy eng (Params.Every 3);
      for b = 0 to 5 do
        Helpers.ingest_pairs eng (mk_batch ~shards ~n:40 b)
      done;
      (* quiesce so both sides' read planes agree (see [engines_equal]) *)
      SE.refresh_all eng;
      SE.checkpoint eng ~file;
      Alcotest.(check bool)
        (Printf.sprintf "no temp residue, %s" tag)
        false (Sys.file_exists (file ^ ".tmp"));
      let restored = SE.restore_from ~pool ~file in
      Alcotest.(check bool)
        (Printf.sprintf "restored == original, %s" tag)
        true (engines_equal eng restored);
      (* checkpoint of the restored engine must be byte-identical *)
      with_temp_file (fun file2 ->
          SE.checkpoint restored ~file:file2;
          Alcotest.(check string)
            (Printf.sprintf "re-checkpoint bytes identical, %s" tag)
            (P.read_file file) (P.read_file file2));
      (* and it must track the original through further ingest *)
      let more = mk_batch ~shards ~n:60 99 in
      Helpers.ingest_pairs eng more;
      Helpers.ingest_pairs restored more;
      SE.refresh_all eng;
      SE.refresh_all restored;
      Alcotest.(check bool)
        (Printf.sprintf "tracks original after restart, %s" tag)
        true (engines_equal eng restored))
    domain_counts

(* A checkpoint image assembled by hand: header, an engine meta frame, then
   the given shard payloads — each frame CRC-valid, so only the decoder's
   own checks stand between these bytes and a restored engine. *)
let write_checkpoint_image ~file ~shards payloads =
  let meta = Buffer.create 16 in
  Codec.put_u8 meta (Char.code 'S');
  List.iter (Codec.put_varint meta) [ shards; 0; 0; 0 ];
  P.write_file_atomic ~path:file ~header:(Frame.header_string ())
    ~frames:(List.map Frame.frame_string (Buffer.contents meta :: payloads))

let test_cross_type_restore_rejected () =
  Pool.with_pool ~domains:1 @@ fun pool ->
  with_temp_file @@ fun file ->
  let fw = FW.create ~window:8 ~buckets:2 ~epsilon:0.2 in
  FW.push fw 1.0;
  (* well-formed frames, but the first one is a bare fixed-window payload
     where the engine meta frame belongs *)
  P.write_file_atomic ~path:file ~header:(Frame.header_string ())
    ~frames:[ Frame.frame_string (fw_encode fw) ];
  expect_corrupt "bare 'F' frame fed to engine restore" (fun () ->
      SE.restore_from ~pool ~file);
  P.write_file_atomic ~path:file ~header:"" ~frames:[];
  expect_corrupt "empty file" (fun () -> SE.restore_from ~pool ~file)

let test_mixed_geometry_rejected () =
  Pool.with_pool ~domains:1 @@ fun pool ->
  with_temp_file @@ fun file ->
  let shard ~window ~buckets ~epsilon =
    let fw = FW.create ~window ~buckets ~epsilon in
    for i = 1 to 20 do
      FW.push fw (Float.of_int ((i * 13) mod 97))
    done;
    fw_encode fw
  in
  let base = shard ~window:16 ~buckets:3 ~epsilon:0.2 in
  write_checkpoint_image ~file ~shards:2 [ base; base ];
  Alcotest.(check int) "matching shards restore" 2
    (SE.shard_count (SE.restore_from ~pool ~file));
  List.iter
    (fun (what, other) ->
      write_checkpoint_image ~file ~shards:2 [ base; other ];
      expect_corrupt what (fun () -> SE.restore_from ~pool ~file))
    [
      ("shards differ in window", shard ~window:24 ~buckets:3 ~epsilon:0.2);
      ("shards differ in buckets", shard ~window:16 ~buckets:4 ~epsilon:0.2);
      ("shards differ in epsilon", shard ~window:16 ~buckets:3 ~epsilon:0.3);
    ]

(* Every other checkpoint test round-trips within one build, so a layout
   change made without a [Frame.format_version] bump would pass them all.
   This pins the bytes of one fixed engine: any change to them must come
   with a version bump and a new pin. *)
let test_checkpoint_format_pinned () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains @@ fun pool ->
      with_temp_file @@ fun file ->
      let shards = 2 in
      let eng = SE.create ~pool ~shards ~window:16 ~buckets:3 ~epsilon:0.2 in
      SE.set_refresh_policy eng (Params.Every 3);
      Helpers.ingest_pairs eng (mk_batch ~shards ~n:41 5);
      SE.checkpoint eng ~file;
      let image = P.read_file file in
      let tag = Printf.sprintf "%d domains" domains in
      Alcotest.(check int) ("checkpoint length, " ^ tag) 629 (String.length image);
      Alcotest.(check int) ("checkpoint CRC-32, " ^ tag) 0x98965458 (Crc32.string image))
    domain_counts

(* -------------------------------------------------- fault-injection matrix *)

(* A fixed scenario: checkpoint A is on disk; the engine advances; a fault
   fires during (or after) the next checkpoint.  Every crash injection must
   leave checkpoint A restorable and equal to the state it captured; every
   mangling injection must make restore raise a typed error. *)

let engine_scenario pool =
  let shards = 4 in
  (* Pinned: every faulted checkpoint also exercises the ring-quiescence
     path that precedes frame encoding *)
  let eng =
    SE.create ~pool ~shards ~window:16 ~buckets:3 ~epsilon:0.2
  in
  for b = 0 to 3 do
    Helpers.ingest_pairs eng (mk_batch ~shards ~n:30 b)
  done;
  eng

let test_fault_crash_matrix () =
  Pool.with_pool ~domains:2 @@ fun pool ->
  with_temp_file @@ fun file ->
  let eng = engine_scenario pool in
  SE.checkpoint eng ~file;
  let golden = P.read_file file in
  let shards = SE.shard_count eng in
  (* frames in an engine checkpoint: 1 meta + one per shard; probe every
     crash point, including "crash between last write and rename" *)
  let crash_points =
    Fault.Crash_before_rename
    :: List.init (shards + 3) (fun j -> Fault.Crash_after_frames j)
  in
  List.iteri
    (fun i inj ->
      (* advance the live engine so the aborted checkpoint would have
         written different bytes than checkpoint A *)
      Helpers.ingest_pairs eng (mk_batch ~shards ~n:25 (1000 + i));
      let fired_before = Fault.fired_count () in
      Fault.arm inj;
      expect_injected "crashing checkpoint" (fun () -> SE.checkpoint eng ~file);
      Alcotest.(check int) "injection consumed" (fired_before + 1) (Fault.fired_count ());
      Alcotest.(check (option reject)) "slot disarmed" None (Fault.armed ());
      (* the published file is byte-for-byte checkpoint A... *)
      Alcotest.(check string)
        (Printf.sprintf "crash %d left checkpoint A untouched" i)
        golden (P.read_file file);
      (* ...and still restores to a working engine *)
      let r = SE.restore_from ~pool ~file in
      Alcotest.(check int) "restored shard count" shards (SE.shard_count r))
    crash_points;
  (* after all that, an unfaulted checkpoint still works *)
  SE.refresh_all eng;
  SE.checkpoint eng ~file;
  Alcotest.(check bool) "clean checkpoint after faults" true
    (engines_equal eng (SE.restore_from ~pool ~file))

let test_fault_mangling_matrix () =
  Pool.with_pool ~domains:2 @@ fun pool ->
  with_temp_file @@ fun file ->
  let eng = engine_scenario pool in
  SE.checkpoint eng ~file;
  let len = String.length (P.read_file file) in
  (* truncation points: header, meta frame, shard frames, final CRC *)
  let cuts =
    List.sort_uniq compare
      [ 0; 1; 3; 4; 5; len / 4; len / 2; (3 * len) / 4; len - 5; len - 1 ]
  in
  List.iter
    (fun k ->
      if k >= 0 && k < len then begin
        Fault.arm (Fault.Truncate_at k);
        (* mangling injections return normally: the damage is the published
           image, and it must surface at restore time *)
        SE.checkpoint eng ~file;
        let rej_before = Helpers.exposed_count "persist_corrupt_rejections_total" in
        expect_rejected
          (Printf.sprintf "restore of file truncated at %d" k)
          (fun () -> SE.restore_from ~pool ~file);
        Alcotest.(check bool)
          (Printf.sprintf "rejection counted (truncate %d)" k)
          true
          (Helpers.exposed_count "persist_corrupt_rejections_total" > rej_before)
      end)
    cuts;
  (* bit flips: magic, version, frame length, payload, trailing CRC *)
  let flips =
    List.sort_uniq compare
      [ 0; 8 * 4; (8 * 5) + 2; 8 * (len / 3); 8 * (len / 2); (8 * len) - 1 ]
  in
  List.iter
    (fun i ->
      if i >= 0 && i < 8 * len then begin
        Fault.arm (Fault.Flip_bit i);
        SE.checkpoint eng ~file;
        expect_rejected
          (Printf.sprintf "restore of file with bit %d flipped" i)
          (fun () -> SE.restore_from ~pool ~file)
      end)
    flips;
  (* recovery: the next clean checkpoint heals the damaged file *)
  SE.refresh_all eng;
  SE.checkpoint eng ~file;
  Alcotest.(check bool) "healed by clean checkpoint" true
    (engines_equal eng (SE.restore_from ~pool ~file))

let test_fault_disarm () =
  Fault.arm (Fault.Truncate_at 3);
  Fault.disarm ();
  Alcotest.(check (option reject)) "disarmed" None (Fault.armed ());
  Pool.with_pool ~domains:1 @@ fun pool ->
  with_temp_file @@ fun file ->
  let eng = SE.create ~pool ~shards:2 ~window:4 ~buckets:2 ~epsilon:0.5 in
  Helpers.ingest_pairs eng [| (0, 1.0) |];
  SE.checkpoint eng ~file;
  Alcotest.(check int) "write unaffected after disarm" 1
    (SE.total_points (SE.restore_from ~pool ~file))

let () =
  Alcotest.run "sh_persist"
    [
      ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc32_vector ]);
      ( "codec",
        [
          Alcotest.test_case "varint round trip" `Quick test_varint_round_trip;
          Alcotest.test_case "varint malformed" `Quick test_varint_malformed;
          Alcotest.test_case "float bit-identical" `Quick test_float_bit_identical;
          Alcotest.test_case "scalar round trips" `Quick test_scalar_round_trips;
          Alcotest.test_case "decode guards" `Quick test_codec_guards;
        ] );
      ( "frame",
        [
          Alcotest.test_case "header round trip" `Quick test_header_round_trip;
          Alcotest.test_case "bad magic" `Quick test_header_bad_magic;
          Alcotest.test_case "version mismatch" `Quick test_header_version_mismatch;
          Alcotest.test_case "frame round trip" `Quick test_frame_round_trip;
          Alcotest.test_case "damage detected" `Quick test_frame_damage_detected;
          Alcotest.test_case "in-place frame writer" `Quick test_frame_blit_matches_add;
        ] );
      ( "round_trip",
        [
          prop_fixed_window_round_trip;
          Alcotest.test_case "cross-type rejected" `Quick test_cross_type_restore_rejected;
          Alcotest.test_case "save/load file" `Quick test_save_load_file;
        ] );
      ( "shard_engine",
        [
          Alcotest.test_case "checkpoint/restore at 1,2,4 domains"
            `Quick test_engine_checkpoint_restore;
          Alcotest.test_case "mixed shard geometry rejected" `Quick
            test_mixed_geometry_rejected;
          Alcotest.test_case "checkpoint format pinned" `Quick
            test_checkpoint_format_pinned;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash matrix" `Quick test_fault_crash_matrix;
          Alcotest.test_case "mangling matrix" `Quick test_fault_mangling_matrix;
          Alcotest.test_case "disarm" `Quick test_fault_disarm;
        ] );
    ]
