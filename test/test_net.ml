(* lib/net: wire codec round trips, the incremental frame scanner against
   truncation and corruption, and a live serve loop driven over real Unix
   sockets — equivalence with the in-process engine, the no-drop
   backpressure contract, malformed-input rejection (fuzzed), slow-loris
   reaping, and checkpoint/restore across a server generation.  The
   transport cases run twice: against a leaf, and against an aggregating
   root in front of one leaf. *)

module Addr = Sh_net.Addr
module Wire = Sh_net.Wire
module Conn = Sh_net.Conn
module Server = Sh_net.Server
module Client = Sh_net.Client
module Aggregator = Sh_agg.Aggregator
module Codec = Sh_persist.Codec
module Frame = Sh_persist.Frame
module Pool = Sh_par.Domain_pool
module SE = Sh_par.Shard_engine
module FW = Stream_histogram.Fixed_window
module Qop = Stream_histogram.Query_op
module Params = Stream_histogram.Params
module Rng = Sh_util.Rng

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Codec.Corrupt" what
  | exception Codec.Corrupt _ -> ()

(* ----------------------------------------------------------------- addr *)

let test_addr_parse () =
  let ok s exp =
    match Addr.of_string s with
    | Ok a -> Alcotest.(check string) s exp (Addr.to_string a)
    | Error e -> Alcotest.failf "%s: unexpected parse error %s" s e
  in
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "tcp:localhost:8080" "tcp:localhost:8080";
  ok "127.0.0.1:9" "tcp:127.0.0.1:9";
  ok ":8080" "tcp:127.0.0.1:8080";
  List.iter
    (fun s ->
      match Addr.of_string s with
      | Ok a -> Alcotest.failf "%S: expected parse error, got %s" s (Addr.to_string a)
      | Error _ -> ())
    [ "unix:"; "nonsense"; "host:0"; "host:notaport"; "host:70000"; "tcp:host" ]

(* ----------------------------------------------------------- wire codec *)

(* Encode a request/response, push the full frame through the incremental
   scanner, decode, compare. *)
let scan_payload s =
  match Frame.scan_frame s ~pos:0 ~len:(String.length s) with
  | Frame.Incomplete -> Alcotest.fail "scan: complete frame read as Incomplete"
  | Frame.Frame { payload; consumed } ->
    Alcotest.(check int) "whole frame consumed" (String.length s) consumed;
    payload

let req_round_trip r = Wire.decode_request (scan_payload (Wire.encode_request r))
let resp_round_trip r = Wire.decode_response (scan_payload (Wire.encode_response r))

let test_wire_request_round_trips () =
  let reqs =
    [
      Wire.Ingest [||];
      Wire.Ingest [| (0, [| 1.5; -2.25; 0.0 |]); (7, [||]); (0, [| 3.0 |]) |];
      Wire.Query
        [|
          (Qop.Key 0, Qop.Current_error);
          (Qop.Key 3, Qop.Window_length);
          (Qop.Key 1, Qop.Herror { k = 4; x = 17 });
          (Qop.Key 2, Qop.Range_sum { lo = 3; hi = 9 });
          (Qop.Key 5, Qop.Point_estimate { index = 11 });
          (Qop.Global, Qop.Range_sum { lo = 1; hi = 64 });
          (Qop.Global, Qop.Window_length);
        |];
      Wire.Stats;
      Wire.Metrics;
      Wire.Checkpoint;
      Wire.Ping;
      Wire.Shutdown;
    ]
  in
  List.iter (fun r -> Alcotest.(check bool) "request round trip" true (req_round_trip r = r)) reqs

let test_wire_response_round_trips () =
  let stats =
    {
      Wire.shards = 16;
      window = 1024;
      buckets = 8;
      total_points = 123456;
      batches = 99;
      queries = 7;
      backpressure_waits = 3;
      snapshots_published = 42;
    }
  in
  let resps =
    [
      Wire.Ack 0;
      Wire.Ack 65536;
      Wire.Answers [||];
      Wire.Answers [| 0.0; -1.5; 3.25e9 |];
      Wire.Answers_partial { answers = [| 1.0; 0.0 |]; leaves_missing = 1 };
      Wire.Stats_reply stats;
      Wire.Metrics_reply "engine_points 12\n";
      Wire.Checkpointed "/tmp/x.ckpt";
      Wire.Pong;
      Wire.Shutting_down;
      Wire.Error_reply "bad key";
    ]
  in
  List.iter
    (fun r -> Alcotest.(check bool) "response round trip" true (resp_round_trip r = r))
    resps

let test_wire_rejects_garbage () =
  (* non-finite ingest values must die at decode time, before any engine
     sees them *)
  expect_corrupt "nan ingest" (fun () ->
      req_round_trip (Wire.Ingest [| (0, [| Float.nan |]) |]));
  expect_corrupt "inf ingest" (fun () ->
      req_round_trip (Wire.Ingest [| (1, [| Float.infinity |]) |]));
  (* unknown tags, both directions *)
  expect_corrupt "bad request tag" (fun () ->
      Wire.decode_request (scan_payload (Frame.frame_string "\x7f")));
  expect_corrupt "bad response tag" (fun () ->
      Wire.decode_response (scan_payload (Frame.frame_string "\x80")));
  (* trailing bytes after a complete message *)
  expect_corrupt "trailing bytes" (fun () ->
      Wire.decode_request (scan_payload (Frame.frame_string "\x06\x00")));
  (* a group count that cannot fit the remaining payload *)
  let buf = Buffer.create 8 in
  Codec.put_u8 buf 0x01;
  Codec.put_varint buf 1_000_000;
  expect_corrupt "oversized group count" (fun () ->
      Wire.decode_request (scan_payload (Frame.frame_string (Buffer.contents buf))))

(* The serve loop's decoder: a rejected ingest payload leaves the batch
   exactly as it was, whether it fails late (a non-finite value in its
   second group, trailing bytes) or names a key out of range. *)
let test_wire_batch_rollback () =
  let b = Wire.Batch.create () in
  let into frame = Wire.decode_request_into b ~shards:8 (scan_payload frame) in
  (match into (Wire.encode_request (Wire.Ingest [| (3, [| 1.0; 2.0 |]) |])) with
  | Wire.Ingested -> ()
  | _ -> Alcotest.fail "good ingest not appended");
  let state () = (b.Wire.Batch.points, b.requests, Array.sub b.keys 0 b.points, Array.sub b.values 0 b.points) in
  let before = state () in
  (match into (Wire.encode_request (Wire.Ingest [| (1, [| 5.0 |]); (8, [| 6.0 |]) |])) with
  | Wire.Bad_key -> ()
  | _ -> Alcotest.fail "out-of-range key not reported");
  Alcotest.(check bool) "bad key appends nothing" true (state () = before);
  let buf = Buffer.create 32 in
  Codec.put_u8 buf 0x01;
  Codec.put_varint buf 2;
  Codec.put_varint buf 1;
  Codec.put_float_array buf [| 7.0; 8.0 |];
  Codec.put_varint buf 2;
  Codec.put_float_array buf [| Float.infinity |];
  expect_corrupt "non-finite in the second group" (fun () ->
      into (Frame.frame_string (Buffer.contents buf)));
  Alcotest.(check bool) "corrupt payload rolled back" true (state () = before);
  let good = Wire.encode_request (Wire.Ingest [| (1, [| 9.0 |]) |]) in
  let payload = scan_payload good in
  let trailing = Codec.get_raw payload (Codec.remaining payload) ^ "\x00" in
  expect_corrupt "trailing bytes" (fun () -> into (Frame.frame_string trailing));
  Alcotest.(check bool) "trailing bytes rolled back" true (state () = before);
  match into (Wire.encode_request Wire.Ping) with
  | Wire.Request Wire.Ping -> Alcotest.(check bool) "ping leaves the batch" true (state () = before)
  | _ -> Alcotest.fail "ping not decoded"

(* The serve loop's decoder and [decode_request] share one validator: the
   rows appended are the request's groups, flattened in order. *)
let prop_wire_batch_matches_groups =
  Helpers.qcheck_case ~count:120 ~name:"wire: batch rows are the decoded groups"
    QCheck2.Gen.(
      small_list
        (pair (int_range 0 63)
           (array_size (int_range 0 20) (map Float.of_int (int_range (-1000) 1000)))))
    (fun groups ->
      let groups = Array.of_list groups in
      let frame = Wire.encode_request (Wire.Ingest groups) in
      let b = Wire.Batch.create () in
      ignore (Wire.decode_request_into b ~shards:64 (scan_payload (Wire.encode_request (Wire.Ingest [| (5, [| 0.5 |]) |]))));
      let decoded = Wire.decode_request_into b ~shards:64 (scan_payload frame) in
      let rows = Array.concat (Array.to_list (Array.map (fun (k, vs) -> Array.map (fun v -> (k, v)) vs) groups)) in
      decoded = Wire.Ingested
      && Wire.decode_request (scan_payload frame) = Wire.Ingest groups
      && b.requests = 2
      && b.counts.(1) = Array.length rows
      && b.points = 1 + Array.length rows
      && Array.for_all Fun.id
           (Array.mapi (fun i (k, v) -> b.keys.(1 + i) = k && Int64.equal (Int64.bits_of_float b.values.(1 + i)) (Int64.bits_of_float v)) rows))

let test_preamble () =
  Wire.check_preamble Wire.preamble;
  expect_corrupt "bad magic" (fun () -> Wire.check_preamble "XXNW\x01");
  expect_corrupt "short" (fun () -> Wire.check_preamble "SH");
  match Wire.check_preamble "SHNW\x63" with
  | () -> Alcotest.fail "foreign version accepted"
  | exception Codec.Version_mismatch { found = 0x63; _ } -> ()
  | exception _ -> Alcotest.fail "foreign version: wrong error"

let prop_wire_ingest_round_trip =
  Helpers.qcheck_case ~count:120 ~name:"wire: Ingest encode/scan/decode round trip"
    QCheck2.Gen.(
      small_list
        (pair (int_range 0 63)
           (array_size (int_range 0 40) (map Float.of_int (int_range (-1000) 1000)))))
    (fun groups ->
      let r = Wire.Ingest (Array.of_list groups) in
      req_round_trip r = r)

let prop_wire_query_round_trip =
  Helpers.qcheck_case ~count:120 ~name:"wire: Query encode/scan/decode round trip"
    QCheck2.Gen.(
      small_list
        (pair
           (oneof [ map (fun k -> Qop.Key k) (int_range 0 63); return Qop.Global ])
           (oneof
              [
                return Qop.Current_error;
                return Qop.Window_length;
                (let* k = int_range 0 50 and* x = int_range 0 5000 in
                 return (Qop.Herror { k; x }));
                (let* lo = int_range 0 5000 and* hi = int_range 0 5000 in
                 return (Qop.Range_sum { lo; hi }));
                (let* index = int_range 0 5000 in
                 return (Qop.Point_estimate { index }));
              ])))
    (fun qs ->
      let r = Wire.Query (Array.of_list qs) in
      req_round_trip r = r)

(* --------------------------------------------------- incremental scanner *)

let test_scan_every_prefix () =
  let frame = Wire.encode_request (Wire.Ingest [| (3, [| 1.0; 2.0; 4.5 |]) |]) in
  let n = String.length frame in
  for len = 0 to n - 1 do
    match Frame.scan_frame frame ~pos:0 ~len with
    | Frame.Incomplete -> ()
    | Frame.Frame _ -> Alcotest.failf "prefix of %d/%d bytes decoded as a frame" len n
  done;
  ignore (scan_payload frame)

let test_scan_two_frames_and_pos () =
  let f1 = Wire.encode_request Wire.Ping in
  let f2 = Wire.encode_request (Wire.Ingest [| (1, [| 9.0 |]) |]) in
  let s = f1 ^ f2 in
  (match Frame.scan_frame s ~pos:0 ~len:(String.length s) with
  | Frame.Frame { consumed; payload } ->
    Alcotest.(check int) "first frame length" (String.length f1) consumed;
    Alcotest.(check bool) "first decodes" true (Wire.decode_request payload = Wire.Ping)
  | Frame.Incomplete -> Alcotest.fail "first frame incomplete");
  match Frame.scan_frame s ~pos:(String.length f1) ~len:(String.length f2) with
  | Frame.Frame { consumed; payload } ->
    Alcotest.(check int) "second frame length" (String.length f2) consumed;
    Alcotest.(check bool) "second decodes" true
      (Wire.decode_request payload = Wire.Ingest [| (1, [| 9.0 |]) |])
  | Frame.Incomplete -> Alcotest.fail "second frame incomplete"

let test_scan_bit_flips () =
  let frame = Wire.encode_request (Wire.Ingest [| (2, [| 5.0; 6.0 |]) |]) in
  let n = String.length frame in
  for i = 0 to n - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string frame in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      let s = Bytes.to_string b in
      (* A flip may turn the frame Incomplete (longer declared length) or
         Corrupt (CRC/varint damage) — but never an intact decode of the
         original payload. *)
      match Frame.scan_frame s ~pos:0 ~len:n with
      | Frame.Incomplete -> ()
      | exception Codec.Corrupt _ -> ()
      | Frame.Frame { payload; _ } ->
        (match Wire.decode_request payload with
        | req ->
          if req = Wire.Ingest [| (2, [| 5.0; 6.0 |]) |] then
            Alcotest.failf "flip byte %d bit %d: original payload survived CRC" i bit
        | exception Codec.Corrupt _ -> ())
    done
  done

let test_scan_oversized_and_overlong () =
  (* declared length above the cap is rejected before buffering *)
  let buf = Buffer.create 16 in
  Codec.put_varint buf (Wire.max_frame_payload + 1);
  Buffer.add_string buf "xxxx";
  let s = Buffer.contents buf in
  expect_corrupt "oversized declared length" (fun () ->
      Frame.scan_frame ~max_len:Wire.max_frame_payload s ~pos:0 ~len:(String.length s));
  (* an overlong varint can never be Incomplete *)
  let s = String.make 10 '\xff' in
  expect_corrupt "overlong varint" (fun () ->
      Frame.scan_frame s ~pos:0 ~len:(String.length s));
  (* bad range is a programming error, not a protocol one *)
  match Frame.scan_frame "abc" ~pos:2 ~len:5 with
  | _ -> Alcotest.fail "bad range accepted"
  | exception Invalid_argument _ -> ()

let prop_scan_split_stream =
  (* a frame stream chopped at an arbitrary point is Incomplete at the
     chop and decodes identically once the rest arrives *)
  Helpers.qcheck_case ~count:80 ~name:"scan: any split of a frame stream reassembles"
    QCheck2.Gen.(
      let* nframes = int_range 1 4 in
      let* payloads =
        list_size (return nframes) (string_size ~gen:printable (int_range 0 30))
      in
      let* cut_frac = float_bound_inclusive 1.0 in
      return (payloads, cut_frac))
    (fun (payloads, cut_frac) ->
      let stream = String.concat "" (List.map Frame.frame_string payloads) in
      let cut = Float.to_int (cut_frac *. Float.of_int (String.length stream)) in
      (* scan the whole stream, frame by frame *)
      let decoded = ref [] in
      let pos = ref 0 in
      let continue = ref true in
      while !continue do
        match Frame.scan_frame stream ~pos:!pos ~len:(String.length stream - !pos) with
        | Frame.Incomplete -> continue := false
        | Frame.Frame { payload; consumed } ->
          decoded := Codec.get_raw payload (Codec.remaining payload) :: !decoded;
          pos := !pos + consumed
      done;
      (* the prefix up to the cut never yields more frames than the whole *)
      let prefix_count = ref 0 in
      let p = ref 0 in
      let continue = ref true in
      while !continue do
        match Frame.scan_frame stream ~pos:!p ~len:(cut - !p) with
        | Frame.Incomplete -> continue := false
        | exception Invalid_argument _ -> continue := false
        | Frame.Frame { consumed; _ } ->
          incr prefix_count;
          p := !p + consumed
      done;
      List.rev !decoded = payloads && !prefix_count <= List.length payloads)

(* ------------------------------------------------------------ live serve *)

let with_temp_sock f =
  let path = Filename.temp_file "shist_net" ".sock" in
  Unix.unlink path;
  Fun.protect
    ~finally:(fun () -> try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () -> f (Addr.Unix_sock path))

(* Where a live-serve case aims: a leaf serving its own engine, or an
   aggregating root ([Aggregator.backend]) in front of one in-process leaf
   of the same geometry.  Both run the one serve loop, so every transport
   contract must hold at either tier. *)
type tier = Leaf | Root

(* A live serve loop on its own domain (two, for a root and its leaf).
   [config] applies to the endpoint at [addr]; the engine options to the
   leaf.  Listeners are bound before the domains spawn, so clients can
   connect immediately (the backlog holds them until the loop's first
   iteration). *)
let with_server ?(tier = Leaf) ?config ?(policy = Params.Eager) ?leaf_checkpoint ~shards
    ~window ~buckets ~epsilon addr f =
  let stop = Atomic.make false in
  let serve ?config backend listener =
    Server.run ?config ~stop:(fun () -> Atomic.get stop) ~backend ~listeners:[ listener ] ()
  in
  (* [leaf_checkpoint]: once its loop stops, the leaf writes its engine's
     checkpoint there, so a case can compare served state with an oracle
     at either tier *)
  let spawn_leaf ?config listener =
    Domain.spawn (fun () ->
        Pool.with_pool ~domains:1 (fun pool ->
            let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
            SE.set_refresh_policy eng policy;
            let report = serve ?config (Server.engine eng) listener in
            Option.iter (fun file -> SE.checkpoint eng ~file) leaf_checkpoint;
            report))
  in
  let listener = Server.listen addr in
  let servers, cleanup =
    match tier with
    | Leaf -> ([ (spawn_leaf ?config listener, listener) ], ignore)
    | Root ->
      let leaf_path = Filename.temp_file "shist_net_leaf" ".sock" in
      Unix.unlink leaf_path;
      let leaf_addr = Addr.Unix_sock leaf_path in
      let leaf_listener = Server.listen leaf_addr in
      let leaf = spawn_leaf leaf_listener in
      let root =
        Domain.spawn (fun () ->
            let agg = Aggregator.create ~timeout:5. [ leaf_addr ] in
            Fun.protect ~finally:(fun () -> Aggregator.close agg) @@ fun () ->
            serve ?config (Aggregator.backend agg) listener)
      in
      ( [ (root, listener); (leaf, leaf_listener) ],
        fun () -> try Unix.unlink leaf_path with Unix.Unix_error _ | Sys_error _ -> () )
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter
        (fun (d, l) ->
          ignore (Domain.join d : Server.report);
          try Unix.close l with Unix.Unix_error _ -> ())
        servers;
      cleanup ())
    (fun () -> f ())

let geometry = (8, 64, 4, 0.1)

(* Raw socket access, for speaking garbage the Client refuses to send. *)
let raw_connect addr =
  let fd = Addr.socket_for addr in
  Unix.connect fd (Addr.to_sockaddr addr);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

let write_string fd s = ignore (Unix.write_substring fd s 0 (String.length s) : int)

(* Drain one fd to EOF (with the 5s receive timeout armed); returns all
   bytes read after the server's preamble was stripped by the caller. *)
let read_to_eof fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd b 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf b 0 n;
      go ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> Buffer.contents buf
  in
  go ()

let read_exact fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    match Unix.read fd b !off (n - !off) with
    | 0 -> Alcotest.fail "unexpected EOF"
    | got -> off := !off + got
  done;
  Bytes.to_string b

(* Every complete frame in [s], decoded, in order. *)
let frames_of decode s =
  let rec go pos acc =
    match Frame.scan_frame s ~pos ~len:(String.length s - pos) with
    | Frame.Frame { payload; consumed } -> go (pos + consumed) (decode payload :: acc)
    | Frame.Incomplete -> List.rev acc
  in
  go 0 []

let responses_of = frames_of Wire.decode_response

(* The first [n] frames on a raw connection (its preamble already read). *)
let read_frames decode fd n =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    let rs = frames_of decode (Buffer.contents buf) in
    if List.length rs >= n then rs
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Alcotest.failf "EOF after %d of %d frames" (List.length rs) n
      | got ->
        Buffer.add_subbytes buf chunk 0 got;
        go ()
  in
  go ()

let read_responses = read_frames Wire.decode_response

let reply_name = function
  | Wire.Ack n -> Printf.sprintf "Ack %d" n
  | Wire.Error_reply _ -> "Error_reply"
  | Wire.Pong -> "Pong"
  | _ -> "another reply"

let check_replies what expected got =
  Alcotest.(check (list string)) what expected (List.map reply_name got)

(* A raw connection that has read the server's preamble and sent its own
   together with [frames], in one write. *)
let raw_session addr frames =
  let fd = raw_connect addr in
  ignore (read_exact fd Wire.preamble_len : string);
  write_string fd (String.concat "" (Wire.preamble :: frames));
  fd

(* Feed [reqs] to [eng] in exactly [calls] ingest calls.  Under [Eager]
   every shard's frame in a checkpoint is the same for any split that
   keeps each key's arrival order; only the meta frame's batch count
   depends on the number of calls, which is how many serve-loop rounds
   (or, behind a root, forwarded requests) the server took. *)
let feed_in_calls eng reqs ~calls =
  let n = List.length reqs in
  if calls < 1 || calls > n then
    Alcotest.failf "the server applied %d accepted requests in %d batches" n calls;
  List.iteri (fun i gs -> if i < calls - 1 then SE.ingest_groups eng gs) reqs;
  SE.ingest_groups eng (Array.concat (List.filteri (fun i _ -> i >= calls - 1) reqs))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [f addr] against a server whose leaf checkpoints on exit, then check
   that checkpoint byte for byte against an in-process engine fed [accepted]
   (in each key's arrival order) in as many calls as the served engine
   counted batches. *)
let check_served_state tier ~accepted f =
  let shards, window, buckets, epsilon = geometry in
  let served = Filename.temp_file "shist_net_served" ".ckpt" in
  let expect = Filename.temp_file "shist_net_oracle" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ served; expect ])
  @@ fun () ->
  let batches =
    with_temp_sock @@ fun addr ->
    with_server ~tier ~leaf_checkpoint:served ~shards ~window ~buckets ~epsilon addr
    @@ fun () ->
    f addr;
    let c = Client.connect ~timeout:5. addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () -> (Client.stats c).Wire.batches
  in
  Pool.with_pool ~domains:1 @@ fun pool ->
  let oracle = SE.create ~pool ~shards ~window ~buckets ~epsilon in
  SE.set_refresh_policy oracle Params.Eager;
  feed_in_calls oracle accepted ~calls:batches;
  SE.checkpoint oracle ~file:expect;
  Alcotest.(check bool) "checkpoint bytes equal the oracle's" true
    (String.equal (read_file served) (read_file expect))

let ingest_frame groups = Wire.encode_request (Wire.Ingest groups)

(* Conn 1 owns keys 0-3, conn 2 keys 4-7, so every key's arrival order is
   fixed however the server forms its rounds. *)
let req_a = [| (0, [| 1.0; 2.0; 3.0 |]); (1, [| 4.0 |]) |]
let req_c = [| (1, [| 5.0; 6.0 |]); (3, [| 7.0 |]); (0, [| 8.0 |]) |]
let req_d = [| (4, [| 9.0; 10.0 |]); (7, [| 11.0 |]) |]

let points gs = Wire.points_in_groups gs

(* An error reply is a connection's last: it follows the replies to every
   request decoded before the bad frame, in the same round. *)
let test_serve_error_after_earlier_replies tier =
  let shards, window, buckets, epsilon = geometry in
  with_temp_sock @@ fun addr ->
  with_server ~tier ~shards ~window ~buckets ~epsilon addr @@ fun () ->
  let ping = Bytes.of_string (Wire.encode_request Wire.Ping) in
  let last = Bytes.length ping - 1 in
  Bytes.set ping last (Char.chr (Char.code (Bytes.get ping last) lxor 0xFF));
  let fd = raw_session addr [ ingest_frame [| (0, [| 1.0; 2.0 |]) |]; Bytes.to_string ping ] in
  let tail = read_to_eof fd in
  Unix.close fd;
  check_replies "replies in decode order" [ "Ack 2"; "Error_reply" ] (responses_of tail)

(* One write carries a good request, a bad-key request and another good
   one, while a second connection sends its own: the replies come back in
   request order, and the served state is exactly the accepted requests. *)
let test_serve_same_round_state tier =
  check_served_state tier ~accepted:[ req_a; req_c; req_d ] @@ fun addr ->
  let shards, _, _, _ = geometry in
  let c2 = raw_connect addr in
  ignore (read_exact c2 Wire.preamble_len : string);
  let c1 =
    raw_session addr
      [ ingest_frame req_a; ingest_frame [| (2, [| 1.0 |]); (shards, [| 1.0 |]) |]; ingest_frame req_c ]
  in
  write_string c2 (Wire.preamble ^ ingest_frame req_d);
  check_replies "conn 1" [ Printf.sprintf "Ack %d" (points req_a); "Error_reply";
                           Printf.sprintf "Ack %d" (points req_c) ] (read_responses c1 3);
  check_replies "conn 2" [ Printf.sprintf "Ack %d" (points req_d) ] (read_responses c2 1);
  Unix.close c1;
  Unix.close c2

(* A frame that is corrupt past its first group: the rows decoded before
   the damage are rolled back, the earlier request of the same write is
   applied and acked, and the error is the connection's last reply. *)
let test_serve_corrupt_rolls_back tier =
  check_served_state tier ~accepted:[ req_a; req_d ] @@ fun addr ->
  let payload = Buffer.create 64 in
  Codec.put_u8 payload 0x01;
  Codec.put_varint payload 2;
  Codec.put_varint payload 2;
  Codec.put_float_array payload [| 1.0; 2.0; 3.0 |];
  Codec.put_varint payload 3;
  Codec.put_float_array payload [| 4.0; Float.nan |];
  let c1 = raw_session addr [ ingest_frame req_a; Frame.frame_string (Buffer.contents payload) ] in
  let c2 = raw_session addr [ ingest_frame req_d ] in
  let tail = read_to_eof c1 in
  check_replies "conn 1" [ Printf.sprintf "Ack %d" (points req_a); "Error_reply" ]
    (responses_of tail);
  check_replies "conn 2" [ Printf.sprintf "Ack %d" (points req_d) ] (read_responses c2 1);
  Unix.close c1;
  Unix.close c2

(* A frame larger than a connection's 64 KiB input buffer arrives behind a
   small one in the same write, so it straddles the buffer's doubling: it
   decodes to exactly the points sent. *)
let test_serve_frame_across_buffer_growth tier =
  let big = [| (2, Array.init 10_000 (fun i -> Float.of_int (i mod 101))) |] in
  check_served_state tier ~accepted:[ req_a; big; req_c; req_d ] @@ fun addr ->
  let c1 = raw_session addr [ ingest_frame req_a; ingest_frame big; ingest_frame req_c ] in
  let c2 = raw_session addr [ ingest_frame req_d ] in
  check_replies "conn 1"
    (List.map (fun gs -> Printf.sprintf "Ack %d" (points gs)) [ req_a; big; req_c ])
    (read_responses c1 3);
  check_replies "conn 2" [ Printf.sprintf "Ack %d" (points req_d) ] (read_responses c2 1);
  Unix.close c1;
  Unix.close c2

let test_serve_equivalence tier =
  let shards, window, buckets, epsilon = geometry in
  with_temp_sock @@ fun addr ->
  with_server ~tier ~shards ~window ~buckets ~epsilon addr @@ fun () ->
  (* reference: the same batches through an in-process engine *)
  Pool.with_pool ~domains:1 @@ fun pool ->
  let ref_eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
  SE.set_refresh_policy ref_eng Params.Eager;
  let rng = Rng.create ~seed:7 in
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for _round = 1 to 12 do
    let ngroups = 1 + Rng.int rng 5 in
    let groups =
      Array.init ngroups (fun _ ->
          let k = Rng.int rng shards in
          let len = Rng.int rng 40 in
          (k, Array.init len (fun _ -> Float.of_int (Rng.int rng 100))))
    in
    let sent = Wire.points_in_groups groups in
    let acked = Client.ingest c groups in
    Alcotest.(check int) "every point acked" sent acked;
    SE.ingest_groups ref_eng groups
  done;
  (* every query constructor, including out-of-range parameters that the
     clamping contract must normalise identically on both sides *)
  let qs =
    Array.concat
      (List.init shards (fun k ->
           [|
             (Qop.Key k, Qop.Current_error);
             (Qop.Key k, Qop.Window_length);
             (Qop.Key k, Qop.Herror { k = buckets + 3; x = window + 50 });
             (Qop.Key k, Qop.Herror { k = 1; x = 0 });
             (Qop.Key k, Qop.Range_sum { lo = 0; hi = window + 9 });
             (Qop.Key k, Qop.Point_estimate { index = 1 + (k mod window) });
           |])
      @ [
          [|
            (Qop.Global, Qop.Window_length);
            (Qop.Global, Qop.Range_sum { lo = 1; hi = window });
            (Qop.Global, Qop.Current_error);
          |];
        ])
  in
  let remote = Client.query c qs in
  let local = SE.query_many ref_eng qs in
  Alcotest.(check int) "answer count" (Array.length local) (Array.length remote);
  Array.iteri
    (fun i l ->
      if Int64.bits_of_float l <> Int64.bits_of_float remote.(i) then
        Alcotest.failf "query %d: local %.17g <> remote %.17g" i l remote.(i))
    local;
  let st = Client.stats c in
  Alcotest.(check int) "server points" (SE.total_points ref_eng) st.Wire.total_points;
  Client.ping c

(* Competing pipelined connections, one of them sending more than a
   thousand points of one key per request (the key repeated across
   groups): nothing is lost, and the served state is exactly an
   in-process engine's fed the acked requests.  Each connection owns
   disjoint keys, so every key's arrival order is its connection's
   however the server coalesces rounds; under [Eager] every batch ends
   in a refresh, so the published views match whatever the batching. *)
let test_serve_backpressure_no_drop tier =
  let shards, window, buckets, epsilon = geometry in
  with_temp_sock @@ fun addr ->
  with_server ~tier ~shards ~window ~buckets ~epsilon addr @@ fun () ->
  Pool.with_pool ~domains:1 @@ fun pool ->
  let oracle = SE.create ~pool ~shards ~window ~buckets ~epsilon in
  SE.set_refresh_policy oracle Params.Eager;
  let nconn = 3 and rounds = 8 in
  let cs = Array.init nconn (fun _ -> Client.connect ~timeout:5. addr) in
  Fun.protect ~finally:(fun () -> Array.iter Client.close cs) @@ fun () ->
  let rng = Rng.create ~seed:11 in
  (* connection c owns keys c, c + nconn, ...; its first key is hot on
     connection 0 *)
  let request c =
    let own = List.filter (fun k -> k mod nconn = c) (List.init shards Fun.id) in
    let values n = Array.init n (fun _ -> Float.of_int (Rng.int rng 50)) in
    let hot = List.hd own in
    Array.of_list
      ((if c = 0 then [ (hot, values 600); (hot, values 500) ] else [])
      @ List.map (fun k -> (k, values (16 + Rng.int rng 48))) own
      @ [ (hot, [||]) ])
  in
  let sent = ref 0 in
  let acked = ref 0 in
  for _ = 1 to rounds do
    (* pipeline: all connections send, then all collect — forcing the
       server to coalesce competing batches in one iteration *)
    let reqs = Array.init nconn request in
    Array.iteri
      (fun c gs ->
        sent := !sent + Wire.points_in_groups gs;
        Client.send cs.(c) (Wire.Ingest gs))
      reqs;
    Array.iteri
      (fun c gs ->
        match Client.recv cs.(c) with
        | Wire.Ack n ->
          Alcotest.(check int) "request acked whole" (Wire.points_in_groups gs) n;
          acked := !acked + n;
          SE.ingest_groups oracle gs
        | _ -> Alcotest.fail "expected Ack")
      reqs
  done;
  let st = Client.stats cs.(0) in
  Alcotest.(check int) "acked == sent" !sent !acked;
  Alcotest.(check int) "server holds every acked point" !acked st.Wire.total_points;
  let qs =
    Array.concat
      (List.init shards (fun k ->
           [|
             (Qop.Key k, Qop.Window_length);
             (Qop.Key k, Qop.Range_sum { lo = 1; hi = window });
             (Qop.Key k, Qop.Current_error);
           |]))
  in
  let remote = Client.query cs.(1) qs in
  Array.iteri
    (fun i expect ->
      if Int64.bits_of_float expect <> Int64.bits_of_float remote.(i) then
        Alcotest.failf "query %d: oracle %.17g <> served %.17g" i expect remote.(i))
    (SE.query_many oracle qs)

(* A request that sends thousands of points to one key must not delay the
   reads that follow it: each ping after such a request is answered
   within one loop iteration, not after a [select] timeout.  Behind a
   root the ping is answered by the root, so a leaf that stalled would
   show up in the next forwarded request instead: the whole rounds are
   bounded too. *)
let test_serve_hot_key_no_stall tier =
  let shards, window, buckets, epsilon = geometry in
  with_temp_sock @@ fun addr ->
  with_server ~tier ~shards ~window ~buckets ~epsilon addr @@ fun () ->
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let hot = [| (0, Array.init 2000 (fun i -> Float.of_int (i mod 97))) |] in
  let acked = ref 0 and pinging = ref 0.0 in
  let r0 = Sh_net.Clock.now () in
  for _ = 1 to 20 do
    acked := !acked + Client.ingest c hot;
    let t0 = Sh_net.Clock.now () in
    Client.ping c;
    pinging := !pinging +. (Sh_net.Clock.now () -. t0)
  done;
  let rounds = Sh_net.Clock.now () -. r0 in
  Alcotest.(check int) "every hot request acked" (20 * 2000) !acked;
  Alcotest.(check bool)
    (Printf.sprintf "20 pings took %.3f s (< 0.5 s)" !pinging)
    true (!pinging < 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "20 rounds took %.3f s (< 0.5 s)" rounds)
    true (rounds < 0.5)

let test_serve_rejects_bad_key_keeps_conn tier =
  let shards, window, buckets, epsilon = geometry in
  with_temp_sock @@ fun addr ->
  with_server ~tier ~shards ~window ~buckets ~epsilon addr @@ fun () ->
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.call c (Wire.Ingest [| (shards, [| 1.0 |]) |]) with
  | Wire.Error_reply _ -> ()
  | _ -> Alcotest.fail "out-of-range key accepted");
  (* semantic rejection: the connection survives and serves the next
     request; the bad batch contributed nothing *)
  let n = Client.ingest c [| (0, [| 1.0; 2.0 |]) |] in
  Alcotest.(check int) "good batch acked after rejection" 2 n;
  let st = Client.stats c in
  Alcotest.(check int) "only the good points landed" 2 st.Wire.total_points

let test_serve_malformed_inputs tier =
  let shards, window, buckets, epsilon = geometry in
  with_temp_sock @@ fun addr ->
  with_server ~tier ~shards ~window ~buckets ~epsilon addr @@ fun () ->
  (* 1. garbage preamble: error frame (or nothing) then EOF, never a hang *)
  let fd = raw_connect addr in
  ignore (read_exact fd Wire.preamble_len : string);
  write_string fd "GARBAGE!";
  let tail = read_to_eof fd in
  Unix.close fd;
  (match Frame.scan_frame tail ~pos:0 ~len:(String.length tail) with
  | Frame.Frame { payload; _ } -> (
    match Wire.decode_response payload with
    | Wire.Error_reply _ -> ()
    | _ -> Alcotest.fail "garbage preamble: expected Error_reply")
  | Frame.Incomplete -> Alcotest.fail "garbage preamble: no error frame before close");
  (* 2. valid preamble, then a CRC-corrupted frame *)
  let fd = raw_connect addr in
  ignore (read_exact fd Wire.preamble_len : string);
  write_string fd Wire.preamble;
  let frame = Bytes.of_string (Wire.encode_request Wire.Ping) in
  let last = Bytes.length frame - 1 in
  Bytes.set frame last (Char.chr (Char.code (Bytes.get frame last) lxor 0xFF));
  write_string fd (Bytes.to_string frame);
  let tail = read_to_eof fd in
  Unix.close fd;
  (match Frame.scan_frame tail ~pos:0 ~len:(String.length tail) with
  | Frame.Frame { payload; _ } -> (
    match Wire.decode_response payload with
    | Wire.Error_reply _ -> ()
    | _ -> Alcotest.fail "corrupt frame: expected Error_reply")
  | Frame.Incomplete -> Alcotest.fail "corrupt frame: no error frame before close");
  (* 3. oversized declared payload length *)
  let fd = raw_connect addr in
  ignore (read_exact fd Wire.preamble_len : string);
  write_string fd Wire.preamble;
  let buf = Buffer.create 16 in
  Codec.put_varint buf (Wire.max_frame_payload + 1);
  write_string fd (Buffer.contents buf);
  let tail = read_to_eof fd in
  Unix.close fd;
  (match Frame.scan_frame tail ~pos:0 ~len:(String.length tail) with
  | Frame.Frame { payload; _ } -> (
    match Wire.decode_response payload with
    | Wire.Error_reply _ -> ()
    | _ -> Alcotest.fail "oversized length: expected Error_reply")
  | Frame.Incomplete -> Alcotest.fail "oversized length: no error frame before close");
  (* the server survived all three: a healthy client still works *)
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.ping c;
  let st = Client.stats c in
  Alcotest.(check int) "nothing ingested by attackers" 0 st.Wire.total_points

let test_serve_slow_loris_reaped tier =
  let shards, window, buckets, epsilon = geometry in
  with_temp_sock @@ fun addr ->
  let config = { Server.default_config with idle_timeout = 0.25 } in
  with_server ~tier ~config ~shards ~window ~buckets ~epsilon addr @@ fun () ->
  let fd = raw_connect addr in
  ignore (read_exact fd Wire.preamble_len : string);
  write_string fd Wire.preamble;
  (* half an ingest frame, then silence *)
  let frame = Wire.encode_request (Wire.Ingest [| (0, Array.make 64 1.0) |]) in
  write_string fd (String.sub frame 0 (String.length frame / 2));
  let tail = read_to_eof fd in
  (* the drain returns only because the server reaped us within the 5s
     receive timeout; a healthy client is unaffected throughout *)
  ignore (tail : string);
  Unix.close fd;
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.ping c;
  let st = Client.stats c in
  Alcotest.(check int) "half-frame never ingested" 0 st.Wire.total_points

let test_serve_frame_above_read_watermark tier =
  let shards, window, buckets, epsilon = geometry in
  with_temp_sock @@ fun addr ->
  with_server ~tier ~policy:(Params.Every 4096) ~shards ~window ~buckets ~epsilon addr
  @@ fun () ->
  let points = 262_144 in
  let groups = [| (0, Array.init points (fun i -> Float.of_int (i land 255))) |] in
  let frame = Wire.encode_request (Wire.Ingest groups) in
  Alcotest.(check bool)
    (Printf.sprintf "one %d-byte frame, above the read watermark" (String.length frame))
    true
    (String.length frame > Server.read_watermark);
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check int) "acked within the timeout" points (Client.ingest c groups)

(* The root holds no state: a [Checkpoint] is refused even with a path
   configured, and the refusal is semantic — the connection serves on. *)
let test_root_checkpoint_refused () =
  let shards, window, buckets, epsilon = geometry in
  let ckpt = Filename.temp_file "shist_net" ".ckpt" in
  Sys.remove ckpt;
  with_temp_sock @@ fun addr ->
  let config = { Server.default_config with checkpoint = Some ckpt } in
  with_server ~tier:Root ~config ~shards ~window ~buckets ~epsilon addr @@ fun () ->
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.call c Wire.Checkpoint with
  | Wire.Error_reply _ -> ()
  | _ -> Alcotest.fail "root accepted a Checkpoint");
  Client.ping c;
  Alcotest.(check int) "still serving ingest" 2 (Client.ingest c [| (0, [| 1.0; 2.0 |]) |]);
  Alcotest.(check bool) "no checkpoint file written" false (Sys.file_exists ckpt)

let test_serve_checkpoint_restart_reconnect () =
  let shards, window, buckets, epsilon = geometry in
  let ckpt = Filename.temp_file "shist_net" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
  @@ fun () ->
  with_temp_sock @@ fun addr ->
  let rng = Rng.create ~seed:23 in
  let mk_groups () =
    Array.init 6 (fun _ ->
        let k = Rng.int rng shards in
        (k, Array.init (10 + Rng.int rng 30) (fun _ -> Float.of_int (Rng.int rng 100))))
  in
  let config = { Server.default_config with checkpoint = Some ckpt } in
  (* generation 1: ingest, checkpoint over the wire, shut down *)
  let points_before, lengths_before =
    let result = ref (0, [||]) in
    with_server ~config ~shards ~window ~buckets ~epsilon addr (fun () ->
        let c = Client.connect ~timeout:5. addr in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        for _ = 1 to 10 do
          ignore (Client.ingest c (mk_groups ()) : int)
        done;
        let path = Client.checkpoint c in
        Alcotest.(check string) "checkpoint path echoed" ckpt path;
        let st = Client.stats c in
        let lengths =
          Client.query c (Array.init shards (fun k -> (Qop.Key k, Qop.Window_length)))
        in
        result := (st.Wire.total_points, lengths);
        Client.shutdown c);
    !result
  in
  (* generation 2: restore from the checkpoint, same address; the client
     connects with a retry budget, as a restarting client would *)
  let listener = Server.listen addr in
  let srv =
    Domain.spawn (fun () ->
        Pool.with_pool ~domains:1 (fun pool ->
            let eng = SE.restore_from ~pool ~file:ckpt in
            Server.run ~backend:(Server.engine eng) ~listeners:[ listener ] ()))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Domain.join srv : Server.report);
      try Unix.close listener with Unix.Unix_error _ -> ())
  @@ fun () ->
  let c = Client.connect ~timeout:5. ~retries:25 ~retry_delay:0.1 addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let st = Client.stats c in
  Alcotest.(check int) "restored every checkpointed point" points_before
    st.Wire.total_points;
  let lengths = Client.query c (Array.init shards (fun k -> (Qop.Key k, Qop.Window_length))) in
  Array.iteri
    (fun k l ->
      if Int64.bits_of_float l <> Int64.bits_of_float lengths_before.(k) then
        Alcotest.failf "shard %d: window length %g after restore, %g before" k lengths.(k)
          lengths_before.(k))
    lengths_before;
  (* the restored engine keeps serving ingest *)
  let n = Client.ingest c [| (0, [| 1.0; 2.0; 3.0 |]) |] in
  Alcotest.(check int) "post-restore ingest acked" 3 n;
  Client.shutdown c

(* ------------------------------------------------------ timeout guards *)

(* [Unix.select] treats a negative timeout as an unbounded wait, so a bad
   timeout must be refused where it enters, before any socket exists: the
   address below names no socket, so reaching [connect] would raise
   [Net_error] instead. *)
(* A peer that completes the handshake and then never reads: a write
   larger than the socket buffers must give up after about the client's
   timeout, not wait until the peer closes (after 5 s). *)
let test_client_write_times_out () =
  Helpers.with_stalled_peer ~linger:5.0 @@ fun addr ->
  let c = Client.connect ~timeout:0.5 addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Sh_net.Clock.now () in
  match Client.send c (Wire.Ingest [| (0, Array.make 1_000_000 1.0) |]) with
  | () -> Alcotest.fail "a 1M-point ingest fit in the socket buffers"
  | exception Client.Net_error msg ->
    let elapsed = Sh_net.Clock.now () -. t0 in
    if elapsed >= 3.0 then
      Alcotest.failf "send raised after %.2fs (%s), not within 3s" elapsed msg;
    Alcotest.(check bool) ("a timeout: " ^ msg) true (String.starts_with ~prefix:"timeout" msg)

(* [Conn]'s input buffer grows only for a frame that does not fit: one
   and a half frames read, the first taken, then the rest read behind the
   leftover half, leave the connection exactly its fresh size. *)
let test_conn_partial_frame_keeps_size () =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Conn.create ours in
  Fun.protect ~finally:(fun () -> Conn.close conn; Unix.close theirs) @@ fun () ->
  let fresh = Obj.reachable_words (Obj.repr conn) in
  let frame = ingest_frame [| (1, Array.make 100 2.5) |] in
  let two = frame ^ frame in
  let half = String.length frame * 3 / 2 in
  let frames_read = ref 0 in
  let read_all want =
    while !frames_read < want do
      (match Conn.read_into conn with
      | `Data _ | `Again -> ()
      | `Eof -> Alcotest.fail "unexpected EOF");
      let rec take () =
        match Conn.next_frame ~max_len:Wire.max_frame_payload conn with
        | Some payload ->
          ignore (Wire.decode_request payload : Wire.request);
          incr frames_read;
          take ()
        | None -> ()
      in
      take ()
    done
  in
  write_string theirs (String.sub two 0 half);
  read_all 1;
  Alcotest.(check int) "half a frame left" (half - String.length frame) (Conn.buffered conn);
  write_string theirs (String.sub two half (String.length two - half));
  read_all 2;
  Alcotest.(check int) "reachable words after the split frame" fresh
    (Obj.reachable_words (Obj.repr conn))

(* A raw server on its own domain: it accepts one connection, reads the
   client's preamble and hands the socket to [peer], which speaks the
   server's side (its preamble included) byte for byte as it likes. *)
let with_raw_peer peer f =
  with_temp_sock @@ fun addr ->
  let listener = Server.listen addr in
  let d =
    Domain.spawn (fun () ->
        match Unix.select [ listener ] [] [] 5.0 with
        | [], _, _ -> failwith "raw peer: no connection"
        | _ ->
          let fd, _ = Unix.accept listener in
          Unix.clear_nonblock fd;
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          Wire.check_preamble (read_exact fd Wire.preamble_len);
          peer fd)
  in
  Fun.protect ~finally:(fun () -> Domain.join d; Unix.close listener) (fun () -> f addr)

(* A reply larger than the client's 64 KiB initial input buffer. *)
let test_client_reply_above_buffer () =
  let shards, window, buckets, epsilon = geometry in
  with_temp_sock @@ fun addr ->
  with_server ~shards ~window ~buckets ~epsilon addr @@ fun () ->
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check int) "acked" 3 (Client.ingest c [| (2, [| 1.0; 2.0; 3.0 |]) |]);
  let qs = Array.init 10_000 (fun i -> (Qop.Key (i mod shards), Qop.Window_length)) in
  let answers = Client.query c qs in
  Alcotest.(check int) "answer count" 10_000 (Array.length answers);
  Array.iteri
    (fun i a ->
      let expect = if i mod shards = 2 then 3.0 else 0.0 in
      if a <> expect then Alcotest.failf "answer %d: %g, expected %g" i a expect)
    answers;
  Client.ping c

(* Eight pipelined requests whose replies the peer writes in one write,
   so one read brings them all: each [recv] takes the next, in order. *)
let test_client_pipelined_replies () =
  let n = 8 in
  with_raw_peer
    (fun fd ->
      write_string fd Wire.preamble;
      let reqs = read_frames Wire.decode_request fd n in
      if List.exists (fun r -> r <> Wire.Ping) reqs then failwith "raw peer: not a ping";
      write_string fd (String.concat "" (List.init n (fun i -> Wire.encode_response (Wire.Ack i)))))
  @@ fun addr ->
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for _ = 1 to n do
    Client.send c Wire.Ping
  done;
  let replies = List.init n (fun _ -> reply_name (Client.recv c)) in
  Alcotest.(check (list string)) "replies in order"
    (List.init n (Printf.sprintf "Ack %d"))
    replies

(* A peer that writes its preamble and a reply one byte at a time. *)
let test_client_reply_byte_by_byte () =
  let answers = [| 1.5; -2.25; 1e300; 0.0 |] in
  with_raw_peer
    (fun fd ->
      let trickle s =
        String.iter
          (fun ch ->
            write_string fd (String.make 1 ch);
            Unix.sleepf 0.001)
          s
      in
      trickle Wire.preamble;
      ignore (read_frames Wire.decode_request fd 1 : Wire.request list);
      trickle (Wire.encode_response (Wire.Answers answers)))
  @@ fun addr ->
  let c = Client.connect ~timeout:5. addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let got = Client.query c [| (Qop.Key 0, Qop.Window_length) |] in
  Alcotest.(check (array (float 0.0))) "answers" answers got

let test_connect_rejects_bad_timeout () =
  let addr =
    Addr.Unix_sock (Filename.concat (Filename.get_temp_dir_name ()) "shist_no_such.sock")
  in
  List.iter
    (fun timeout ->
      match Client.connect ~timeout addr with
      | c ->
        Client.close c;
        Alcotest.failf "timeout %g: connected" timeout
      | exception Invalid_argument _ -> ()
      | exception e ->
        Alcotest.failf "timeout %g: %s, not Invalid_argument" timeout (Printexc.to_string e))
    [ -1.; 0.; Float.nan; Float.infinity ]

(* An idle timeout <= 0 used to switch the slow-loris reaper off. *)
let test_run_rejects_bad_idle_timeout () =
  Pool.with_pool ~domains:1 @@ fun pool ->
  let backend = Server.engine (SE.create ~pool ~shards:1 ~window:8 ~buckets:2 ~epsilon:0.5) in
  List.iter
    (fun idle_timeout ->
      let config = { Server.default_config with idle_timeout } in
      match Server.run ~config ~stop:(fun () -> true) ~backend ~listeners:[] () with
      | _ -> Alcotest.failf "idle_timeout %g accepted" idle_timeout
      | exception Invalid_argument _ -> ())
    [ 0.; -1.; Float.nan; Float.infinity ]

(* The live-serve cases, aimed at one tier.  Only the checkpoint case
   differs: a leaf round-trips its state, a root refuses. *)
let serve_cases tier =
  let case name f = Alcotest.test_case name `Quick (fun () -> f tier) in
  [
    case "equivalence with in-process engine" test_serve_equivalence;
    case "backpressure drops nothing" test_serve_backpressure_no_drop;
    case "hot key does not stall reads" test_serve_hot_key_no_stall;
    case "bad key rejected, connection survives" test_serve_rejects_bad_key_keeps_conn;
    case "malformed inputs rejected" test_serve_malformed_inputs;
    case "slow loris reaped" test_serve_slow_loris_reaped;
    case "frame above read watermark acked" test_serve_frame_above_read_watermark;
    case "error reply follows earlier replies" test_serve_error_after_earlier_replies;
    case "one round: reply order and state" test_serve_same_round_state;
    case "corrupt frame rolls back its rows" test_serve_corrupt_rolls_back;
    case "frame across input buffer growth" test_serve_frame_across_buffer_growth;
    (match tier with
    | Leaf ->
      Alcotest.test_case "checkpoint, restart, reconnect" `Quick
        test_serve_checkpoint_restart_reconnect
    | Root ->
      Alcotest.test_case "checkpoint refused, connection survives" `Quick
        test_root_checkpoint_refused);
  ]

let () =
  Alcotest.run "net"
    [
      ("addr", [ Alcotest.test_case "parse/print" `Quick test_addr_parse ]);
      ( "args",
        [
          Alcotest.test_case "connect rejects a bad timeout" `Quick
            test_connect_rejects_bad_timeout;
          Alcotest.test_case "run rejects a bad idle timeout" `Quick
            test_run_rejects_bad_idle_timeout;
        ] );
      ( "conn",
        [
          Alcotest.test_case "write to a stalled peer times out" `Quick
            test_client_write_times_out;
          Alcotest.test_case "partial frame keeps the input buffer's size" `Quick
            test_conn_partial_frame_keeps_size;
          Alcotest.test_case "reply above the 64 KiB input buffer" `Quick
            test_client_reply_above_buffer;
          Alcotest.test_case "pipelined replies in one read" `Quick
            test_client_pipelined_replies;
          Alcotest.test_case "reply written byte by byte" `Quick
            test_client_reply_byte_by_byte;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request round trips" `Quick test_wire_request_round_trips;
          Alcotest.test_case "response round trips" `Quick test_wire_response_round_trips;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "preamble" `Quick test_preamble;
          Alcotest.test_case "batch decode rolls back rejects" `Quick test_wire_batch_rollback;
          prop_wire_ingest_round_trip;
          prop_wire_batch_matches_groups;
          prop_wire_query_round_trip;
        ] );
      ( "scan",
        [
          Alcotest.test_case "every prefix is Incomplete" `Quick test_scan_every_prefix;
          Alcotest.test_case "two frames, positioned scan" `Quick test_scan_two_frames_and_pos;
          Alcotest.test_case "every bit flip detected" `Quick test_scan_bit_flips;
          Alcotest.test_case "oversized and overlong rejected" `Quick
            test_scan_oversized_and_overlong;
          prop_scan_split_stream;
        ] );
      ("serve", serve_cases Leaf);
      ("root", serve_cases Root);
    ]
