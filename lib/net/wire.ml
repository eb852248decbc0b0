module Codec = Sh_persist.Codec
module Frame = Sh_persist.Frame
module Q = Stream_histogram.Query_op

let magic = "SHNW"
let protocol_version = 4
let preamble_len = 5

let preamble =
  let b = Buffer.create preamble_len in
  Buffer.add_string b magic;
  Codec.put_u8 b protocol_version;
  Buffer.contents b

let check_preamble s =
  if String.length s <> preamble_len then
    Codec.corruptf "preamble: %d byte(s), expected %d" (String.length s)
      preamble_len;
  if not (String.equal (String.sub s 0 4) magic) then
    Codec.corruptf "bad protocol magic %S: not a shist peer" (String.sub s 0 4);
  let v = Char.code s.[4] in
  if v <> protocol_version then
    raise (Codec.Version_mismatch { found = v; expected = protocol_version })

let max_frame_payload = 1 lsl 24

(* --- messages ------------------------------------------------------- *)

type request =
  | Ingest of (int * float array) array
  | Query of (Q.scope * Q.t) array
  | Stats
  | Metrics
  | Checkpoint
  | Ping
  | Shutdown

type stats = {
  shards : int;
  window : int;
  buckets : int;
  total_points : int;
  batches : int;
  queries : int;
  backpressure_waits : int;
  snapshots_published : int;
}

type response =
  | Ack of int
  | Answers of float array
  | Answers_partial of { answers : float array; leaves_missing : int }
  | Stats_reply of stats
  | Metrics_reply of string
  | Checkpointed of string
  | Pong
  | Shutting_down
  | Error_reply of string

let points_in_groups groups =
  Array.fold_left (fun n (_, vs) -> n + Array.length vs) 0 groups

(* --- request/response tags (one byte, request < 0x80 <= response) --- *)

let tag_ingest = 0x01
let tag_query = 0x02
let tag_stats = 0x03
let tag_metrics = 0x04
let tag_checkpoint = 0x05
let tag_ping = 0x06
let tag_shutdown = 0x07
let tag_ack = 0x81
let tag_answers = 0x82
let tag_stats_reply = 0x83
let tag_metrics_reply = 0x84
let tag_checkpointed = 0x85
let tag_pong = 0x86
let tag_shutting_down = 0x87
let tag_answers_partial = 0x89
let tag_error = 0xFF

(* 0x08 / 0x88 carried the v2 Snapshot request and its reply; v3 retired
   them, and a new message must not reuse those tags. *)

(* Query sub-tags live with the variant itself: {!Stream_histogram.Query_op}
   owns [put]/[get]/[put_scope]/[get_scope], so the wire encoding cannot
   drift from the engine's vocabulary. *)

(* --- encode --------------------------------------------------------- *)

let frame_of buf = Frame.frame_string (Buffer.contents buf)

let add_request buf req =
  match req with
  | Ingest groups ->
    Codec.put_u8 buf tag_ingest;
    Codec.put_varint buf (Array.length groups);
    Array.iter
      (fun (k, vs) ->
        if k < 0 then invalid_arg "Wire.add_request: negative key";
        Codec.put_varint buf k;
        Codec.put_float_array buf vs)
      groups
  | Query qs ->
    Codec.put_u8 buf tag_query;
    Codec.put_varint buf (Array.length qs);
    Array.iter
      (fun (scope, q) ->
        Q.put_scope buf scope;
        Q.put buf q)
      qs
  | Stats -> Codec.put_u8 buf tag_stats
  | Metrics -> Codec.put_u8 buf tag_metrics
  | Checkpoint -> Codec.put_u8 buf tag_checkpoint
  | Ping -> Codec.put_u8 buf tag_ping
  | Shutdown -> Codec.put_u8 buf tag_shutdown

let encode_request req =
  let buf = Buffer.create 64 in
  add_request buf req;
  frame_of buf

let add_response buf resp =
  match resp with
  | Ack n ->
    Codec.put_u8 buf tag_ack;
    Codec.put_varint buf n
  | Answers a ->
    Codec.put_u8 buf tag_answers;
    Codec.put_float_array buf a
  | Answers_partial { answers; leaves_missing } ->
    Codec.put_u8 buf tag_answers_partial;
    Codec.put_float_array buf answers;
    Codec.put_varint buf leaves_missing
  | Stats_reply s ->
    Codec.put_u8 buf tag_stats_reply;
    Codec.put_varint buf s.shards;
    Codec.put_varint buf s.window;
    Codec.put_varint buf s.buckets;
    Codec.put_varint buf s.total_points;
    Codec.put_varint buf s.batches;
    Codec.put_varint buf s.queries;
    Codec.put_varint buf s.backpressure_waits;
    Codec.put_varint buf s.snapshots_published
  | Metrics_reply text ->
    Codec.put_u8 buf tag_metrics_reply;
    Codec.put_string buf text
  | Checkpointed path ->
    Codec.put_u8 buf tag_checkpointed;
    Codec.put_string buf path
  | Pong -> Codec.put_u8 buf tag_pong
  | Shutting_down -> Codec.put_u8 buf tag_shutting_down
  | Error_reply msg ->
    Codec.put_u8 buf tag_error;
    Codec.put_string buf msg

let encode_response resp =
  let buf = Buffer.create 64 in
  add_response buf resp;
  frame_of buf

(* --- ingest batches ---------------------------------------------------- *)

module Batch = struct
  type t = {
    mutable keys : int array;
    mutable values : float array;
    mutable points : int;
    mutable counts : int array;
    mutable requests : int;
  }

  let create () = { keys = [||]; values = [||]; points = 0; counts = [||]; requests = 0 }

  let clear b =
    b.points <- 0;
    b.requests <- 0

  (* Room for [n] more rows: the columns double, so a batch reused round
     after round stops allocating once it has held its largest round. *)
  let reserve b n =
    let need = b.points + n in
    let cap = Array.length b.values in
    if need > cap then begin
      let cap = max need (2 * cap) in
      let keys = Array.make cap 0 and values = Array.make cap 0.0 in
      Array.blit b.keys 0 keys 0 b.points;
      Array.blit b.values 0 values 0 b.points;
      b.keys <- keys;
      b.values <- values
    end

  (* Close the request whose rows start at row [start]. *)
  let close_request b start =
    if b.requests = Array.length b.counts then begin
      let counts = Array.make (max 8 (2 * b.requests)) 0 in
      Array.blit b.counts 0 counts 0 b.requests;
      b.counts <- counts
    end;
    b.counts.(b.requests) <- b.points - start;
    b.requests <- b.requests + 1
end

(* --- decode --------------------------------------------------------- *)

(* The load behind [Bytes.get_int64_le] (bounds-checked), called directly
   so that the decode loop keeps each value unboxed. *)
external get_int64_ne : bytes -> int -> int64 = "%caml_bytes_get64"
external swap64 : int64 -> int64 = "%bswap_int64"

let get_float_le src pos =
  let bits = get_int64_ne src pos in
  Int64.float_of_bits (if Sys.big_endian then swap64 bits else bits)
  [@@inline]

(* The one ingest validator.  Appends the payload's rows (the request tag
   already read) to [b] as one request and checks, in order: the group
   count and every run length against the bytes left, every value
   finite, no trailing bytes.  Any failure rolls the request's rows back
   and raises {!Codec.Corrupt}.  A key outside [\[0, shards)] is a
   semantic rejection instead: the payload is still checked whole, then
   the rows are rolled back and the result is [false].  [on_group] sees
   each run's key and length once its rows are in. *)
let get_ingest ?(on_group = fun _ _ -> ()) b ~shards r =
  let start = b.Batch.points in
  match
    let n = Codec.get_varint r in
    (* each group needs at least a key byte and a length byte *)
    if n > Codec.remaining r / 2 then
      Codec.corruptf "ingest group count %d exceeds %d remaining byte(s)" n
        (Codec.remaining r);
    let in_range = ref true in
    for _ = 1 to n do
      let k = Codec.get_varint r in
      let len = Codec.get_varint r in
      if len > Codec.remaining r / 8 then
        Codec.corruptf "float array length %d exceeds %d remaining byte(s)" len
          (Codec.remaining r);
      if k >= shards then in_range := false;
      let src = Codec.src r and pos = Codec.pos r in
      Codec.skip r (8 * len);
      Batch.reserve b len;
      let row = b.Batch.points in
      let keys = b.Batch.keys and values = b.Batch.values in
      for i = 0 to len - 1 do
        let v = get_float_le src (pos + (8 * i)) in
        if not (Float.is_finite v) then
          Codec.corruptf "non-finite value in ingest frame (key %d)" k;
        keys.(row + i) <- k;
        values.(row + i) <- v
      done;
      b.Batch.points <- row + len;
      on_group k len
    done;
    Codec.expect_end r ~what:"request";
    !in_range
  with
  | true ->
    Batch.close_request b start;
    true
  | false ->
    b.Batch.points <- start;
    false
  | exception e ->
    b.Batch.points <- start;
    raise e

(* [decode_request]'s ingest arm: the same validator over a private batch,
   each run copied out as its rows land. *)
let get_groups r =
  let b = Batch.create () in
  (* sized once: the payload cannot hold more points than this *)
  Batch.reserve b (Codec.remaining r / 8);
  let groups = ref [] in
  let on_group k len =
    groups := (k, Array.sub b.Batch.values (b.Batch.points - len) len) :: !groups
  in
  ignore (get_ingest ~on_group b ~shards:max_int r : bool);
  Array.of_list (List.rev !groups)

(* Every request but [Ingest], its tag already read. *)
let get_request t r =
  if t = tag_query then begin
    let n = Codec.get_varint r in
    if n > Codec.remaining r / 2 then
      Codec.corruptf "query count %d exceeds %d remaining byte(s)" n
        (Codec.remaining r);
    Query
      (Array.init n (fun _ ->
           let scope = Q.get_scope r in
           (scope, Q.get r)))
  end
  else if t = tag_stats then Stats
  else if t = tag_metrics then Metrics
  else if t = tag_checkpoint then Checkpoint
  else if t = tag_ping then Ping
  else if t = tag_shutdown then Shutdown
  else Codec.corruptf "bad request tag %d" t

let decode_request r =
  let t = Codec.get_u8 r in
  if t = tag_ingest then Ingest (get_groups r)
  else begin
    let req = get_request t r in
    Codec.expect_end r ~what:"request";
    req
  end

type decoded = Ingested | Bad_key | Request of request

let decode_request_into b ~shards r =
  let t = Codec.get_u8 r in
  if t = tag_ingest then if get_ingest b ~shards r then Ingested else Bad_key
  else begin
    let req = get_request t r in
    Codec.expect_end r ~what:"request";
    Request req
  end

let decode_response r =
  let t = Codec.get_u8 r in
  let resp =
    if t = tag_ack then Ack (Codec.get_varint r)
    else if t = tag_answers then Answers (Codec.get_float_array r)
    else if t = tag_answers_partial then begin
      let answers = Codec.get_float_array r in
      let leaves_missing = Codec.get_varint r in
      Answers_partial { answers; leaves_missing }
    end
    else if t = tag_stats_reply then begin
      let shards = Codec.get_varint r in
      let window = Codec.get_varint r in
      let buckets = Codec.get_varint r in
      let total_points = Codec.get_varint r in
      let batches = Codec.get_varint r in
      let queries = Codec.get_varint r in
      let backpressure_waits = Codec.get_varint r in
      let snapshots_published = Codec.get_varint r in
      Stats_reply
        {
          shards;
          window;
          buckets;
          total_points;
          batches;
          queries;
          backpressure_waits;
          snapshots_published;
        }
    end
    else if t = tag_metrics_reply then Metrics_reply (Codec.get_string r)
    else if t = tag_checkpointed then Checkpointed (Codec.get_string r)
    else if t = tag_pong then Pong
    else if t = tag_shutting_down then Shutting_down
    else if t = tag_error then Error_reply (Codec.get_string r)
    else Codec.corruptf "bad response tag %d" t
  in
  Codec.expect_end r ~what:"response";
  resp
