let magic = "SHSB"
let format_version = 1

let add_header buf =
  Buffer.add_string buf magic;
  Codec.put_varint buf format_version

let header_string () =
  let b = Buffer.create 8 in
  add_header b;
  Buffer.contents b

let read_header r =
  if Codec.remaining r < String.length magic then
    raise (Codec.Corrupt "missing snapshot header");
  let m = Codec.get_raw r (String.length magic) in
  if not (String.equal m magic) then
    Codec.corruptf "bad magic %S: not a snapshot file" m;
  let v = Codec.get_varint r in
  if v <> format_version then
    raise (Codec.Version_mismatch { found = v; expected = format_version })

let add_frame buf payload =
  Codec.put_varint buf (String.length payload);
  Buffer.add_string buf payload;
  Codec.put_u32 buf (Crc32.string payload)

let frame_string payload =
  let b = Buffer.create (String.length payload + 8) in
  add_frame b payload;
  Buffer.contents b

let read_frame r =
  let len = Codec.get_varint r in
  if Codec.remaining r < len + 4 then
    Codec.corruptf "truncated frame: %d payload + 4 CRC byte(s) declared, %d left"
      len (Codec.remaining r);
  let start = Codec.pos r in
  let payload = Codec.sub_reader r len in
  let stored = Codec.get_u32 r in
  let actual = Crc32.sub_bytes (Codec.src r) ~pos:start ~len in
  if stored <> actual then
    Codec.corruptf "frame CRC mismatch: stored %08x, computed %08x" stored
      actual;
  payload

let has_frame r = not (Codec.at_end r)

(* --- incremental decode -------------------------------------------- *)

type scan =
  | Incomplete
  | Frame of { payload : Codec.reader; consumed : int }

(* Streaming transports receive frames in arbitrary chunks, so truncation
   is the steady state, not corruption: only structurally impossible input
   (overlong varint, oversized declared length, CRC mismatch) raises;
   anything that a few more bytes could complete returns [Incomplete].
   The length prefix is read with a loop over refs, so a scan allocates
   only its result. *)
let scan_bytes ~max_len b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Frame.scan_frame: bad range";
  let limit = pos + len in
  (* the length-prefix varint, byte by byte; [body] stays -1 if the input
     ran out first *)
  let plen = ref 0 and shift = ref 0 and i = ref pos and body = ref (-1) in
  while !body < 0 && !i < limit do
    if !shift > 56 then Codec.corruptf "varint too long";
    let c = Char.code (Bytes.unsafe_get b !i) in
    plen := !plen lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    incr i;
    if c < 0x80 then begin
      if !plen < 0 then Codec.corruptf "varint overflow";
      body := !i
    end
  done;
  (* an overlong prefix is corrupt even when it is cut short *)
  if !body < 0 && !shift > 56 then Codec.corruptf "varint too long";
  if !body < 0 then Incomplete
  else begin
    let plen = !plen and body = !body in
    if plen > max_len then
      Codec.corruptf "frame payload length %d exceeds the %d-byte limit" plen
        max_len;
    if limit - body < plen + 4 then Incomplete
    else begin
      let stored =
        Int32.to_int (Bytes.get_int32_le b (body + plen)) land 0xFFFFFFFF
      in
      let actual = Crc32.sub_bytes b ~pos:body ~len:plen in
      if stored <> actual then
        Codec.corruptf "frame CRC mismatch: stored %08x, computed %08x" stored
          actual;
      Frame
        {
          payload = Codec.of_bytes b ~pos:body ~len:plen;
          consumed = body + plen + 4 - pos;
        }
    end
  end

let scan_frame ?(max_len = max_int) s ~pos ~len =
  scan_bytes ~max_len (Bytes.unsafe_of_string s) ~pos ~len

(* --- in-place encode ------------------------------------------------ *)

let varint_size n =
  let rec go n k = if n < 0x80 then k else go (n lsr 7) (k + 1) in
  go n 1

let framed_size plen = varint_size plen + plen + 4

let blit_frame payload dst pos =
  let plen = Buffer.length payload in
  let p = ref pos and n = ref plen in
  while !n >= 0x80 do
    Bytes.unsafe_set dst !p (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7;
    incr p
  done;
  Bytes.set dst !p (Char.unsafe_chr !n);
  let body = !p + 1 in
  Buffer.blit payload 0 dst body plen;
  let crc = Crc32.sub_bytes dst ~pos:body ~len:plen in
  Bytes.set_int32_le dst (body + plen) (Int32.of_int crc);
  body + plen + 4
