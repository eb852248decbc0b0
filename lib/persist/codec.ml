exception Corrupt of string
exception Version_mismatch of { found : int; expected : int }

let corruptf fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- writers ------------------------------------------------------- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))
let put_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let put_varint buf n =
  if n < 0 then invalid_arg "Codec.put_varint: negative";
  (* A loop, not a local recursive function closing over [buf], so a
     call allocates nothing. *)
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

let put_bool buf b = put_u8 buf (if b then 1 else 0)
let put_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_float_array buf a =
  put_varint buf (Array.length a);
  for i = 0 to Array.length a - 1 do
    put_float buf a.(i)
  done

(* --- readers ------------------------------------------------------- *)

type reader = { src : bytes; mutable pos : int; limit : int }

let of_bytes src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Codec.of_bytes: bad range";
  { src; pos; limit = pos + len }

(* Readers never write, so a string can be read in place. *)
let of_string ?(pos = 0) ?len src =
  let len = match len with None -> String.length src - pos | Some l -> l in
  if pos < 0 || len < 0 || pos + len > String.length src then
    invalid_arg "Codec.of_string: bad range";
  of_bytes (Bytes.unsafe_of_string src) ~pos ~len

let src r = r.src
let pos r = r.pos
let remaining r = r.limit - r.pos
let at_end r = r.pos >= r.limit

let need r n what =
  if r.limit - r.pos < n then
    corruptf "truncated input: needed %d byte(s) for %s, %d left" n what
      (r.limit - r.pos)

let skip r n =
  need r n "skipped bytes";
  r.pos <- r.pos + n

let sub_reader r n =
  need r n "sub-frame";
  let s = { src = r.src; pos = r.pos; limit = r.pos + n } in
  r.pos <- r.pos + n;
  s

let get_u8 r =
  need r 1 "u8";
  let c = Char.code (Bytes.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

let get_u32 r =
  need r 4 "u32";
  let v = Int32.to_int (Bytes.get_int32_le r.src r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let get_varint r =
  (* Shifts 0,7,...,56 cover the 62-bit non-negative int range; a
     continuation past shift 56, or a decoded value with the sign bit set,
     cannot come from [put_varint].  A loop over refs, not a local
     recursive function, so a call allocates nothing. *)
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 56 then corruptf "varint too long";
    let b = get_u8 r in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b >= 0x80
  done;
  if !acc < 0 then corruptf "varint overflow";
  !acc

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corruptf "bad bool byte %d" n

let get_float r =
  need r 8 "float";
  let v = Int64.float_of_bits (Bytes.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_raw r n =
  need r n "raw bytes";
  let s = Bytes.sub_string r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_string r =
  let n = get_varint r in
  get_raw r n

let get_float_array r =
  let n = get_varint r in
  if n > remaining r / 8 then
    corruptf "float array length %d exceeds %d remaining byte(s)" n
      (remaining r);
  (* read in place: a [get_float] call per element would box each float *)
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    a.(i) <- Int64.float_of_bits (Bytes.get_int64_le r.src (r.pos + (8 * i)))
  done;
  r.pos <- r.pos + (8 * n);
  a

let expect_end r ~what =
  if not (at_end r) then
    corruptf "%d trailing byte(s) after %s" (remaining r) what
