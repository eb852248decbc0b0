(* Reflected CRC-32 with the IEEE polynomial 0xEDB88320.  The 256-entry
   table is built once on first use; entries fit in an OCaml int on 64-bit
   platforms, so the hot loop is all unboxed int arithmetic. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let sub_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.sub: range out of bounds";
  let t = Lazy.force table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Reading a string through [Bytes.unsafe_of_string] is safe: nothing
   here writes. *)
let sub s ~pos ~len = sub_bytes (Bytes.unsafe_of_string s) ~pos ~len

let string s = sub s ~pos:0 ~len:(String.length s)
