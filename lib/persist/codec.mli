(** Primitive binary codec for snapshot payloads.

    Writers append to a [Buffer.t]; readers consume a bounded slice of a
    buffer.  Integers use unsigned LEB128 varints (1 byte for values below
    128 — the common case for lengths, counts, and policy tags), floats
    are IEEE 754 binary64 little-endian via [Int64.bits_of_float], so the
    round trip is bit-identical including subnormals and signed zeros.

    Every decoding failure — truncation, overlong varint, bad bool byte,
    trailing garbage — raises {!Corrupt} with a human-readable reason.
    Nothing here touches the filesystem. *)

exception Corrupt of string
(** The input is not a well-formed snapshot (truncated, checksum mismatch,
    bad tag, impossible field value, ...). *)

exception Version_mismatch of { found : int; expected : int }
(** The input is framed correctly but written by a different format
    version; the caller must not attempt to decode the payload. *)

val corruptf : ('a, unit, string, 'b) format4 -> 'a
(** [corruptf fmt ...] raises {!Corrupt} with a formatted message. *)

(** {1 Writers} *)

val put_u8 : Buffer.t -> int -> unit
(** Append the low 8 bits of the int as one byte. *)

val put_u32 : Buffer.t -> int -> unit
(** Append the low 32 bits as 4 little-endian bytes (used for CRCs). *)

val put_varint : Buffer.t -> int -> unit
(** Append a non-negative int as an unsigned LEB128 varint (at most 9
    bytes for the full 62-bit range).  Raises [Invalid_argument] on
    negative input. *)

val put_bool : Buffer.t -> bool -> unit
val put_float : Buffer.t -> float -> unit

val put_string : Buffer.t -> string -> unit
(** Varint length followed by the raw bytes. *)

val put_float_array : Buffer.t -> float array -> unit
(** Varint length followed by the elements. *)

(** {1 Readers} *)

type reader
(** A cursor over a bounded byte range of a byte buffer.  A reader never
    writes, and it does not copy: it sees the buffer as it is when each
    byte is read, so its owner must not write the range while the reader
    is in use. *)

val of_bytes : bytes -> pos:int -> len:int -> reader
(** Reader over [b.[pos .. pos+len)].  Raises [Invalid_argument] if the
    range is out of bounds. *)

val of_string : ?pos:int -> ?len:int -> string -> reader
(** Reader over [s.[pos .. pos+len)], read in place; defaults cover the
    whole string.  Raises [Invalid_argument] if the range is out of
    bounds. *)

val src : reader -> bytes
(** The underlying buffer (shared, not copied; never to be written
    through). *)

val pos : reader -> int
(** Current absolute offset into {!src}. *)

val remaining : reader -> int
val at_end : reader -> bool

val skip : reader -> int -> unit
(** [skip r n] advances past the next [n] bytes, which the caller reads
    itself from {!src} at the old {!pos}.  Raises {!Corrupt} if fewer
    than [n] bytes remain. *)

val sub_reader : reader -> int -> reader
(** [sub_reader r n] carves the next [n] bytes into their own bounded
    reader and advances [r] past them.  Raises {!Corrupt} if fewer than
    [n] bytes remain. *)

val get_u8 : reader -> int
val get_u32 : reader -> int
val get_varint : reader -> int
val get_bool : reader -> bool
val get_float : reader -> float
val get_string : reader -> string
val get_float_array : reader -> float array
val get_raw : reader -> int -> string
(** [get_raw r n] reads exactly [n] raw bytes (no length prefix). *)

val expect_end : reader -> what:string -> unit
(** Raise {!Corrupt} if the reader has bytes left — decoding a payload
    must consume it exactly. *)
