(** CRC-32 (IEEE 802.3 polynomial, reflected), the checksum guarding every
    snapshot frame.  Table-driven, no dependencies.  The reference vector is
    [string "123456789" = 0xCBF43926]. *)

val sub : string -> pos:int -> len:int -> int
(** CRC-32 of the byte range [\[pos, pos+len)] of the string.  No copy is
    made, so frame verification can run directly against a file image.
    Raises [Invalid_argument] if the range is out of bounds. *)

val sub_bytes : bytes -> pos:int -> len:int -> int
(** {!sub} over a byte buffer, for frames checked or written in place
    (a connection's input and output buffers). *)

val string : string -> int
(** CRC-32 of a whole string. *)
