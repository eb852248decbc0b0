(** Snapshot file framing: a magic + format-version header followed by a
    sequence of CRC-guarded, length-prefixed frames.

    {v
    file   := header frame*
    header := magic "SHSB" (4 bytes) | format_version (varint)
    frame  := payload_len (varint) | payload bytes | crc32(payload) (u32 LE)
    v}

    Readers verify the magic, the version, each frame's length against the
    bytes actually present, and each frame's CRC before handing the payload
    to a decoder — so a decoder never sees torn or bit-flipped bytes. *)

val magic : string
(** ["SHSB"] — stream-histogram snapshot binary. *)

val format_version : int
(** Current on-disk format version.  Bump on any layout change; readers
    raise {!Codec.Version_mismatch} on anything else (see DESIGN.md §11
    for the bump policy). *)

val add_header : Buffer.t -> unit
val header_string : unit -> string

val read_header : Codec.reader -> unit
(** Verify magic and version.  Raises {!Codec.Corrupt} on a bad magic or
    truncated header, {!Codec.Version_mismatch} on a foreign version. *)

val add_frame : Buffer.t -> string -> unit
(** Append one frame wrapping [payload]. *)

val frame_string : string -> string
(** One frame wrapping [payload], as a standalone string. *)

val read_frame : Codec.reader -> Codec.reader
(** Read the next frame: verifies length and CRC, advances the outer
    reader past the frame, and returns a bounded reader over the payload.
    Raises {!Codec.Corrupt} on truncation or checksum mismatch. *)

val has_frame : Codec.reader -> bool
(** Whether any bytes remain (a further frame is expected). *)

(** {2 Incremental decode}

    Streaming transports (the [Sh_net] wire protocol) receive frames in
    arbitrary chunks; {!scan_frame} distinguishes "not enough bytes yet"
    from structural corruption without consuming input, so a socket reader
    can buffer and retry. *)

type scan =
  | Incomplete
      (** The range could still be a prefix of a valid frame — read more
          bytes and rescan. *)
  | Frame of { payload : Codec.reader; consumed : int }
      (** One whole CRC-verified frame starts at [pos]: [payload] is a
          bounded reader over its payload bytes, [consumed] the total
          frame size (length prefix + payload + CRC). *)

val scan_frame : ?max_len:int -> string -> pos:int -> len:int -> scan
(** Scan [s.[pos .. pos+len)] for one leading frame.  Raises
    {!Codec.Corrupt} only on structural damage — an overlong length
    varint, a declared payload length above [max_len] (default
    unbounded), a CRC mismatch — and returns {!Incomplete} on mere
    truncation.  Raises [Invalid_argument] if the range is out of
    bounds. *)

val scan_bytes : max_len:int -> bytes -> pos:int -> len:int -> scan
(** {!scan_frame} over a byte buffer, in place (the length limit is
    required here, so a scan allocates nothing but its result): the payload reader reads
    the buffer itself, so it is valid only until the buffer's owner next
    writes that range.  A connection's input buffer is scanned this way,
    with no copy of the bytes it holds. *)

(** {2 In-place encode} *)

val framed_size : int -> int
(** Bytes a frame of a [plen]-byte payload takes on the wire. *)

val blit_frame : Buffer.t -> bytes -> int -> int
(** [blit_frame payload dst pos] writes the frame wrapping [payload]'s
    contents into [dst] at [pos] — the same bytes {!add_frame} appends —
    and returns the offset just past it.  The caller provides
    [framed_size (Buffer.length payload)] bytes of room; nothing is
    allocated. *)
