(** Durable snapshot I/O: atomic file publication, typed failure modes,
    and the [persist.*] telemetry families.

    A snapshot file is always published with write-to-temp + atomic
    rename ([path ^ ".tmp"], then [Sys.rename]), so readers observe either
    the previous complete file or the new complete file — never a torn
    one.  The armed {!Fault} injection (if any) is consumed here, which is
    what lets the test suite exercise crashes at every point of the write
    protocol.

    This module only moves validated bytes; framing lives in {!Frame} and
    payload decoding in the summary types themselves. *)

exception Corrupt of string
(** Re-export of {!Codec.Corrupt}: the file is not a well-formed snapshot. *)

exception Version_mismatch of { found : int; expected : int }
(** Re-export of {!Codec.Version_mismatch}. *)

val format_version : int
(** Alias of {!Frame.format_version}. *)

val write_file_atomic : path:string -> header:string -> frames:string list -> unit
(** Concatenate [header] and [frames] into [path ^ ".tmp"], then rename
    over [path].  Frame boundaries only matter to fault injection
    ([Crash_after_frames] counts them); the bytes are written verbatim.
    Raises [Fault.Injected] at a simulated crash point and [Sys_error] on
    real I/O failure — in both cases [path] still holds its previous
    contents (the mangling injections [Truncate_at]/[Flip_bit] deliberately
    publish a damaged image instead; see {!Fault}). *)

val read_file : string -> string
(** Read a whole snapshot file into memory.  Raises [Sys_error] if the
    file cannot be opened or read. *)

val rejecting : (unit -> 'a) -> 'a
(** Run a restore thunk.  A thunk that returns counts into
    [persist.restores]; one that raises {!Corrupt} or {!Version_mismatch}
    counts into [persist.corrupt_rejections] before the exception is
    re-raised.

    {b Telemetry.}  {!write_file_atomic}, {!read_file} and {!rejecting}
    each expose the five [persist.*] families: those two plus
    [persist.bytes_written] (bytes of each published image),
    [persist.files_written] (successful atomic publications) and
    [persist.bytes_read] (bytes {!read_file} loaded).  Injections are
    counted by {!Fault.fired_count}. *)
