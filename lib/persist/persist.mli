(** Durable snapshot I/O: atomic file publication, typed failure modes,
    and the [persist.*] telemetry series.

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

(** {2 Telemetry}

    Registered eagerly under [persist.*]; the checkpoint/restore call
    sites ([Shard_engine.checkpoint], [Shard_engine.restore_from]) bump
    the operation counters, file I/O here accounts bytes. *)

val c_snapshots : Sh_obs.Metric.counter
(** [persist.snapshots] — engine checkpoint operations. *)

val c_restores : Sh_obs.Metric.counter
(** [persist.restores] — successful restore operations. *)

val c_corrupt_rejections : Sh_obs.Metric.counter
(** [persist.corrupt_rejections] — restores rejected with {!Corrupt} or
    {!Version_mismatch}. *)

val c_bytes_written : Sh_obs.Metric.counter
(** [persist.bytes_written] — bytes handed to {!write_file_atomic}. *)

val c_bytes_read : Sh_obs.Metric.counter
(** [persist.bytes_read] — bytes loaded by {!read_file}. *)

val c_files_written : Sh_obs.Metric.counter
(** [persist.files_written] — successful atomic publications. *)

val c_faults_injected : Sh_obs.Metric.counter
(** [persist.faults_injected] — {!Fault} injections consumed. *)

val rejecting : (unit -> 'a) -> 'a
(** Run a restore thunk, counting {!Corrupt}/{!Version_mismatch} into
    [persist.corrupt_rejections] before re-raising. *)
