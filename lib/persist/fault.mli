(** Injectable failure points for the persistence layer.

    A test arms exactly one injection; the next atomic file write consumes
    it and simulates the corresponding failure.  This lets the test suite
    prove the crash-consistency story instead of asserting it: every
    partial or mangled write must either leave the previous checkpoint
    restorable or make [restore] raise a typed error — never succeed with
    silently wrong state.

    The registry is a single global slot intended for tests on one domain;
    it is not synchronised across domains. *)

type injection =
  | Truncate_at of int
      (** Write only the first [k] bytes of the image, then publish it via
          rename anyway — models a torn write that the filesystem promoted
          (e.g. rename reordered before the data blocks reached disk). *)
  | Flip_bit of int
      (** Flip bit [i] (byte [i/8], bit [i mod 8]) of the image and publish
          it — models post-rename media corruption. *)
  | Crash_after_frames of int
      (** Crash after [n] frames of the payload have been written to the
          temp file: the temp file is left behind, the rename never
          happens, the previous checkpoint (if any) is untouched.  If [n]
          is at least the frame count, the crash lands between the last
          write and the rename. *)
  | Crash_before_rename
      (** Write the complete image to the temp file, then crash just
          before the rename. *)

exception Injected of string
(** Raised by the writer at the simulated crash point ([Crash_*]
    injections only; the mangling injections return normally, the damage
    surfaces at [restore] time). *)

val arm : injection -> unit
(** Arm an injection for the next atomic write (replacing any armed one). *)

val disarm : unit -> unit
(** Clear the armed injection, if any.  The fault harness's reset
    (test_persist's "disarm"); ROADMAP items 4(c) and 19 reuse it. *)

val armed : unit -> injection option
(** Peek at the armed injection without consuming it.  The only view of
    the slot: test_persist's fault matrices check with it that a write
    consumed its injection (items 4(c) and 19 extend them). *)

val take : unit -> injection option
(** Consume the armed injection: returns it, disarms, and counts it as
    fired.  Used by the writer; injections are one-shot. *)

val fired_count : unit -> int
(** How many injections have fired since the program started.  Read by
    test_persist's "crash matrix"; items 4(c) and 19 reuse it. *)
