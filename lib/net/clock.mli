(** The clock every duration in the networked tiers reads: connection
    idleness, run elapsed times, throughput and round trips. *)

val now : unit -> float
(** CLOCK_MONOTONIC, in seconds.  A wall clock can step, which makes a
    duration negative or huge. *)
