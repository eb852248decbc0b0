(** The clock every run duration in this library reads: elapsed times,
    throughput, [ns_per_point] and round trips. *)

val now : unit -> float
(** CLOCK_MONOTONIC, in seconds.  A wall clock can step, which makes a
    duration negative or huge. *)
