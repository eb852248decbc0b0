(** Misra-Gries heavy hitters: one-pass frequency estimation over a
    stream of (discretised) values in O(capacity) space.

    Guarantee: for every value v with true count c(v) over n stream
    points, the reported estimate e(v) satisfies
    [c(v) - n / (capacity + 1) <= e(v) <= c(v)], so every value occurring
    more than [n / (capacity + 1)] times is present in the summary.
    Complements the histogram synopses with a frequency view (fault /
    flow-type streams in the paper's introduction). *)

type t

val create : capacity:int -> t
(** Track at most [capacity] candidate values ([>= 1]). *)

val add : ?count:int -> t -> float -> unit
(** Observe a value ([count] occurrences at once, default 1). *)

val total : t -> int
(** Stream length so far (sum of counts). *)

val estimate : t -> float -> int
(** Estimated count for a value; 0 when not tracked. *)

val heavy_hitters : t -> threshold:float -> (float * int) list
(** Values whose estimated frequency is at least [threshold] (a fraction
    of the stream), with estimates, most frequent first.  Guaranteed to
    include every value with true frequency
    [>= threshold + 1 / (capacity + 1)]. *)

val tracked : t -> (float * int) list
(** Full summary contents, most frequent first. *)

(** {2 Introspection} *)

type work_counters = {
  observations : int;  (** stream length so far — equals {!total} *)
  adds : int;  (** {!add} calls *)
  decrement_rounds : int;  (** Misra-Gries decrement steps performed *)
  evictions : int;  (** counters dropped at zero during those steps *)
}

val work_counters : t -> work_counters
(** Cumulative work accounting of this summary, in its own fields — the
    same accessor shape as [Fixed_window.work_counters].  No metric
    series backs it, so {!Sh_obs.Obs.reset} leaves it (and {!total})
    unchanged. *)
