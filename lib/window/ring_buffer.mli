(** Circular buffer over the most recent [capacity] stream values — the
    buffer M of Section 3 of the paper ("buffer M operates in a cyclic
    fashion... acts as a sliding window of length n over the data stream").

    Window-relative indices are 1-based: index 1 is the temporally oldest
    point in the window (the paper's M\[0\]), [length t] the newest. *)

type t

val create : capacity:int -> t
(** Empty buffer for a window of [capacity] points.  [capacity >= 1]. *)

val capacity : t -> int
val length : t -> int
val is_full : t -> bool

val push : t -> float -> unit
(** Append the next stream value, evicting the oldest once full. *)

val get : t -> int -> float
(** [get t i] is the i-th oldest point in the window, [1 <= i <= length t]. *)

val oldest : t -> float
(** Equivalent to [get t 1].  Raises [Invalid_argument] when empty. *)

val newest : t -> float
(** Equivalent to [get t (length t)].  Raises [Invalid_argument] when empty. *)

val to_array : t -> float array
(** Window contents oldest-first, as a fresh array of [length t] values. *)

val blit_to : t -> float array -> unit
(** Copy the window oldest-first into the prefix of the destination array,
    which must have length at least [length t].  Avoids allocation in the
    per-point wavelet rebuild. *)

val iteri : t -> (int -> float -> unit) -> unit
(** [iteri t f] applies [f i v] for every window index i oldest-first. *)

val clear : t -> unit
