(** Minimal growable array (OCaml 5.1 predates stdlib [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the end; amortised O(1). *)

val get : 'a t -> int -> 'a
(** 0-based.  Raises [Invalid_argument] when out of bounds. *)

val last : 'a t -> 'a
(** Raises [Invalid_argument] when empty. *)

val iter : ('a -> unit) -> 'a t -> unit
