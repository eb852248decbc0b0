(** Shared parameter handling for the streaming histogram algorithms. *)

type refresh_policy =
  | Eager        (** rebuild the interval lists on every arrival (paper cost model) *)
  | Lazy         (** never rebuild on arrival; the first query rebuilds *)
  | Every of int (** rebuild on every k-th arrival; queries still force a rebuild *)
(** When the fixed-window maintainer rebuilds its interval lists relative to
    arrivals.  Queries ([current_error] / [current_histogram] / [herror])
    always see fresh lists regardless of the policy. *)

val validate_policy : refresh_policy -> refresh_policy
(** The policy itself; raises [Invalid_argument] on [Every k] with
    [k < 1]. *)

val policy_to_string : refresh_policy -> string
(** ["eager"], ["lazy"], or ["every:<k>"] — the CLI / report spelling. *)

val policy_of_string : string -> refresh_policy option
(** Inverse of {!policy_to_string}; [None] on anything else. *)

type t = private {
  buckets : int;  (** B, the space budget in buckets; >= 1 *)
  epsilon : float;(** the approximation precision; > 0 *)
  delta : float;  (** the per-level interval slack, epsilon / (2 B) as in the paper *)
}

val make : buckets:int -> epsilon:float -> t
(** Validates and derives [delta = epsilon /. (2. *. buckets)].
    Raises [Invalid_argument] on non-positive arguments. *)

val make_with_delta : buckets:int -> epsilon:float -> delta:float -> t
(** Same, but with an explicit [delta] — used by the delta-split ablation
    benchmark to decouple the interval slack from epsilon. *)
