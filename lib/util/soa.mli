(** Struct-of-arrays row store: unboxed [float array] / [int array]
    columns sharing one length, with capacity-doubling growth.

    The allocation-free counterpart of ['a Vec.t] for records of floats
    and ints: a row lives spread across flat columns, so appending a row
    stores into preallocated arrays instead of boxing a record, and
    {!clear} keeps the backing arrays for reuse.  The [soa.allocations]
    registry gauge counts backing-array growths process-wide, mirroring
    [vec.allocations]. *)

type t

val allocations : Sh_obs.Metric.gauge
(** Backing-array growths across every Soa in the process. *)

val create : ?init_cap:int -> fcols:int -> icols:int -> unit -> t
(** A store with [fcols] float columns and [icols] int columns ([>= 1]
    total).  Raises [Invalid_argument] on a negative count or capacity. *)

val length : t -> int
val capacity : t -> int
val is_empty : t -> bool
val float_cols : t -> int
val int_cols : t -> int

val clear : t -> unit
(** Drop all rows, keeping the backing arrays (no allocation). *)

val add_row : t -> int
(** Append one row and return its index.  The new row's fields are
    unspecified (whatever the backing buffers held); set every column you
    later read.  Amortised O(1); doubles capacity when full. *)

val get_f : t -> col:int -> int -> float
val set_f : t -> col:int -> int -> float -> unit
val get_i : t -> col:int -> int -> int
val set_i : t -> col:int -> int -> int -> unit
(** Typed cell access.  Raise [Invalid_argument] on a row index outside
    [0 .. length - 1]; column indices are trusted (library-internal use). *)

val fcol : t -> int -> float array
val icol : t -> int -> int array
(** The backing array of a column, for hand-written hot loops: length is
    {!capacity} (>= {!length}), contents beyond [length - 1] are
    unspecified, and the array is only valid until the next growth. *)

val copy : t -> t
(** An independent copy of the rows, with capacity trimmed to {!length}:
    later writes to either store never show in the other. *)
