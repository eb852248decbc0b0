(** Fixed-size domain pool — the zero-dependency parallel substrate.

    Built on stdlib [Domain] / [Mutex] / [Condition] only (no domainslib
    in the toolchain).  A pool of [domains] workers shares one task FIFO:
    [create ~domains:n] spawns [n - 1] domains and the submitting caller
    is the n-th worker — {!run} helps drain the queue while it waits, so
    a pool with [domains = 1] runs every task inline on the caller (the
    sequential baseline of the scaling benchmarks costs no threading
    overhead), and a [run] from inside a task cannot deadlock.

    Ownership discipline: the pool synchronises task hand-off (a task
    observes everything written before its submission, and the caller of
    {!run} observes everything the tasks wrote), but tasks that touch
    shared mutable structures must partition them or lock — see
    {!Shard_engine} for the per-shard pattern. *)

type t

val create : domains:int -> t
(** A pool of [domains] total workers ([>= 1]), spawning [domains - 1]
    domains.  Raises [Invalid_argument] otherwise. *)

val domains : t -> int

val run : t -> (unit -> 'a) array -> 'a array
(** Submit a batch and wait for all results, in order.  The tasks run on
    any pool domain, or on the caller, which helps run queued tasks while
    it waits.  Every task settles before [run] returns even on failure;
    the first exception (in array order) is then re-raised.  Raises
    [Invalid_argument] if the pool was shut down. *)

val shutdown : t -> unit
(** Drain remaining tasks, stop and join the worker domains.  Idempotent;
    subsequent submissions raise [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run the function, then {!shutdown} (also on exception). *)
