(** [shist loadgen] and [shist peek]: clients of any wire endpoint, a leaf
    [serve --listen] or an [aggregate] root. *)

module Addr := Sh_net.Addr

type config = {
  connect : Addr.t;
  connections : int;  (** concurrent connections (>= 1) *)
  batch : int;  (** points per ingest request (>= 1) *)
  count : int;  (** points to ingest across all connections (>= 0) *)
  dist : Traffic.dist;
  seed : int;
  query_mix : float;  (** queries per acked point (finite, >= 0) *)
  global_mix : float;  (** fraction of queries scoped [Global], in [\[0, 1\]] *)
  shutdown : bool;  (** send [Shutdown] when done *)
  timeout : float;  (** bound on every socket wait, seconds *)
  retries : int;  (** reconnect-and-resend budget per failure *)
}

type outcome = {
  acked : int;  (** points the server acknowledged *)
  spot_ok : bool;  (** every spot-checked window length lies in [\[0, window\]] *)
}

val check : config -> unit
(** Raises [Invalid_argument], naming the flag, on a bad [connections],
    [batch], [count], [query_mix] or [global_mix]. *)

val run : config -> outcome
(** Drive the endpoint with {!Traffic} — the key space and geometry come
    from its [Stats] — in rounds: one pipelined ingest request per
    connection, then paced queries.  A failed request is resent on a
    fresh connection (at least once, so a server restart never loses an
    acknowledged point).  Prints the [loadgen:] report: acks, throughput,
    wire bytes, round-trip quantiles, query counts and the spot check.
    Runs {!check} first. *)

val peek : timeout:float -> retries:int -> Addr.t -> unit
(** Print the [Global] window length, full-window range sum and current
    error of an endpoint with [%.17g], so two endpoints serving the same
    state print the same text. *)
