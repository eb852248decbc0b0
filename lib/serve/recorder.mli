(** [shist serve --record]: continuous evaluation of an in-process run as
    JSONL samples.

    One {!Stream_histogram.Exact_window} per key mirrors that shard's
    window on the caller, so a sample can score the engine's histogram
    against the exact values it summarises and report that SSE ([sse])
    next to the V-optimal optimum ([sse_opt]): the paper's
    SSE ≤ (1+ε)·OPT bound, checked against state.  The spot-checked key
    rotates sample by sample.  After a restore the baselines start empty
    while the engine windows do not, so a key's spot check is valid only
    once its baseline has filled.

    A sample's columns: [batches], [items], [ns_per_point] since the
    previous sample, [spot_key], [spot_n], [spot_valid], [sse], [sse_opt],
    [resident_words] (the major heap's size, free space included),
    [refresh_steals] and the non-empty latency trackers' quantiles in
    seconds.  All but [ns_per_point], [resident_words] and
    [latency] are deterministic for a fixed command line. *)

type t

val create : Sh_par.Shard_engine.t -> file:string -> restored:bool -> window:int -> buckets:int -> t
(** Open [file] for appending.  [window] and [buckets] are the engine's
    geometry; [restored] says its windows did not start empty. *)

val observe : t -> keys:int array -> values:float array -> len:int -> unit
(** Mirror a batch the engine has just ingested with
    {!Sh_par.Shard_engine.ingest_columns}: row [i < len] is the point
    [values.(i)] for key [keys.(i)]. *)

val sample : t -> unit
(** Append one sample line and flush. *)

val close : t -> unit
(** Append a final sample, close the file and print the [record:] line. *)
