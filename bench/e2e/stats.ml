(* Clock and sample buffers.  Every duration in the benchmark is read from
   CLOCK_MONOTONIC (nanosecond resolution, no wall-clock steps); latency
   and layer-time samples are kept whole and reduced to order statistics
   at the end, so a percentile is exact for the samples taken. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = Float.of_int (now_ns ()) *. 1e-9

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Unix.sleepf d

type buf = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.0; n = 0 }

let add b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0.0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let count b = b.n
let append dst src = for i = 0 to src.n - 1 do add dst src.a.(i) done

(* Linear interpolation between order statistics; [None] without samples. *)
let quantile b p =
  if b.n = 0 then None else Some (Sh_util.Stats.quantile (Array.sub b.a 0 b.n) p)

let median b = quantile b 0.5
