module Rng = Sh_util.Rng
module Gk = Sh_gk.Gk
module Qop = Stream_histogram.Query_op
module Addr = Sh_net.Addr
module Clock = Sh_net.Clock
module Client = Sh_net.Client
module Wire = Sh_net.Wire

type config = {
  connect : Addr.t;
  connections : int;
  batch : int;
  count : int;
  dist : Traffic.dist;
  seed : int;
  query_mix : float;
  global_mix : float;
  shutdown : bool;
  timeout : float;
  retries : int;
}

type outcome = { acked : int; spot_ok : bool }

(* One ingest request of [b] arrivals, grouped by key in first-arrival
   order with each key's values in arrival order (shards are
   independent, so per-key order is the only order that matters). *)
let make_batch traffic b =
  let order = ref [] in
  let per_key = Hashtbl.create 64 in
  for _ = 1 to b do
    let k, v = Traffic.next traffic in
    match Hashtbl.find_opt per_key k with
    | Some l -> l := v :: !l
    | None ->
      Hashtbl.add per_key k (ref [ v ]);
      order := k :: !order
  done;
  Array.of_list
    (List.rev_map (fun k -> (k, Array.of_list (List.rev !(Hashtbl.find per_key k)))) !order)

let check c =
  if c.connections < 1 then invalid_arg "loadgen: --connections must be >= 1";
  if c.batch < 1 then invalid_arg "loadgen: --batch must be >= 1";
  if c.count < 0 then invalid_arg "loadgen: --count must be >= 0";
  if c.query_mix < 0.0 || not (Float.is_finite c.query_mix) then
    invalid_arg "loadgen: --query-mix must be a finite ratio >= 0";
  if c.global_mix < 0.0 || c.global_mix > 1.0 || not (Float.is_finite c.global_mix) then
    invalid_arg "loadgen: --global-mix must be a fraction in [0, 1]"

let run c =
  check c;
  let connect_one () =
    Client.connect ~timeout:c.timeout ~retries:c.retries ~retry_delay:0.2 c.connect
  in
  let conns = Array.init c.connections (fun _ -> connect_one ()) in
  (* Connections replaced after a failure: their wire bytes still count. *)
  let retired = ref [] in
  let close_all () = Array.iter (fun conn -> try Client.close conn with _ -> ()) conns in
  Fun.protect ~finally:close_all @@ fun () ->
  (* Learn the engine geometry from the server rather than flags: the
     keys and spot checks must fit whatever engine is actually serving. *)
  let st = Client.stats conns.(0) in
  let shards = st.Wire.shards in
  let window = st.Wire.window in
  let traffic = Traffic.create (Rng.create ~seed:c.seed) ~shards c.dist in
  let scope = Traffic.global_fraction ~shards c.global_mix in
  let rtt_ingest = Gk.create ~epsilon:0.001 in
  let rtt_query = Gk.create ~epsilon:0.001 in
  let reconnect i =
    retired := conns.(i) :: !retired;
    (try Client.close conns.(i) with _ -> ());
    conns.(i) <- connect_one ()
  in
  (* Send, then collect, resending the whole request on a fresh
     connection if this one died — at-least-once, so a server restart
     never costs an acknowledged point. *)
  let rec resend_sync ?(attempt = 0) i req =
    reconnect i;
    match Client.call conns.(i) req with
    | resp -> resp
    | exception Client.Net_error _ when attempt < c.retries ->
      resend_sync ~attempt:(attempt + 1) i req
  in
  let t0 = Clock.now () in
  let sent = ref 0 in
  let acked = ref 0 in
  let q_sent = ref 0 in
  let q_partial = ref 0 in
  let inflight = Array.make c.connections None in
  let round = ref 0 in
  while !sent < c.count do
    (* phase 1: one pipelined ingest request per connection *)
    for i = 0 to c.connections - 1 do
      inflight.(i) <- None;
      if !sent < c.count then begin
        let b = min c.batch (c.count - !sent) in
        sent := !sent + b;
        let req = Wire.Ingest (make_batch traffic b) in
        inflight.(i) <- Some (req, b, Clock.now ());
        try Client.send conns.(i) req
        with Client.Net_error _ | Unix.Unix_error _ ->
          (* collected (and resent) in phase 2 *)
          ()
      end
    done;
    (* phase 2: collect acks in send order *)
    for i = 0 to c.connections - 1 do
      match inflight.(i) with
      | None -> ()
      | Some (req, b, t_send) ->
        let resp =
          match Client.recv conns.(i) with
          | resp -> resp
          | exception (Client.Net_error _ | Unix.Unix_error _) when c.retries > 0 ->
            resend_sync i req
        in
        (match resp with
        | Wire.Ack n ->
          if n <> b then Printf.eprintf "loadgen: warning: acked %d of %d points\n%!" n b;
          acked := !acked + n
        | Wire.Error_reply msg -> failwith ("loadgen: server rejected ingest: " ^ msg)
        | _ -> failwith "loadgen: unexpected response to ingest");
        Gk.insert rtt_ingest (Clock.now () -. t_send)
    done;
    (* query traffic, paced against points acked so far *)
    if c.query_mix > 0.0 then begin
      let target = Float.to_int (c.query_mix *. Float.of_int !acked) in
      while !q_sent < target do
        let qb = min 64 (target - !q_sent) in
        let qs =
          Array.init qb (fun _ ->
              Traffic.random_query (Traffic.key_rng traffic) ~scope
                ~buckets:(max 1 st.Wire.buckets) ~window)
        in
        let i = !round mod c.connections in
        let tq = Clock.now () in
        let answers, missing =
          match Client.query_partial conns.(i) qs with
          | a -> a
          | exception (Client.Net_error _ | Unix.Unix_error _) when c.retries > 0 -> (
            match resend_sync i (Wire.Query qs) with
            | Wire.Answers a -> (a, 0)
            | Wire.Answers_partial { answers; leaves_missing } -> (answers, leaves_missing)
            | _ -> failwith "loadgen: unexpected response to query")
        in
        Gk.insert rtt_query (Clock.now () -. tq);
        if Array.length answers <> qb then failwith "loadgen: short answer vector";
        if missing > 0 then incr q_partial;
        q_sent := !q_sent + qb
      done
    end;
    incr round
  done;
  let elapsed = Clock.now () -. t0 in
  (* Spot-check the served state end to end: window lengths must sit in
     [0, window] for any engine that really ingested our stream. *)
  let spot_keys = min shards 8 in
  let spot, _spot_missing =
    Client.query_partial conns.(0) (Array.init spot_keys (fun k -> (Qop.Key k, Qop.Window_length)))
  in
  let spot_ok = Array.for_all (fun v -> v >= 0.0 && v <= Float.of_int window) spot in
  let st1 = Client.stats conns.(0) in
  if c.shutdown then (try Client.shutdown conns.(0) with _ -> ());
  let bytes f = List.fold_left (fun a conn -> a + f conn) 0 (Array.to_list conns @ !retired) in
  let bytes_out = bytes Client.bytes_out and bytes_in = bytes Client.bytes_in in
  Printf.printf "loadgen: %d/%d points acked over %d connection(s), batch %d, %s keys\n" !acked
    c.count c.connections c.batch (Traffic.dist_name c.dist);
  Printf.printf "elapsed %.3fs  throughput %.0f points/s\n" elapsed
    (Float.of_int !acked /. Float.max elapsed 1e-9);
  Printf.printf "wire: %d bytes out, %d bytes in, %.2f bytes/point on the wire\n" bytes_out
    bytes_in
    (Float.of_int (bytes_out + bytes_in) /. Float.max 1.0 (Float.of_int !acked));
  let print_rtt name g =
    if Gk.count g = 0 then Printf.printf "rtt %s: no samples\n" name
    else
      Printf.printf "rtt %s (ms): p50=%.3f p99=%.3f p999=%.3f over %d round trip(s)\n" name
        (1e3 *. Gk.quantile g 0.5) (1e3 *. Gk.quantile g 0.99) (1e3 *. Gk.quantile g 0.999)
        (Gk.count g)
  in
  print_rtt "ingest" rtt_ingest;
  print_rtt "query" rtt_query;
  if !q_sent > 0 then
    Printf.printf "queries: %d sent, %d degraded (partial) batch(es)\n" !q_sent !q_partial;
  Printf.printf "spot queries: %s (%d key(s), window lengths within [0, %d])\n"
    (if spot_ok then "ok" else "FAILED")
    spot_keys window;
  Printf.printf "server: %d total points\n" st1.Wire.total_points;
  { acked = !acked; spot_ok }

let peek ~timeout ~retries addr =
  let c = Client.connect ~timeout ~retries ~retry_delay:0.2 addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let w = (Client.stats c).Wire.window in
  let qs =
    [|
      (Qop.Global, Qop.Window_length);
      (Qop.Global, Qop.Range_sum { lo = 1; hi = w });
      (Qop.Global, Qop.Current_error);
    |]
  in
  let answers, missing = Client.query_partial c qs in
  (* %.17g: bit-faithful float text, so two endpoints answering the
     same state diff clean — the CI oracle comparison greps these. *)
  Printf.printf "global window_length answer=%.17g leaves_missing=%d\n" answers.(0) missing;
  Printf.printf "global range_sum[1,%d] answer=%.17g leaves_missing=%d\n" w answers.(1) missing;
  Printf.printf "global current_error answer=%.17g leaves_missing=%d\n" answers.(2) missing
