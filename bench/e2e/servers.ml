(* One workload's serving tree: [leaves] `shist serve --listen` processes,
   plus a `shist aggregate` root in front of them when there are several.
   Set-up is what a user waits for before the tree serves full windows:
   spawn, connect, and fill every key's window. *)

module Addr = Sh_net.Addr
module Client = Sh_net.Client
module Wire = Sh_net.Wire

type proc = {
  name : string;
  pid : int;
  addr : Addr.t;
  admin : Client.t;  (** an otherwise idle connection for Stats / Metrics / Shutdown *)
}

type t = {
  leaves : proc list;
  root : proc option;
  conns : Client.t array;  (** the generator's two load connections, to the entry point *)
  ks : Load.keyspace;
}

let entry t = match t.root with Some r -> r | None -> List.hd t.leaves
let procs t = t.leaves @ Option.to_list t.root

let serve_args (spec : Spec.t) addr =
  [
    "serve"; "--listen"; Addr.to_string addr; "--domains"; "1";
    "--shards"; string_of_int spec.shards; "--window"; string_of_int spec.window;
    "--buckets"; string_of_int spec.buckets; "--epsilon"; Printf.sprintf "%.17g" spec.epsilon;
    "--refresh"; Printf.sprintf "every:%d" spec.every;
  ]

let start_proc name args =
  let addr = Procs.sock name in
  let pid = Procs.spawn ~name (args addr) in
  { name; pid; addr; admin = Procs.connect addr }

let ingest_checked client groups =
  let n = Wire.points_in_groups groups in
  let acked = Client.ingest client groups in
  if acked <> n then failwith (Printf.sprintf "set-up ingest acked %d of %d points" acked n)

(* Start the tree and fill every window; returns the tree and its set-up
   time in seconds. *)
let setup (spec : Spec.t) ~seed =
  let t0 = Stats.now () in
  let leaves =
    List.init spec.leaves (fun i -> start_proc (Printf.sprintf "leaf%d" i) (serve_args spec))
  in
  let root =
    if spec.leaves = 1 then None
    else
      Some
        (start_proc "root" (fun addr ->
             "aggregate"
             :: List.concat_map (fun l -> [ "--connect"; Addr.to_string l.addr ]) leaves
             @ [ "--listen"; Addr.to_string addr ]))
  in
  let entry_addr = match root with Some r -> r.addr | None -> (List.hd leaves).addr in
  let conns = Array.init 2 (fun _ -> Procs.connect entry_addr) in
  let ks = Load.keyspace spec ~seed in
  List.iter (ingest_checked conns.(0)) (Load.prefill spec ks);
  ({ leaves; root; conns; ks }, Stats.now () -. t0)

(* Orderly stop: close the load connections, send Shutdown to the root and
   then to each leaf, and wait for every process to exit.  Returns the
   processes that did not exit with code 0. *)
let teardown t =
  Array.iter Client.close t.conns;
  let stop p =
    (try Client.shutdown p.admin with _ -> ());
    Client.close p.admin;
    let code = Procs.wait_exit p.pid in
    if code = 0 then None else Some (Printf.sprintf "%s exited with %d" p.name code)
  in
  List.filter_map stop (Option.to_list t.root @ t.leaves)

(* Registry counters of every serving process, summed by family.  Parses
   the Prometheus text of the Metrics reply; labelled series of one family
   (one per Fixed_window instance, say) add up. *)
let counters t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' then
            match String.rindex_opt line ' ' with
            | None -> ()
            | Some i -> (
              let series = String.sub line 0 i in
              let family =
                match String.index_opt series '{' with
                | Some j -> String.sub series 0 j
                | None -> series
              in
              match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
              | Some v ->
                let sum = Option.value ~default:0.0 (Hashtbl.find_opt tbl family) in
                Hashtbl.replace tbl family (v +. sum)
              | None -> ()))
        (String.split_on_char '\n' (Client.metrics p.admin)))
    (procs t);
  tbl

let stats t = Client.stats (entry t).admin

let sum_procs t f =
  List.fold_left
    (fun acc p -> match (acc, f p.pid) with Some a, Some v -> Some (a +. v) | _ -> None)
    (Some 0.0) (procs t)

(* Summed peak RSS of the serving processes, in MB. *)
let peak_rss_mb t = sum_procs t Procs.peak_rss_mb

(* Summed CPU time of the serving processes so far, in seconds. *)
let cpu_seconds t = sum_procs t Procs.cpu_seconds
