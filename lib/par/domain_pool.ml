(* Fixed-size domain pool on stdlib Domain/Mutex/Condition only (the
   toolchain has no domainslib).

   [create ~domains:n] spawns n - 1 worker domains; the caller is the
   n-th worker.  One FIFO of batches, one mutex and two conditions serve
   the whole pool: a [run] enqueues its batch once, and each task is
   claimed by index under the mutex.  A batch counts its unsettled tasks
   down; the task that settles it last broadcasts [settled].  The caller
   of [run] helps drain the queue until its batch settles, so a pool of 1
   domain degenerates to plain inline execution (no workers, no context
   switches) and a [run] from inside a task cannot deadlock the pool.
   [run] re-raises the first failure after the whole batch has settled,
   so shared state is never abandoned mid-batch. *)

type 'a batch = {
  thunks : (unit -> 'a) array;
  mutable next : int; (* first unclaimed task *)
  mutable pending : int; (* tasks not yet settled *)
  mutable results : 'a array; (* [||] until the first task returns *)
  mutable failure : (int * exn) option; (* the lowest-index failure *)
}

(* The queue holds batches of any result type. *)
type job = Job : 'a batch -> job [@@unboxed]

type t = {
  domains : int;
  q : job Queue.t; (* batches with unclaimed tasks, oldest first *)
  m : Mutex.t; (* guards [q], [stopping] and every queued batch's fields *)
  work : Condition.t; (* signalled on enqueue and on shutdown *)
  settled : Condition.t; (* broadcast when a batch's last task settles *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  c_tasks : Sh_obs.Metric.counter;
}

let domains t = t.domains

(* Called and returns with [m] held, the queue non-empty: claim the next
   task of the oldest batch, run it without the lock, record its outcome
   and count its batch down. *)
let run_next pool =
  let (Job b) = Queue.peek pool.q in
  let i = b.next in
  let n = Array.length b.thunks in
  b.next <- i + 1;
  if b.next = n then ignore (Queue.pop pool.q);
  Mutex.unlock pool.m;
  (match b.thunks.(i) () with
  | v ->
    Mutex.lock pool.m;
    if Array.length b.results = 0 then b.results <- Array.make n v;
    b.results.(i) <- v
  | exception e ->
    Mutex.lock pool.m;
    (match b.failure with
    | Some (j, _) when j < i -> ()
    | _ -> b.failure <- Some (i, e)));
  Sh_obs.Metric.incr pool.c_tasks;
  b.pending <- b.pending - 1;
  if b.pending = 0 then Condition.broadcast pool.settled

let worker_loop pool =
  Mutex.lock pool.m;
  while not (Queue.is_empty pool.q && pool.stopping) do
    if Queue.is_empty pool.q then Condition.wait pool.work pool.m else run_next pool
  done;
  Mutex.unlock pool.m

let create ~domains =
  if domains < 1 then invalid_arg "Domain_pool.create: domains must be >= 1";
  let pool =
    {
      domains;
      q = Queue.create ();
      m = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      stopping = false;
      workers = [];
      c_tasks = Sh_obs.Obs.counter "pool.tasks";
    }
  in
  pool.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let run pool thunks =
  let n = Array.length thunks in
  let b = { thunks; next = 0; pending = n; results = [||]; failure = None } in
  Mutex.lock pool.m;
  if pool.stopping then begin
    Mutex.unlock pool.m;
    invalid_arg "Domain_pool: pool is shut down"
  end;
  if n > 0 then begin
    Queue.push (Job b) pool.q;
    (* one wake-up per task the caller does not claim itself *)
    for _ = 2 to n do
      Condition.signal pool.work
    done
  end;
  (* Help with any queued task (FIFO, so this batch's own come first
     unless older ones wait); with the queue empty, the rest of the batch
     is running elsewhere. *)
  while b.pending > 0 do
    if Queue.is_empty pool.q then Condition.wait pool.settled pool.m else run_next pool
  done;
  Mutex.unlock pool.m;
  match b.failure with
  | Some (_, e) -> raise e
  | None -> b.results

let shutdown pool =
  Mutex.lock pool.m;
  let ws = pool.workers in
  pool.stopping <- true;
  pool.workers <- [];
  Condition.broadcast pool.work;
  Mutex.unlock pool.m;
  List.iter Domain.join ws

let with_pool ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
