type work_counters = {
  observations : int;
  adds : int;
  decrement_rounds : int;
  evictions : int;
}

type t = {
  capacity : int;
  counters : (float, int ref) Hashtbl.t;
  (* work accounting; [observations] is also the stream length *)
  mutable observations : int;
  mutable adds : int;
  mutable rounds : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Heavy_hitters.create: capacity must be >= 1";
  {
    capacity;
    counters = Hashtbl.create (2 * capacity);
    observations = 0;
    adds = 0;
    rounds = 0;
    evictions = 0;
  }

(* Misra-Gries decrement step: when a new value needs a slot and all
   [capacity] slots are taken, decrement every counter and evict zeros. *)
let make_room t =
  t.rounds <- t.rounds + 1;
  let victims = ref [] in
  Hashtbl.iter
    (fun v c ->
      decr c;
      if !c <= 0 then victims := v :: !victims)
    t.counters;
  t.evictions <- t.evictions + List.length !victims;
  List.iter (Hashtbl.remove t.counters) !victims

let add ?(count = 1) t v =
  if count < 1 then invalid_arg "Heavy_hitters.add: count must be >= 1";
  t.adds <- t.adds + 1;
  t.observations <- t.observations + count;
  match Hashtbl.find_opt t.counters v with
  | Some c -> c := !c + count
  | None ->
    if Hashtbl.length t.counters < t.capacity then Hashtbl.replace t.counters v (ref count)
    else begin
      (* absorb the new value's occurrences one decrement round at a time;
         for batched counts, rounds repeat until the count is exhausted or
         the value wins a slot *)
      let remaining = ref count in
      while !remaining > 0 do
        if Hashtbl.length t.counters < t.capacity then begin
          Hashtbl.replace t.counters v (ref !remaining);
          remaining := 0
        end
        else begin
          make_room t;
          decr remaining
        end
      done
    end

let total t = t.observations

let estimate t v = match Hashtbl.find_opt t.counters v with Some c -> !c | None -> 0

let tracked t =
  let entries = Hashtbl.fold (fun v c acc -> (v, !c) :: acc) t.counters [] in
  List.sort (fun (_, c1) (_, c2) -> compare c2 c1) entries

let heavy_hitters t ~threshold =
  let cutoff = threshold *. Float.of_int (total t) in
  List.filter (fun (_, c) -> Float.of_int c >= cutoff) (tracked t)

let work_counters t =
  {
    observations = t.observations;
    adds = t.adds;
    decrement_rounds = t.rounds;
    evictions = t.evictions;
  }
