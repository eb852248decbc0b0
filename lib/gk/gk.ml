(* Tuples (v, g, delta) in non-decreasing order of v.  With rmin_i the sum
   of g over the prefix ending at i: the true rank of v_i lies in
   [rmin_i, rmin_i + delta_i].  The maintained invariant
   g_i + delta_i <= floor(2 epsilon n) yields the epsilon n rank error. *)
type tuple = { v : float; g : int; delta : int }

type t = {
  eps : float;
  mutable tuples : tuple list;
  mutable n : int;
  mutable since_compress : int;
  compress_period : int;
}

let create ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Gk.create: epsilon must be in (0, 1)";
  {
    eps = epsilon;
    tuples = [];
    n = 0;
    since_compress = 0;
    compress_period = max 1 (int_of_float (1.0 /. (2.0 *. epsilon)));
  }

let epsilon t = t.eps
let count t = t.n
let size t = List.length t.tuples

let cap t = int_of_float (2.0 *. t.eps *. Float.of_int t.n)

(* Merge adjacent tuples while the merged (g, delta) stays within the cap.
   Merging tuple i into its successor keeps rank enclosures valid because
   the successor inherits the combined g.  The head tuple is never merged
   away: it carries the exact minimum (rank 1), which phi ~ 0 queries
   need; the maximum survives automatically since merges keep the right
   neighbour. *)
let compress t =
  let bound = cap t in
  let rec go = function
    | a :: b :: rest ->
      if a.g + b.g + b.delta < bound then go ({ b with g = a.g + b.g } :: rest)
      else a :: go (b :: rest)
    | rest -> rest
  in
  match t.tuples with
  | [] | [ _ ] -> ()
  | head :: rest -> t.tuples <- head :: go rest

let insert t v =
  if not (Float.is_finite v) then invalid_arg "Gk.insert: non-finite value";
  t.n <- t.n + 1;
  let fresh_interior = { v; g = 1; delta = max 0 (cap t - 1) } in
  let fresh_extreme = { v; g = 1; delta = 0 } in
  let rec place = function
    | [] -> [ fresh_extreme ]
    | x :: rest when v < x.v ->
      (* Inserting before x; if x is the head, v is a new minimum. *)
      fresh_interior :: x :: rest
    | x :: rest -> x :: place rest
  in
  (match t.tuples with
  | [] -> t.tuples <- [ fresh_extreme ]
  | first :: _ when v < first.v -> t.tuples <- fresh_extreme :: t.tuples
  | _ ->
    (* A new maximum must also carry delta = 0. *)
    let rec is_max = function
      | [] -> true
      | x :: rest -> v >= x.v && is_max rest
    in
    if is_max t.tuples then t.tuples <- t.tuples @ [ fresh_extreme ]
    else t.tuples <- place t.tuples);
  t.since_compress <- t.since_compress + 1;
  if t.since_compress >= t.compress_period then begin
    compress t;
    t.since_compress <- 0
  end

let quantile t phi =
  if phi < 0.0 || phi > 1.0 then invalid_arg "Gk.quantile: phi out of [0, 1]";
  if t.n = 0 then invalid_arg "Gk.quantile: empty summary";
  let target = Float.of_int (max 1 (int_of_float (ceil (phi *. Float.of_int t.n)))) in
  let allow = t.eps *. Float.of_int t.n in
  (* First tuple whose maximum possible rank stays within target + eps n. *)
  let rec go rmin best = function
    | [] -> best
    | x :: rest ->
      let rmin = rmin + x.g in
      if Float.of_int (rmin + x.delta) <= target +. allow then go rmin x.v rest else best
  in
  match t.tuples with
  | [] -> assert false
  | first :: _ -> go 0 first.v t.tuples

let rank_bounds_list tuples v =
  let rec go rmin lo hi = function
    | [] -> (lo, hi)
    | x :: rest ->
      let rmin = rmin + x.g in
      if x.v <= v then go rmin rmin (rmin + x.delta) rest else (lo, hi)
  in
  go 0 0 0 tuples

let rank_bounds t v = rank_bounds_list t.tuples v

let iter_values t f = List.iter (fun x -> f x.v) t.tuples

(* Combined quantile over several summaries without building a merged
   structure: every stored value is a candidate, its rank enclosure in the
   union stream is the sum of the per-summary [rank_bounds] enclosures
   (ranks are additive over disjoint streams), and we return the candidate
   whose enclosure midpoint sits closest to the target rank.  The error is
   bounded by sum_i (eps_i * n_i): each summary contributes at most
   eps_i * n_i of rank slack.

   Tuple lists are captured once per summary up front, so the walk is
   coherent even when owner domains keep inserting concurrently (the
   spines are immutable; a racy read just sees a slightly stale list). *)
let merged_quantile summaries phi =
  if phi < 0.0 || phi > 1.0 then invalid_arg "Gk.merged_quantile: phi out of [0, 1]";
  let views =
    summaries
    |> List.filter_map (fun t ->
           let tuples = t.tuples and n = t.n in
           if n = 0 || tuples = [] then None else Some (Array.of_list tuples, n))
    |> Array.of_list
  in
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 views in
  if total = 0 then invalid_arg "Gk.merged_quantile: empty summaries";
  let target = Float.of_int (max 1 (int_of_float (ceil (phi *. Float.of_int total)))) in
  (* Candidates ascending; one monotone pointer per view keeps the whole
     scan O(candidates * views + total tuples) instead of re-walking every
     summary per candidate. *)
  let candidates =
    let c = Array.concat (Array.to_list (Array.map (fun (tu, _) -> Array.map (fun x -> x.v) tu) views)) in
    Array.sort Float.compare c;
    c
  in
  let nv = Array.length views in
  let ptr = Array.make nv 0
  and rmin = Array.make nv 0
  and lo = Array.make nv 0
  and hi = Array.make nv 0 in
  let best_v = ref candidates.(0) and best_gap = ref infinity in
  Array.iter
    (fun v ->
      for j = 0 to nv - 1 do
        let tu, _ = views.(j) in
        let len = Array.length tu in
        while ptr.(j) < len && (Array.unsafe_get tu ptr.(j)).v <= v do
          let x = Array.unsafe_get tu ptr.(j) in
          rmin.(j) <- rmin.(j) + x.g;
          lo.(j) <- rmin.(j);
          hi.(j) <- rmin.(j) + x.delta;
          ptr.(j) <- ptr.(j) + 1
        done
      done;
      let slo = ref 0 and shi = ref 0 in
      for j = 0 to nv - 1 do
        slo := !slo + lo.(j);
        shi := !shi + hi.(j)
      done;
      let mid = (Float.of_int !slo +. Float.of_int !shi) /. 2.0 in
      let gap = Float.abs (mid -. target) in
      if gap < !best_gap then begin
        best_gap := gap;
        best_v := v
      end)
    candidates;
  !best_v
