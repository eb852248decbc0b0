type refresh_policy = Eager | Lazy | Every of int

let validate_policy = function
  | Every k when k < 1 -> invalid_arg "Params: Every period must be >= 1"
  | p -> p

let policy_to_string = function
  | Eager -> "eager"
  | Lazy -> "lazy"
  | Every k -> Printf.sprintf "every:%d" k

let policy_of_string s =
  match String.lowercase_ascii s with
  | "eager" -> Some Eager
  | "lazy" -> Some Lazy
  | s ->
    (match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "every" ->
      (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some k when k >= 1 -> Some (Every k)
      | _ -> None)
    | _ -> None)

type t = { buckets : int; epsilon : float; delta : float }

let make_with_delta ~buckets ~epsilon ~delta =
  if buckets < 1 then invalid_arg "Params: buckets must be >= 1";
  if epsilon <= 0.0 then invalid_arg "Params: epsilon must be > 0";
  if delta <= 0.0 then invalid_arg "Params: delta must be > 0";
  { buckets; epsilon; delta }

let make ~buckets ~epsilon =
  make_with_delta ~buckets ~epsilon ~delta:(epsilon /. (2.0 *. Float.of_int buckets))
