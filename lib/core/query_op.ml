module Codec = Sh_persist.Codec

type t =
  | Current_error
  | Window_length
  | Herror of { k : int; x : int }
  | Range_sum of { lo : int; hi : int }
  | Point_estimate of { index : int }

type scope = Key of int | Global

let to_string = function
  | Current_error -> "current_error"
  | Window_length -> "window_length"
  | Herror { k; x } -> Printf.sprintf "herror[k=%d,x=%d]" k x
  | Range_sum { lo; hi } -> Printf.sprintf "range_sum[%d,%d]" lo hi
  | Point_estimate { index } -> Printf.sprintf "point_estimate[%d]" index

(* --- the clamping contract ------------------------------------------- *)

let clamp_herror ~b ~n ~k ~x =
  let k = if k < 1 then 1 else if k > b then b else k in
  let x = if x < 0 then 0 else if x > n then n else x in
  (k, x)

let eval_view v q =
  let module V = Fixed_window.View in
  match q with
  | Current_error -> V.current_error v
  | Window_length -> Float.of_int (V.length v)
  | Herror { k; x } ->
    let k, x = clamp_herror ~b:(V.buckets v) ~n:(V.length v) ~k ~x in
    V.herror v ~k ~x
  | Range_sum { lo; hi } ->
    let lo = if lo < 1 then 1 else lo in
    let hi = if hi > V.length v then V.length v else hi in
    if lo > hi then 0.0 else V.range_sum_estimate v ~lo ~hi
  | Point_estimate { index } ->
    if index < 1 || index > V.length v then 0.0 else V.point_estimate v index

(* --- wire / snapshot encoding ---------------------------------------- *)

(* op sub-tags (one byte) *)
let qt_current_error = 0
let qt_window_length = 1
let qt_herror = 2
let qt_range_sum = 3
let qt_point_estimate = 4

(* scope sub-tags (one byte) *)
let st_key = 0
let st_global = 1

let put buf q =
  match q with
  | Current_error -> Codec.put_u8 buf qt_current_error
  | Window_length -> Codec.put_u8 buf qt_window_length
  | Herror { k; x } ->
    Codec.put_u8 buf qt_herror;
    Codec.put_varint buf k;
    Codec.put_varint buf x
  | Range_sum { lo; hi } ->
    Codec.put_u8 buf qt_range_sum;
    Codec.put_varint buf lo;
    Codec.put_varint buf hi
  | Point_estimate { index } ->
    Codec.put_u8 buf qt_point_estimate;
    Codec.put_varint buf index

let get r =
  let t = Codec.get_u8 r in
  if t = qt_current_error then Current_error
  else if t = qt_window_length then Window_length
  else if t = qt_herror then
    let k = Codec.get_varint r in
    let x = Codec.get_varint r in
    Herror { k; x }
  else if t = qt_range_sum then
    let lo = Codec.get_varint r in
    let hi = Codec.get_varint r in
    Range_sum { lo; hi }
  else if t = qt_point_estimate then Point_estimate { index = Codec.get_varint r }
  else Codec.corruptf "bad query tag %d" t

let put_scope buf s =
  match s with
  | Key k ->
    if k < 0 then invalid_arg "Query_op.put_scope: negative key";
    Codec.put_u8 buf st_key;
    Codec.put_varint buf k
  | Global -> Codec.put_u8 buf st_global

let get_scope r =
  let t = Codec.get_u8 r in
  if t = st_key then Key (Codec.get_varint r)
  else if t = st_global then Global
  else Codec.corruptf "bad query scope tag %d" t
