type t = {
  data : float array;
  mutable head : int;   (* slot of the oldest element *)
  mutable count : int;
}

(* The one allocation: sliding never reallocates. *)
let create ~capacity =
  if capacity < 1 then invalid_arg "Ring_buffer.create: capacity must be >= 1";
  { data = Array.make capacity 0.0; head = 0; count = 0 }

let capacity t = Array.length t.data
let length t = t.count
let is_full t = t.count = Array.length t.data

let push t v =
  let cap = Array.length t.data in
  if t.count < cap then begin
    t.data.((t.head + t.count) mod cap) <- v;
    t.count <- t.count + 1
  end
  else begin
    t.data.(t.head) <- v;
    t.head <- (t.head + 1) mod cap
  end

let get t i =
  if i < 1 || i > t.count then invalid_arg "Ring_buffer.get: index out of window";
  t.data.((t.head + i - 1) mod Array.length t.data)

let oldest t = get t 1
let newest t = get t t.count

let blit_to t dst =
  if Array.length dst < t.count then invalid_arg "Ring_buffer.blit_to: destination too small";
  let cap = Array.length t.data in
  let first = min t.count (cap - t.head) in
  Array.blit t.data t.head dst 0 first;
  if first < t.count then Array.blit t.data 0 dst first (t.count - first)

let to_array t =
  let out = Array.make t.count 0.0 in
  blit_to t out;
  out

let iteri t f =
  for i = 1 to t.count do
    f i (get t i)
  done

let clear t =
  t.head <- 0;
  t.count <- 0
