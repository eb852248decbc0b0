type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let push t x =
  if t.len = Array.length t.data then begin
    let ncap = max 8 (2 * Array.length t.data) in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let last t =
  if t.len = 0 then invalid_arg "Vec.last: empty";
  t.data.(t.len - 1)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done
