(* A minimal JSON value with a printer and a strict parser: enough to write
   the result records and to read BENCHMARK.json for the smoke check,
   without a JSON library in the toolchain. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Numbers keep every digit (%.17g round-trips); integers print without a
   fraction; non-finite values have no JSON spelling and become null. *)
let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.bprintf buf "%.0f" f
  | Num f when Float.is_finite f -> Printf.bprintf buf "%.17g" f
  | Num _ -> Buffer.add_string buf "null"
  | Str s -> escape buf s
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj l ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      l;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_utf_8_uchar buf (Uchar.of_int code)
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip_ws ();
      if !pos < n && s.[!pos] = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip_ws ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            skip_ws ();
            fields ((k, v) :: acc)
          end
          else begin
            expect '}';
            Obj (List.rev ((k, v) :: acc))
          end
        in
        fields []
    | '[' ->
      incr pos;
      skip_ws ();
      if !pos < n && s.[!pos] = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            items (v :: acc)
          end
          else begin
            expect ']';
            Arr (List.rev (v :: acc))
          end
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function Obj l -> List.assoc_opt k l | _ -> None
