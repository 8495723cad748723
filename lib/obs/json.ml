type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

let fixed d x = Num (Printf.sprintf "%.*f" d x)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let seq b op cl f l =
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    l;
  Buffer.add_char b cl

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Num s -> Buffer.add_string b s
  | Str s -> add_string b s
  | List l -> seq b '[' ']' (to_buffer b) l
  | Obj fields ->
      seq b '{' '}'
        (fun (k, v) ->
          add_string b k;
          Buffer.add_char b ':';
          to_buffer b v)
        fields

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

(* Raised only inside [parse], which returns it as [Error]. *)
exception Fail of int * string

let max_depth = 512

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let eat c = if !pos < n && s.[!pos] = c then (incr pos; true) else false in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec ws () = match peek () with ' ' | '\t' | '\n' | '\r' -> incr pos; ws () | _ -> () in
  let word w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then (pos := !pos + l; v)
    else fail "unexpected character"
  in
  let digits () =
    let start = !pos in
    while match peek () with '0' .. '9' -> true | _ -> false do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    ignore (eat '-');
    if not (eat '0') then digits ();
    if eat '.' then digits ();
    if eat 'e' || eat 'E' then (ignore (eat '+' || eat '-'); digits ());
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with Some i when string_of_int i = lit -> Int i | _ -> Num lit
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if not (String.length h = 4 && String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  (* A \u escape's code point; a UTF-16 surrogate must come paired. *)
  let code_point () =
    let hi = hex4 () in
    if hi land 0xFC00 = 0xDC00 then fail "lone surrogate"
    else if hi land 0xFC00 <> 0xD800 then hi
    else if eat '\\' && eat 'u' then
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then fail "lone surrogate";
      0x10000 + ((hi land 0x3FF) lsl 10) + (lo land 0x3FF)
    else fail "lone surrogate"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
          | _ -> decr pos; fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> decr pos; fail "control character in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  (* Comma-separated [item]s up to [close]; the opener is consumed. *)
  let items close item =
    ws ();
    if eat close then []
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if eat ',' then more acc else (expect close; List.rev acc)
      in
      more []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               ws ();
               let k = str () in
               ws ();
               expect ':';
               (k, value (depth + 1))))
    | '[' -> incr pos; List (items ']' (fun () -> value (depth + 1)))
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail (if !pos >= n then "unexpected end of input" else "unexpected character")
  in
  match
    let v = value 0 in
    ws ();
    if !pos < n then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)
