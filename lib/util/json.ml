(* The subset of JSON the trace JSONL lines and the BENCH_*.json
   artifacts use: objects, arrays, ints, floats, strings, bools and
   null, with standard escapes. *)

type v =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null
  | List of v list
  | Obj of (string * v) list

exception Parse_error of string

let buf_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Shortest of %.15g / %.17g that reads back exactly; the ".0" keeps an
   integral float a JSON float, so it parses back as [Float]. *)
let float_repr f =
  if not (Float.is_finite f) then invalid_arg (Printf.sprintf "Json: non-finite float %h" f);
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (function '.' | 'e' -> true | _ -> false) s then s else s ^ ".0"

let seq b ~sep ~open_ ~close f xs =
  Buffer.add_string b open_;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      f x)
    xs;
  Buffer.add_string b close

let pad n = String.make n ' '

(* [indent] is the column of the line the value starts on; only
   [pretty] output ever breaks a line. *)
let rec buf_v ~pretty ~indent b v =
  let comma = if pretty then ", " else "," and colon = if pretty then ": " else ":" in
  let field ~indent (k, v) =
    buf_string b k;
    Buffer.add_string b colon;
    buf_v ~pretty ~indent b v
  in
  match v with
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s -> buf_string b s
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Null -> Buffer.add_string b "null"
  | List (Obj _ :: _ as rows) when pretty ->
      let inner = indent + 2 in
      seq b ~sep:(",\n" ^ pad inner) ~open_:("[\n" ^ pad inner) ~close:("\n" ^ pad indent ^ "]")
        (buf_v ~pretty ~indent:inner b) rows
  | List vs -> seq b ~sep:comma ~open_:"[" ~close:"]" (buf_v ~pretty ~indent b) vs
  | Obj fields when pretty && indent = 0 ->
      seq b ~sep:(",\n" ^ pad 2) ~open_:("{\n" ^ pad 2) ~close:"\n}" (field ~indent:2) fields
  | Obj fields -> seq b ~sep:comma ~open_:"{" ~close:"}" (field ~indent) fields

let to_string ?(pretty = false) v =
  let b = Buffer.create 64 in
  buf_v ~pretty ~indent:0 b v;
  Buffer.contents b

(* Recursive-descent parser. *)
let parse (s : string) : v =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r') do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !pos + 4 > n then fail "short \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code = try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape" in
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else fail "non-ASCII \\u escape unsupported"
        | _ -> fail "bad escape");
        loop ()
      end
      else begin
        Buffer.add_char b c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let is_float = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit in
    let v =
      if is_float then Option.map (fun f -> Float f) (float_of_string_opt lit)
      else Option.map (fun i -> Int i) (int_of_string_opt lit)
    in
    match v with Some v -> v | None -> fail ("bad number " ^ lit)
  in
  let rec parse_v () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            expect ':';
            let v = parse_v () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_v () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected value"
  in
  let v = parse_v () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> raise (Parse_error ("missing field " ^ name)))
  | _ -> raise (Parse_error "not an object")

let to_int = function Int i -> i | _ -> raise (Parse_error "expected int")
let to_str = function Str s -> s | _ -> raise (Parse_error "expected string")
let to_list = function List l -> l | _ -> raise (Parse_error "expected array")
