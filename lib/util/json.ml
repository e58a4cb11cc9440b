(* The repository's one JSON codec: a generic value, a compact printer
   and an integer-only parser. Every report writer (the sgc reports,
   event JSON-lines, episode profiles, the request join, the web
   benchmark and DST artifacts) builds a [t] and prints it here, so the
   escaping and layout rules live in this file alone. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Fixed (decimals, f) -> Buffer.add_string buf (Printf.sprintf "%.*f" decimals f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

type cursor = { src : string; mutable pos : int }

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        c.pos <- c.pos + 1;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail "expected %c at offset %d, found %c" ch c.pos x
  | None -> fail "expected %c at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "invalid literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string at offset %d" c.pos
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | Some '"' ->
            Buffer.add_char buf '"';
            c.pos <- c.pos + 1;
            go ()
        | Some '\\' ->
            Buffer.add_char buf '\\';
            c.pos <- c.pos + 1;
            go ()
        | Some '/' ->
            Buffer.add_char buf '/';
            c.pos <- c.pos + 1;
            go ()
        | Some 'n' ->
            Buffer.add_char buf '\n';
            c.pos <- c.pos + 1;
            go ()
        | Some 'r' ->
            Buffer.add_char buf '\r';
            c.pos <- c.pos + 1;
            go ()
        | Some 't' ->
            Buffer.add_char buf '\t';
            c.pos <- c.pos + 1;
            go ()
        | Some 'u' ->
            if c.pos + 5 > String.length c.src then
              fail "truncated \\u escape at offset %d" c.pos;
            let hex = String.sub c.src (c.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail "invalid \\u escape at offset %d" c.pos
            in
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?';
            c.pos <- c.pos + 5;
            go ()
        | _ -> fail "invalid escape at offset %d" c.pos)
    | Some ch ->
        Buffer.add_char buf ch;
        c.pos <- c.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_int c =
  let start = c.pos in
  (match peek c with Some '-' -> c.pos <- c.pos + 1 | _ -> ());
  while
    match peek c with
    | Some ('0' .. '9') ->
        c.pos <- c.pos + 1;
        true
    | _ -> false
  do
    ()
  done;
  if c.pos = start then fail "expected a number at offset %d" start;
  match int_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some i -> i
  | None -> fail "invalid number at offset %d" start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> fail "expected , or ] at offset %d" c.pos
        in
        List (items [])
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } at offset %d" c.pos
        in
        Obj (members [])
  | Some ('-' | '0' .. '9') -> Int (parse_int c)
  | Some ch -> fail "unexpected %c at offset %d" ch c.pos

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing input at offset %d" c.pos;
  v

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let typed_member what read key j =
  match Option.bind (member key j) read with
  | Some v -> v
  | None -> fail "field %s missing or not %s" key what

let int_member = typed_member "an integer" (function Int i -> Some i | _ -> None)
let str_member = typed_member "a string" (function Str s -> Some s | _ -> None)
let bool_member = typed_member "a boolean" (function Bool b -> Some b | _ -> None)

let versioned_report ~schema ~version fields =
  Obj (("version", Int version) :: ("schema", Str schema) :: fields)
