open Vida_data

let default_source = "json"

let error ~source pos fmt = Vida_error.parse_error ~source ~offset:pos fmt

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let rec skip_ws s pos = if pos < String.length s && is_ws s.[pos] then skip_ws s (pos + 1) else pos

let parse_string_at ?(source = default_source) s pos =
  (* pos points at the opening quote; returns (content, next_pos) *)
  let buf = Buffer.create 16 in
  let n = String.length s in
  let rec go i =
    if i >= n then error ~source i "unterminated string"
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' ->
        if i + 1 >= n then error ~source i "dangling escape";
        (match s.[i + 1] with
        | '"' -> Buffer.add_char buf '"'; ()
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if i + 5 >= n then error ~source i "truncated unicode escape";
          let code =
            match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
            | Some c -> c
            | None -> error ~source i "malformed unicode escape"
          in
          (* encode as UTF-8; surrogate pairs are passed through raw *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then (
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
          else (
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
        | c -> error ~source i "bad escape \\%c" c);
        if s.[i + 1] = 'u' then go (i + 6) else go (i + 2)
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  let next = go (pos + 1) in
  (Buffer.contents buf, next)

let number_end s pos =
  let n = String.length s in
  let rec go i =
    if i < n then
      match s.[i] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> go (i + 1)
      | _ -> i
    else i
  in
  go pos

let parse_number ~source s pos =
  let stop = number_end s pos in
  let text = String.sub s pos (stop - pos) in
  let v =
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then (
      match float_of_string_opt text with
      | Some f -> Value.Float f
      | None -> error ~source pos "malformed number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Value.Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Value.Float f
        | None -> error ~source pos "malformed number %S" text)
  in
  (v, stop)

let expect ~source s pos lit v =
  let n = String.length lit in
  if pos + n <= String.length s && String.sub s pos n = lit then (v, pos + n)
  else error ~source pos "expected %s" lit

let rec parse_value ~source ~depth s pos =
  Vida_error.Limits.check_nesting ~source ~offset:pos depth;
  let pos = skip_ws s pos in
  if pos >= String.length s then error ~source pos "unexpected end of input";
  match s.[pos] with
  | '{' ->
    let fields = ref [] in
    let nfields = ref 0 in
    let pos = skip_ws s (pos + 1) in
    if pos < String.length s && s.[pos] = '}' then (Value.Record [], pos + 1)
    else (
      let rec members pos =
        let pos = skip_ws s pos in
        if pos >= String.length s || s.[pos] <> '"' then error ~source pos "expected field name";
        let name, pos = parse_string_at ~source s pos in
        let pos = skip_ws s pos in
        if pos >= String.length s || s.[pos] <> ':' then error ~source pos "expected ':'";
        let v, pos = parse_value ~source ~depth:(depth + 1) s (pos + 1) in
        fields := (name, v) :: !fields;
        incr nfields;
        Vida_error.Limits.check_fields ~source ~offset:pos !nfields;
        let pos = skip_ws s pos in
        if pos < String.length s && s.[pos] = ',' then members (pos + 1)
        else if pos < String.length s && s.[pos] = '}' then pos + 1
        else error ~source pos "expected ',' or '}'"
      in
      let pos = members pos in
      (Value.Record (List.rev !fields), pos))
  | '[' ->
    let items = ref [] in
    let pos = skip_ws s (pos + 1) in
    if pos < String.length s && s.[pos] = ']' then (Value.List [], pos + 1)
    else (
      let rec elements pos =
        let v, pos = parse_value ~source ~depth:(depth + 1) s pos in
        items := v :: !items;
        let pos = skip_ws s pos in
        if pos < String.length s && s.[pos] = ',' then elements (pos + 1)
        else if pos < String.length s && s.[pos] = ']' then pos + 1
        else error ~source pos "expected ',' or ']'"
      in
      let pos = elements pos in
      (Value.List (List.rev !items), pos))
  | '"' ->
    let str, pos = parse_string_at ~source s pos in
    (Value.String str, pos)
  | 't' -> expect ~source s pos "true" (Value.Bool true)
  | 'f' -> expect ~source s pos "false" (Value.Bool false)
  | 'n' -> expect ~source s pos "null" Value.Null
  | '-' | '0' .. '9' -> parse_number ~source s pos
  | c -> error ~source pos "unexpected character %C" c

let parse ?(source = default_source) s =
  let v, pos = parse_value ~source ~depth:0 s 0 in
  let pos = skip_ws s pos in
  if pos <> String.length s then error ~source pos "trailing input" else v

let parse_substring ?(source = default_source) s ~pos ~len =
  let v, stop = parse_value ~source ~depth:0 s pos in
  let stop = skip_ws s stop in
  if stop > pos + len then error ~source stop "value extends past range" else v

(* Structural skip: navigate past a value without building it. *)
let rec skip_value_at ~source ~depth s pos =
  Vida_error.Limits.check_nesting ~source ~offset:pos depth;
  let pos = skip_ws s pos in
  if pos >= String.length s then error ~source pos "unexpected end of input";
  match s.[pos] with
  | '"' -> skip_string ~source s pos
  | '{' -> skip_composite ~source s (pos + 1) '}' (fun pos ->
      let pos = skip_ws s pos in
      let pos = skip_string ~source s pos in
      let pos = skip_ws s pos in
      if pos >= String.length s || s.[pos] <> ':' then error ~source pos "expected ':'";
      skip_value_at ~source ~depth:(depth + 1) s (pos + 1))
  | '[' -> skip_composite ~source s (pos + 1) ']' (fun pos ->
      skip_value_at ~source ~depth:(depth + 1) s pos)
  | 't' -> snd (expect ~source s pos "true" ())
  | 'f' -> snd (expect ~source s pos "false" ())
  | 'n' -> snd (expect ~source s pos "null" ())
  | '-' | '0' .. '9' -> number_end s pos
  | c -> error ~source pos "unexpected character %C" c

and skip_string ~source s pos =
  (* pos at opening quote *)
  let n = String.length s in
  let rec go i =
    if i >= n then error ~source i "unterminated string"
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' -> go (i + 2)
      | _ -> go (i + 1)
  in
  go (pos + 1)

and skip_composite ~source s pos closer skip_member =
  let pos = skip_ws s pos in
  if pos < String.length s && s.[pos] = closer then pos + 1
  else (
    let rec members pos =
      let pos = skip_member pos in
      let pos = skip_ws s pos in
      if pos < String.length s && s.[pos] = ',' then members (pos + 1)
      else if pos < String.length s && s.[pos] = closer then pos + 1
      else error ~source pos "expected ',' or closer"
    in
    members pos)

let skip_value ?(source = default_source) s pos = skip_value_at ~source ~depth:0 s pos

let scan_fields ?(source = default_source) s ~pos ~len =
  let limit = pos + len in
  let start = skip_ws s pos in
  if start >= limit || s.[start] <> '{' then error ~source start "expected an object";
  let fields = ref [] in
  let nfields = ref 0 in
  let p = skip_ws s (start + 1) in
  if p < limit && s.[p] = '}' then []
  else (
    let rec members p =
      let p = skip_ws s p in
      if p >= limit || s.[p] <> '"' then error ~source p "expected field name";
      let name, p = parse_string_at ~source s p in
      let p = skip_ws s p in
      if p >= limit || s.[p] <> ':' then error ~source p "expected ':'";
      let vstart = skip_ws s (p + 1) in
      let vstop = skip_value_at ~source ~depth:1 s vstart in
      fields := (name, (vstart, vstop - vstart)) :: !fields;
      incr nfields;
      Vida_error.Limits.check_fields ~source ~offset:p !nfields;
      let p = skip_ws s vstop in
      if p < limit && s.[p] = ',' then members (p + 1)
      else if p < limit && s.[p] = '}' then ()
      else error ~source p "expected ',' or '}'"
    in
    members p;
    List.rev !fields)
