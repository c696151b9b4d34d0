open Vida_data

(* The [next_pos] convention and the counting rule are stated in csv.mli.

   The tokenizer core works on the whole file as one immutable string:
   [row_end] is clamped to the string length once on entry, after which
   every access below is within-bounds by construction, so the hot loops
   read with [String.unsafe_get] instead of paying a per-byte check. The
   primitives below count nothing; the entry points charge. *)

(* Offset of the first [delim] at or after [i], or [i] itself once [i]
   has reached [row_end]. *)
let rec delim_from ~delim s ~row_end i =
  if i >= row_end || String.unsafe_get s i = delim then i
  else delim_from ~delim s ~row_end (i + 1)

(* Offset of the quote closing a quoted field whose content starts at [i]
   ([""] is an escaped quote), or [row_end] when the field never closes. *)
let rec closing_quote s ~row_end i =
  if i >= row_end then i
  else if String.unsafe_get s i <> '"' then closing_quote s ~row_end (i + 1)
  else if i + 1 < row_end && String.unsafe_get s (i + 1) = '"' then
    closing_quote s ~row_end (i + 2)
  else i

(* [next_pos] of a field whose content stops at [stop]. *)
let after ~row_end stop = if stop < row_end then stop + 1 else row_end + 1

(* Stray bytes between a closing quote and the delimiter (e.g.
   ["abc"x,next]) are tolerated: the field keeps its quoted content and
   the scan resyncs at the next delimiter instead of dropping the rest of
   the row. *)
let after_quoted ~delim s ~row_end close =
  after ~row_end (delim_from ~delim s ~row_end (close + 1))

let is_quoted s ~row_end pos =
  pos >= 0 && pos < row_end && String.unsafe_get s pos = '"'

let field_bounds_str ~delim s ~row_end pos =
  Io_stats.add_fields_tokenized 1;
  let row_end = Int.min row_end (String.length s) in
  if is_quoted s ~row_end pos then (
    let close = closing_quote s ~row_end (pos + 1) in
    (pos + 1, close, after_quoted ~delim s ~row_end close))
  else (
    let pos = Int.max 0 pos in
    let stop = delim_from ~delim s ~row_end pos in
    (pos, stop, after ~row_end stop))

let walk_fields ~delim s ~row_end ~visited pos n =
  let row_end = Int.min row_end (String.length s) in
  let pos = ref pos and k = ref 0 in
  while !k < n && !pos <= row_end do
    let p = !pos in
    (pos :=
       if is_quoted s ~row_end p then
         after_quoted ~delim s ~row_end (closing_quote s ~row_end (p + 1))
       else after ~row_end (delim_from ~delim s ~row_end (Int.max 0 p)));
    incr k
  done;
  visited := !visited + !k;
  (* a walk cut short by the row's end lands where [field_bounds_str]
     would: just past the row *)
  if !k < n then row_end + 1 else !pos

let skip_fields_str ~delim s ~row_end pos n =
  Io_stats.add_fields_tokenized n;
  walk_fields ~delim s ~row_end ~visited:(ref 0) pos n

let unescape_quotes s =
  if not (String.contains s '"') then s
  else (
    let buf = Buffer.create (String.length s) in
    let rec go i =
      if i < String.length s then
        if s.[i] = '"' && i + 1 < String.length s && s.[i + 1] = '"' then (
          Buffer.add_char buf '"';
          go (i + 2))
        else (
          Buffer.add_char buf s.[i];
          go (i + 1))
    in
    go 0;
    Buffer.contents buf)

let field_content_str ~delim s ~row_end pos =
  let start, stop, next = field_bounds_str ~delim s ~row_end pos in
  let len = stop - start in
  Io_stats.add_bytes_read len;
  let raw = String.sub s start len in
  let content = if start > pos then unescape_quotes raw else raw in
  (content, next)

let split_line ~delim line =
  let n = String.length line in
  let fields = ref [] in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    if !pos > n then continue := false
    else if !pos < n && line.[!pos] = '"' then (
      let b = Buffer.create 16 in
      let i = ref (!pos + 1) in
      let closed = ref false in
      while not !closed do
        if !i >= n then closed := true
        else if line.[!i] = '"' then
          if !i + 1 < n && line.[!i + 1] = '"' then (
            Buffer.add_char b '"';
            i := !i + 2)
          else (
            closed := true;
            incr i)
        else (
          Buffer.add_char b line.[!i];
          incr i)
      done;
      fields := Buffer.contents b :: !fields;
      (* same trailing-byte tolerance as [field_bounds_str] *)
      let rec to_delim i =
        if i >= n then n + 1 else if line.[i] = delim then i + 1 else to_delim (i + 1)
      in
      pos := to_delim !i)
    else (
      let stop =
        match String.index_from_opt line !pos delim with
        | Some i when i <= n -> i
        | _ -> n
      in
      fields := String.sub line !pos (stop - !pos) :: !fields;
      if stop < n then pos := stop + 1 else pos := n + 1)
  done;
  List.rev !fields

let is_null_text s =
  s = "" || s = "NULL" || s = "null" || s = "NA"

let convert ty s =
  if is_null_text s then Value.Null
  else (
    Io_stats.add_values_converted 1;
    match ty with
    | Ty.Int -> (
      match int_of_string_opt s with
      | Some i -> Value.Int i
      | None -> Value.type_error "CSV field %S is not an int" s)
    | Ty.Float -> (
      match float_of_string_opt s with
      | Some f -> Value.Float f
      | None -> Value.type_error "CSV field %S is not a float" s)
    | Ty.Bool -> (
      match s with
      | "true" | "TRUE" | "1" | "t" -> Value.Bool true
      | "false" | "FALSE" | "0" | "f" -> Value.Bool false
      | _ -> Value.type_error "CSV field %S is not a bool" s)
    | Ty.String -> Value.String s
    | Ty.Any -> (
      (* schema-less source: sniff the narrowest scalar type *)
      match int_of_string_opt s with
      | Some i -> Value.Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> (
          match s with
          | "true" -> Value.Bool true
          | "false" -> Value.Bool false
          | _ -> Value.String s)))
    | (Ty.Record _ | Ty.Coll _) as ty ->
      Value.type_error "CSV cannot hold a %s field" (Ty.to_string ty))

let needs_quoting ~delim s =
  String.exists (fun c -> c = delim || c = '"' || c = '\n' || c = '\r') s

let escape_field ~delim s =
  if not (needs_quoting ~delim s) then s
  else (
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf)

let write_fields oc ~delim fields =
  List.iteri
    (fun i f ->
      if i > 0 then output_char oc delim;
      output_string oc (escape_field ~delim f))
    fields;
  output_char oc '\n'

let write_header = write_fields
let write_row = write_fields

let render_value = function
  | Value.Null -> ""
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f
  | Value.String s -> s
  | (Value.Record _ | Value.List _ | Value.Bag _ | Value.Set _ | Value.Array _) as v ->
    (* nested data flattened into CSV is serialized as JSON text *)
    Value.to_json v
