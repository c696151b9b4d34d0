open Vida_data
open Vida_raw

(* Narrowest scalar type of a single CSV field; [None] for null-ish text,
   which constrains nothing. *)
let sniff s : Ty.t option =
  if s = "" || s = "NULL" || s = "null" || s = "NA" then None
  else if int_of_string_opt s <> None then Some Ty.Int
  else if float_of_string_opt s <> None then Some Ty.Float
  else if s = "true" || s = "false" then Some Ty.Bool
  else Some Ty.String

let widen a b =
  match a, b with
  | None, t | t, None -> t
  | Some a, Some b ->
    Some
      (match a, b with
      | Ty.Int, Ty.Int -> Ty.Int
      | (Ty.Int | Ty.Float), (Ty.Int | Ty.Float) -> Ty.Float
      | Ty.Bool, Ty.Bool -> Ty.Bool
      | _ -> Ty.String)

(* Offset just past the newline ending the [n]th complete record of [s],
   or [None] when [s] holds fewer, by the rule the full structure uses: a
   CSV row ends at a newline outside quotes (as in {!Positional_map}), a
   JSON-lines object at the newline after a non-empty line (as in
   {!Semi_index}). Inference reads only a prefix holding more than
   [sample] records, so the sampled records are exactly those of the
   whole file, and the sample ends where [csv_end]/[json_end] of it say. *)
let csv_end { Raw_buffer.data = s; len } n =
  let i = ref 0 and ended = ref 0 and quoted = ref false in
  while !ended < n && !i < len do
    (match String.unsafe_get s !i with
    | '"' -> quoted := not !quoted
    | '\n' when not !quoted -> incr ended
    | _ -> ());
    incr i
  done;
  if !ended >= n then Some !i else None

let json_end { Raw_buffer.data = s; len } n =
  let i = ref 0 and ended = ref 0 in
  while !ended < n && !i < len do
    if String.unsafe_get s !i = '\n' && !i > 0 && String.unsafe_get s (!i - 1) <> '\n'
    then incr ended;
    incr i
  done;
  if !ended >= n then Some !i else None

let csv_schema ?(delim = ',') ?(header = true) ?(sample = 100) buf =
  let records = sample + if header then 1 else 0 in
  let buf =
    Raw_buffer.prefix buf ~enough:(fun s ->
        csv_end (Raw_buffer.view_of_string s) (records + 1) <> None)
  in
  let sample_end = csv_end (Raw_buffer.contents buf) records in
  let pm = Positional_map.build ~delim ~header buf in
  let names = Positional_map.column_names pm in
  let ncols =
    if names <> [] then List.length names
    else if Positional_map.row_count pm = 0 then 0
    else (
      let start, stop = Positional_map.row_bounds pm 0 in
      List.length
        (Csv.split_line ~delim (Raw_buffer.slice buf ~pos:start ~len:(stop - start))))
  in
  let names =
    if names <> [] then names else List.init ncols (Printf.sprintf "c%d")
  in
  let types = Array.make ncols None in
  let rows = min sample (Positional_map.row_count pm) in
  for row = 0 to rows - 1 do
    let start, stop = Positional_map.row_bounds pm row in
    let fields = Csv.split_line ~delim (Raw_buffer.slice buf ~pos:start ~len:(stop - start)) in
    List.iteri
      (fun col field -> if col < ncols then types.(col) <- widen types.(col) (sniff field))
      fields
  done;
  ( Schema.of_pairs
      (List.mapi
         (fun col name ->
           (name, match types.(col) with Some t -> t | None -> Ty.Any))
         names),
    sample_end )

let xml_element ?(sample = 50) buf =
  let xi = Xml_index.build buf in
  let n = min sample (Xml_index.element_count xi) in
  let rec go acc i =
    if i >= n then acc
    else
      let ty = Value.typeof (Xml_index.element_value xi i) in
      let acc' =
        match acc with
        | None -> Some ty
        | Some prev -> (
          match Ty.unify prev ty with Some t -> Some t | None -> Some Ty.Any)
      in
      go acc' (i + 1)
  in
  match go None 0 with Some t -> t | None -> Ty.Any

let json_element ?(sample = 50) buf =
  let buf =
    Raw_buffer.prefix buf ~enough:(fun s ->
        json_end (Raw_buffer.view_of_string s) (sample + 1) <> None)
  in
  let sample_end = json_end (Raw_buffer.contents buf) sample in
  let si = Semi_index.build buf in
  let n = min sample (Semi_index.object_count si) in
  let rec go acc i =
    if i >= n then acc
    else
      let ty = Value.typeof (Semi_index.object_value si i) in
      let acc' =
        match acc with
        | None -> Some ty
        | Some prev -> (
          match Ty.unify prev ty with Some t -> Some t | None -> Some Ty.Any)
      in
      go acc' (i + 1)
  in
  ((match go None 0 with Some t -> t | None -> Ty.Any), sample_end)
