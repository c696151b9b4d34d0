open Vida_data

type t = {
  buf : Raw_buffer.t;
  obj_bounds : (int * int) array;  (* (pos, len) per object *)
  tables : (string * (int * int)) list option array;
      (* per object: lazily recorded top-level field ranges *)
  mutable indexed : int;
}

(* Newline-delimited objects: the boundary scan is chunkable at any byte —
   each chunk reports the object bounds fully inside it, plus enough
   structure (first newline, trailing partial) to stitch objects that span
   a chunk edge. We keep it simpler: chunks collect newline offsets and
   the bounds are derived from the stitched offsets, exactly as in the
   sequential scan, so parallel and sequential builds are identical. *)
let collect_newlines s ~source ~lo ~hi =
  let acc = ref [] in
  for i = lo to hi - 1 do
    if String.unsafe_get s i = '\n' then (
      acc := i :: !acc;
      Vida_governor.Governor.poll ~source ();
      Epoch.check ~source ())
  done;
  List.rev !acc

let build ?(domains = 1) buf =
  let { Raw_buffer.data = s; len } = Raw_buffer.contents buf in
  Io_stats.add_bytes_read len;
  let source = Raw_buffer.path buf in
  let d = Morsel.domains_for_bytes ~domains len in
  let newlines =
    if d <= 1 then Array.of_list (collect_newlines s ~source ~lo:0 ~hi:len)
    else (
      let ranges = Morsel.chunks len d in
      let per_chunk =
        Morsel.run ~domains:d ~tasks:(Array.length ranges) (fun c ->
            let lo, hi = ranges.(c) in
            Array.of_list (collect_newlines s ~source ~lo ~hi))
      in
      Array.concat (Array.to_list per_chunk))
  in
  let bounds = ref [] in
  let start = ref 0 in
  Array.iter
    (fun i ->
      if i > !start then bounds := (!start, i - !start) :: !bounds;
      start := i + 1)
    newlines;
  if !start < len then bounds := (!start, len - !start) :: !bounds;
  let obj_bounds = Array.of_list (List.rev !bounds) in
  { buf; obj_bounds; tables = Array.make (Array.length obj_bounds) None; indexed = 0 }

let object_count t = Array.length t.obj_bounds
let buffer t = t.buf

(* An object's bounds end at its newline, or at the end of the file. *)
let objects_within t ~size =
  let lo = ref 0 and hi = ref (object_count t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.obj_bounds.(mid) < size then lo := mid + 1 else hi := mid
  done;
  let k = !lo in
  if k = 0 then None
  else
    let pos, len = t.obj_bounds.(k - 1) in
    if pos + len < size then Some k else None

(* Extend an index built over the old prefix of [buf] after an append.
   The last old object may have been a partial line (writer paused
   mid-record, no trailing newline yet), so the rescan resumes from its
   start; earlier objects — and their lazily recorded field tables, which
   hold absolute offsets into the unchanged prefix — carry over verbatim. *)
let extend t buf =
  let n_old = object_count t in
  if n_old = 0 then build buf
  else (
    let { Raw_buffer.data = s; len } = Raw_buffer.contents buf in
    let source = Raw_buffer.path buf in
    let keep = n_old - 1 in
    let resume = fst t.obj_bounds.(keep) in
    Io_stats.add_bytes_read (len - resume);
    let newlines = collect_newlines s ~source ~lo:resume ~hi:len in
    let bounds = ref [] in
    let start = ref resume in
    List.iter
      (fun i ->
        if i > !start then bounds := (!start, i - !start) :: !bounds;
        start := i + 1)
      newlines;
    if !start < len then bounds := (!start, len - !start) :: !bounds;
    let tail = Array.of_list (List.rev !bounds) in
    let obj_bounds = Array.append (Array.sub t.obj_bounds 0 keep) tail in
    let tables = Array.make (Array.length obj_bounds) None in
    Array.blit t.tables 0 tables 0 keep;
    let indexed =
      Array.fold_left (fun acc tbl -> acc + if tbl = None then 0 else 1) 0 tables
    in
    { buf; obj_bounds; tables; indexed })

let object_bounds t i =
  if i < 0 || i >= object_count t then
    Vida_error.invalid_request ~source:(Raw_buffer.path t.buf)
      "Semi_index.object_bounds: object %d out of range" i;
  t.obj_bounds.(i)

let object_value t i =
  let pos, len = object_bounds t i in
  let text = Raw_buffer.slice t.buf ~pos ~len in
  let v = Json.parse_substring ~source:(Raw_buffer.path t.buf) text ~pos:0 ~len in
  Io_stats.add_objects_parsed 1;
  v

let table t obj =
  match t.tables.(obj) with
  | Some table -> table
  | None ->
    let pos, len = object_bounds t obj in
    (* structural scan over the object's bytes; absolute offsets recorded *)
    let text = Raw_buffer.slice t.buf ~pos ~len in
    let table =
      List.map
        (fun (name, (vpos, vlen)) -> (name, (pos + vpos, vlen)))
        (Json.scan_fields ~source:(Raw_buffer.path t.buf) text ~pos:0 ~len)
    in
    t.tables.(obj) <- Some table;
    t.indexed <- t.indexed + 1;
    table

let field_bounds t ~obj ~field =
  Io_stats.add_index_probes 1;
  List.assoc_opt field (table t obj)

let field_string t ~obj ~field =
  match field_bounds t ~obj ~field with
  | None -> None
  | Some (pos, len) -> Some (Raw_buffer.slice t.buf ~pos ~len)

let field_value t ~obj ~field =
  match field_string t ~obj ~field with
  | None -> Value.Null
  | Some text ->
    let v =
      Json.parse_substring ~source:(Raw_buffer.path t.buf) text ~pos:0
        ~len:(String.length text)
    in
    Io_stats.add_objects_parsed 1;
    v

let indexed_objects t = t.indexed

let footprint t =
  let table_cost = function
    | None -> 0
    | Some fields ->
      List.fold_left (fun acc (name, _) -> acc + String.length name + 24) 16 fields
  in
  (16 * Array.length t.obj_bounds)
  + Array.fold_left (fun acc tbl -> acc + table_cost tbl) 0 t.tables
