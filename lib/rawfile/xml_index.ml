open Vida_data

type t = {
  buf : Raw_buffer.t;
  bounds : (int * int) array;
  bad_spans : (int * int * string) list;
      (* malformed child elements skipped during the build: (pos, len, reason) *)
  list_tags : (string, int) Hashtbl.t;
      (* top-level tags that repeat in at least one element: normalized to
         lists in every element, so the collection has a uniform shape;
         each with the file length of the generation that found it *)
  root : string option;  (* root element name; None when it failed to parse *)
  scan_stop : int;  (* where the child scan stopped *)
  closed : bool;  (* the scan ended at the root's closing tag *)
  data_len : int;  (* file length the index was built over *)
}

let raw_element buf bounds i =
  let pos, len = bounds.(i) in
  let text = Raw_buffer.slice buf ~pos ~len in
  fst (Xml.parse_element ~source:(Raw_buffer.path buf) text 0)

(* one eager pass over elements [lo, hi) to learn which tags repeat: XML's
   single-vs-repeated ambiguity must be resolved file-globally or elements
   get inconsistent types. Returns whether a tag not already in
   [list_tags] was added (existing elements' normalization changes). *)
let record_list_tags ~source buf bounds list_tags ~at ~lo ~hi =
  let added = ref false in
  for i = lo to hi - 1 do
    Vida_governor.Governor.poll ~source ();
    Epoch.check ~source ();
    match raw_element buf bounds i with
    | Value.Record fields ->
      List.iter
        (fun (tag, v) ->
          match v with
          | Value.List _ ->
            if not (Hashtbl.mem list_tags tag) then (
              added := true;
              Hashtbl.replace list_tags tag at)
          | _ -> ())
        fields
    | _ -> ()
  done;
  !added

(* The child scans read the view in place, and each scanned byte is
   counted once. *)
let build buf =
  let { Raw_buffer.data; len } = Raw_buffer.contents buf in
  let source = Raw_buffer.path buf in
  Io_stats.add_bytes_read len;
  (* tolerant scan: a malformed element is recorded as a bad span and
     skipped, instead of one bad record poisoning the whole file *)
  let scan = Xml.children_bounds_scan ~source ~len data in
  let bounds = Array.of_list scan.Xml.scan_bounds in
  let list_tags = Hashtbl.create 8 in
  ignore
    (record_list_tags ~source buf bounds list_tags ~at:len ~lo:0 ~hi:(Array.length bounds));
  { buf; bounds; bad_spans = scan.Xml.scan_bad; list_tags;
    root = scan.Xml.scan_root; scan_stop = scan.Xml.scan_stop;
    closed = scan.Xml.scan_closed; data_len = len }

let element_count t = Array.length t.bounds
let buffer t = t.buf

(* Elements are whole, so an element starting before [size] ended there
   unless it was the partial one at that generation's end (then a bad
   span, not counted by it); a tag that became a list later changed how
   every old element normalizes. *)
let elements_within t ~size =
  let k = ref 0 in
  while !k < element_count t && fst t.bounds.(!k) < size do
    incr k
  done;
  let ended = !k > 0 && (let pos, len = t.bounds.(!k - 1) in pos + len <= size) in
  if ended && Hashtbl.fold (fun _ at ok -> ok && at <= size) t.list_tags true
     && not (List.exists (fun (pos, len, _) -> pos < size && pos + len > size) t.bad_spans)
  then Some !k
  else None
let bad_spans t = t.bad_spans

(* Extend an index built over the old prefix of [buf] after an append.
   Returns the new index plus whether a {e new} list tag appeared among
   the appended elements — in that case the normalized shape of old
   elements changes too, and the caller must drop element-derived caches
   even though the index itself is still exact.

   A closed document (scan ended at [</root>]) ignores appended bytes, as
   a full rescan would; an unclosed "streaming" document resumes the
   child scan from where it stopped — or from the start of the last bad
   span touching old EOF, since appended bytes may complete a previously
   partial (malformed-looking) element. *)
let extend t buf =
  match t.root with
  | None -> (build buf, true)  (* root never parsed: anything may change *)
  | Some _ when t.closed ->
    ({ t with buf; data_len = Raw_buffer.length buf }, false)
  | Some root ->
    let { Raw_buffer.data; len } = Raw_buffer.contents buf in
    let source = Raw_buffer.path buf in
    let trailing, kept_bad =
      List.partition (fun (p, l, _) -> p + l >= t.data_len) t.bad_spans
    in
    let resume =
      List.fold_left (fun acc (p, _, _) -> min acc p) t.scan_stop trailing
    in
    Io_stats.add_bytes_read (len - resume);
    let scan = Xml.children_bounds_resume ~source ~len ~root ~from:resume data in
    let old_n = Array.length t.bounds in
    let bounds = Array.append t.bounds (Array.of_list scan.Xml.scan_bounds) in
    let list_tags = Hashtbl.copy t.list_tags in
    let t' =
      { buf; bounds; bad_spans = kept_bad @ scan.Xml.scan_bad; list_tags;
        root = Some root; scan_stop = scan.Xml.scan_stop;
        closed = scan.Xml.scan_closed; data_len = len }
    in
    let added =
      record_list_tags ~source buf bounds list_tags ~at:len ~lo:old_n
        ~hi:(Array.length bounds)
    in
    (t', added)

let element_bounds t i =
  if i < 0 || i >= element_count t then
    Vida_error.invalid_request ~source:(Raw_buffer.path t.buf)
      "Xml_index.element_bounds: element %d out of range" i;
  t.bounds.(i)

let normalize t v =
  match v with
  | Value.Record fields ->
    Value.Record
      (List.map
         (fun (tag, v) ->
           if Hashtbl.mem t.list_tags tag then
             match v with
             | Value.List _ -> (tag, v)
             | Value.Null -> (tag, Value.List [])
             | v -> (tag, Value.List [ v ])
           else (tag, v))
         fields)
  | v -> v

let element_value t i =
  ignore (element_bounds t i);
  Io_stats.add_objects_parsed 1;
  normalize t (raw_element t.buf t.bounds i)

let field_value t ~elem ~field =
  Io_stats.add_index_probes 1;
  match element_value t elem with
  | Value.Record _ as r -> (
    match Value.field_opt r field with Some v -> v | None -> Value.Null)
  | v when String.equal field "#text" -> v
  | _ -> Value.Null

let footprint t = (16 * Array.length t.bounds) + (24 * Hashtbl.length t.list_tags)

let sorted_tags tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* Structural equality over everything derived — the differential oracle
   for incremental == full-rebuild tests. *)
let equal_structure a b =
  a.bounds = b.bounds && a.bad_spans = b.bad_spans
  && sorted_tags a.list_tags = sorted_tags b.list_tags
  && a.root = b.root && a.closed = b.closed
