open Vida_data

let default_source = "xml"

let error ~source pos fmt = Vida_error.parse_error ~source ~offset:pos fmt

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* The scanners read [s] up to [n], which bounds every look-ahead: a
   buffer view's bytes past its length are not the document's. *)
let rec skip_ws ~n s pos = if pos < n && is_ws s.[pos] then skip_ws ~n s (pos + 1) else pos

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let read_name ~source ~n s pos =
  let stop = ref pos in
  while !stop < n && is_name_char s.[!stop] do
    incr stop
  done;
  if !stop = pos then error ~source pos "expected a name";
  (String.sub s pos (!stop - pos), !stop)

let decode_entities text =
  if not (String.contains text '&') then text
  else (
    let buf = Buffer.create (String.length text) in
    let n = String.length text in
    let i = ref 0 in
    while !i < n do
      if text.[!i] = '&' then (
        let stop =
          match String.index_from_opt text !i ';' with
          | Some j when j - !i <= 6 -> j
          | _ -> -1
        in
        if stop = -1 then (
          Buffer.add_char buf '&';
          incr i)
        else (
          let entity = String.sub text (!i + 1) (stop - !i - 1) in
          (match entity with
          | "amp" -> Buffer.add_char buf '&'
          | "lt" -> Buffer.add_char buf '<'
          | "gt" -> Buffer.add_char buf '>'
          | "quot" -> Buffer.add_char buf '"'
          | "apos" -> Buffer.add_char buf '\''
          | e when String.length e > 1 && e.[0] = '#' -> (
            let parsed =
              if e.[1] = 'x' then int_of_string_opt ("0x" ^ String.sub e 2 (String.length e - 2))
              else int_of_string_opt (String.sub e 1 (String.length e - 1))
            in
            match parsed with
            | Some code when code >= 0 && code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | Some code -> Buffer.add_string buf (Printf.sprintf "&#%d;" code)
            | None -> Buffer.add_string buf ("&" ^ e ^ ";"))
          | e -> Buffer.add_string buf ("&" ^ e ^ ";"));
          i := stop + 1))
      else (
        Buffer.add_char buf text.[!i];
        incr i)
    done;
    Buffer.contents buf)

let sniff text =
  match int_of_string_opt text with
  | Some i -> Value.Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Value.Float f
    | None -> (
      match text with
      | "true" -> Value.Bool true
      | "false" -> Value.Bool false
      | "" -> Value.Null
      | t -> Value.String t))

(* skip <!-- --> comments and <? ?> processing instructions *)
let rec skip_misc ~source ~n s pos =
  let pos = skip_ws ~n s pos in
  if pos + 3 < n && String.sub s pos 4 = "<!--" then (
    let rec find i =
      if i + 2 >= n then error ~source i "unterminated comment"
      else if String.sub s i 3 = "-->" then i + 3
      else find (i + 1)
    in
    skip_misc ~source ~n s (find (pos + 4)))
  else if pos + 1 < n && String.sub s pos 2 = "<?" then (
    let rec find i =
      if i + 1 >= n then error ~source i "unterminated processing instruction"
      else if String.sub s i 2 = "?>" then i + 2
      else find (i + 1)
    in
    skip_misc ~source ~n s (find (pos + 2)))
  else if pos + 1 < n && String.sub s pos 2 = "<!" then (
    (* DOCTYPE and friends: skip to the closing '>' *)
    match String.index_from_opt s pos '>' with
    | Some j when j < n -> skip_misc ~source ~n s (j + 1)
    | Some _ | None -> error ~source pos "unterminated declaration")
  else pos

let read_attributes ~source ~n s pos =
  let rec go acc nattrs pos =
    Vida_error.Limits.check_fields ~source ~offset:pos nattrs;
    let pos = skip_ws ~n s pos in
    if pos >= n then error ~source pos "unterminated tag"
    else if s.[pos] = '>' || s.[pos] = '/' then (List.rev acc, pos)
    else (
      let name, pos = read_name ~source ~n s pos in
      let pos = skip_ws ~n s pos in
      if pos >= n || s.[pos] <> '=' then
        error ~source pos "expected '=' after attribute %s" name;
      let pos = skip_ws ~n s (pos + 1) in
      if pos >= n || (s.[pos] <> '"' && s.[pos] <> '\'') then
        error ~source pos "expected a quoted attribute value";
      let quote = s.[pos] in
      let stop =
        match String.index_from_opt s (pos + 1) quote with
        | Some j when j < n -> j
        | Some _ | None -> error ~source pos "unterminated attribute value"
      in
      let value = decode_entities (String.sub s (pos + 1) (stop - pos - 1)) in
      go ((name, sniff value) :: acc) (nattrs + 1) (stop + 1))
  in
  go [] 0 pos

(* Combine attributes, child elements (grouped by tag) and text into the
   element's value. *)
let assemble attrs children text =
  let text = String.trim text in
  match attrs, children, text with
  | [], [], "" -> Value.Null
  | [], [], t -> sniff (decode_entities t)
  | _ ->
    let grouped =
      (* children arrive in document order; group repeated tags *)
      let order = ref [] in
      let table = Hashtbl.create 8 in
      List.iter
        (fun (tag, v) ->
          (match Hashtbl.find_opt table tag with
          | None ->
            order := tag :: !order;
            Hashtbl.replace table tag [ v ]
          | Some vs -> Hashtbl.replace table tag (v :: vs)))
        children;
      List.rev_map
        (fun tag ->
          match List.rev (Hashtbl.find table tag) with
          | [ single ] -> (tag, single)
          | many -> (tag, Value.List many))
        !order
    in
    let text_field =
      if text = "" then [] else [ ("#text", sniff (decode_entities text)) ]
    in
    Value.Record (attrs @ grouped @ text_field)

let rec parse_element_at ~source ~n ~depth s pos =
  Vida_error.Limits.check_nesting ~source ~offset:pos depth;
  let pos = skip_misc ~source ~n s pos in
  if pos >= n || s.[pos] <> '<' then error ~source pos "expected '<'";
  let tag, pos = read_name ~source ~n s (pos + 1) in
  let attrs, pos = read_attributes ~source ~n s pos in
  if pos < n && s.[pos] = '/' then (
    if pos + 1 >= n || s.[pos + 1] <> '>' then error ~source pos "expected '/>'";
    (assemble attrs [] "", pos + 2))
  else (
    (* content until </tag> *)
    let pos = pos + 1 in
    let children = ref [] in
    let text = Buffer.create 16 in
    let rec content pos =
      if pos >= n then error ~source pos "unterminated element <%s>" tag
      else if s.[pos] = '<' then
        if pos + 1 < n && s.[pos + 1] = '/' then (
          let close, pos' = read_name ~source ~n s (pos + 2) in
          if not (String.equal close tag) then
            error ~source pos "mismatched </%s> for <%s>" close tag;
          let pos' = skip_ws ~n s pos' in
          if pos' >= n || s.[pos'] <> '>' then error ~source pos' "expected '>'";
          pos' + 1)
        else if pos + 3 < n && String.sub s pos 4 = "<!--" then
          content (skip_misc ~source ~n s pos)
        else if pos + 1 < n && (s.[pos + 1] = '?' || s.[pos + 1] = '!') then
          content (skip_misc ~source ~n s pos)
        else (
          (* child element: remember its tag before recursing *)
          let child_tag, _ = read_name ~source ~n s (pos + 1) in
          let v, pos' = parse_element_at ~source ~n ~depth:(depth + 1) s pos in
          children := (child_tag, v) :: !children;
          content pos')
      else (
        Buffer.add_char text s.[pos];
        content (pos + 1))
    in
    let pos = content pos in
    (assemble attrs (List.rev !children) (Buffer.contents text), pos))

let parse_element ?(source = default_source) s pos =
  parse_element_at ~source ~n:(String.length s) ~depth:0 s pos

let skip_element_n ~source ~n s pos = snd (parse_element_at ~source ~n ~depth:0 s pos)

let skip_element ?(source = default_source) s pos =
  skip_element_n ~source ~n:(String.length s) s pos

let parse_document ?(source = default_source) s =
  let n = String.length s in
  let pos = skip_misc ~source ~n s 0 in
  let v, pos = parse_element_at ~source ~n ~depth:0 s pos in
  let pos = skip_misc ~source ~n s pos in
  if pos <> String.length s then error ~source pos "trailing content after the root element"
  else (
    Io_stats.add_objects_parsed 1;
    v)

let children_bounds ?(source = default_source) s =
  let n = String.length s in
  let pos = skip_misc ~source ~n s 0 in
  if pos >= n || s.[pos] <> '<' then error ~source pos "expected the root element";
  let _, pos = read_name ~source ~n s (pos + 1) in
  let _, pos = read_attributes ~source ~n s pos in
  if pos < n && s.[pos] = '/' then []
  else (
    let bounds = ref [] in
    let rec scan pos =
      let pos = skip_misc ~source ~n s pos in
      if pos >= n then error ~source pos "unterminated root element"
      else if s.[pos] = '<' && pos + 1 < n && s.[pos + 1] = '/' then ()
      else if s.[pos] = '<' then (
        let stop = skip_element_n ~source ~n s pos in
        bounds := (pos, stop - pos) :: !bounds;
        scan stop)
      else scan (pos + 1)
    in
    scan (pos + 1);
    List.rev !bounds)

(* Tolerant variant: a malformed child element does not abort the scan.
   Recovery resyncs at the next plausible element start — a '<' followed by
   a name character — after the failure point, and reports the skipped raw
   span so the cleaning layer can quarantine it. *)
type tolerant_scan = {
  scan_bounds : (int * int) list;
  scan_bad : (int * int * string) list;
  scan_root : string option;  (* None when the root itself failed to parse *)
  scan_stop : int;  (* byte offset where the child scan stopped *)
  scan_closed : bool;  (* the scan ended at the root's closing tag *)
}

(* Child-level tolerant scan from byte [from] of a document rooted at
   [root] — shared by the full scan and append-resumption ({!Xml_index}
   extends its index by re-running exactly this loop over the new tail,
   so incremental and full scans cannot diverge). *)
let scan_children ~source ~n ~root ~from s =
  let resync from =
    let rec go i =
      if i + 1 >= n then n
      else if s.[i] = '<' && (is_name_char s.[i + 1] || s.[i + 1] = '/') then i
      else go (i + 1)
    in
    go from
  in
  (* a closing tag at record level ends the scan only if it closes the
     root; a stray one (left behind by a damaged record) is reported as
     a bad span and skipped so the records after it still come back *)
  let closes_root pos =
    match Vida_error.guard (fun () -> read_name ~source ~n s (pos + 2)) with
    | Ok (name, _) -> String.equal name root
    | Result.Error _ -> false
  in
  let bounds = ref [] and bad = ref [] in
  let rec scan pos =
    if pos >= n then (n, false)
    else (
      match Vida_error.guard (fun () -> skip_misc ~source ~n s pos) with
      | Result.Error e ->
        bad := (pos, n - pos, Vida_error.to_string e) :: !bad;
        (n, false)
      | Ok pos ->
        if pos >= n then (n, false)
        else if s.[pos] = '<' && pos + 1 < n && s.[pos + 1] = '/' then
          if closes_root pos then (pos, true)
          else (
            let next = resync (pos + 2) in
            bad := (pos, next - pos, "stray closing tag") :: !bad;
            scan next)
        else if s.[pos] = '<' then (
          match Vida_error.guard (fun () -> skip_element_n ~source ~n s pos) with
          | Ok stop ->
            bounds := (pos, stop - pos) :: !bounds;
            scan stop
          | Result.Error e ->
            let next = resync (pos + 1) in
            bad := (pos, next - pos, Vida_error.to_string e) :: !bad;
            scan next)
        else scan (pos + 1))
  in
  let stop, closed = scan from in
  { scan_bounds = List.rev !bounds; scan_bad = List.rev !bad;
    scan_root = Some root; scan_stop = stop; scan_closed = closed }

let children_bounds_scan ?(source = default_source) ?len s =
  let n = Option.value len ~default:(String.length s) in
  match
    Vida_error.guard (fun () ->
        let pos = skip_misc ~source ~n s 0 in
        if pos >= n || s.[pos] <> '<' then error ~source pos "expected the root element";
        let name, pos = read_name ~source ~n s (pos + 1) in
        let _, pos = read_attributes ~source ~n s pos in
        (name, pos))
  with
  | Result.Error e ->
    { scan_bounds = []; scan_bad = [ (0, n, Vida_error.to_string e) ];
      scan_root = None; scan_stop = n; scan_closed = true }
  | Ok (root, pos) when pos < n && s.[pos] = '/' ->
    { scan_bounds = []; scan_bad = []; scan_root = Some root; scan_stop = pos;
      scan_closed = true }
  | Ok (root, pos) -> scan_children ~source ~n ~root ~from:(pos + 1) s

let children_bounds_resume ?(source = default_source) ?len ~root ~from s =
  scan_children ~source ~n:(Option.value len ~default:(String.length s)) ~root ~from s

let children_bounds_tolerant ?source s =
  let r = children_bounds_scan ?source s in
  (r.scan_bounds, r.scan_bad)
