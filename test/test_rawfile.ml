(* Tests for raw-file substrates: CSV tokenization + positional maps, JSON
   parsing + semi-index, binary array files, I/O stats, invalidation. *)

open Vida_data
open Vida_raw

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp_file contents =
  let path = Filename.temp_file "vida_test" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let buf_of contents = Raw_buffer.of_path (tmp_file contents)

(* --- Raw_buffer --- *)

let test_raw_buffer () =
  let buf = buf_of "hello\nworld\n" in
  check_bool "lazy" false (Raw_buffer.loaded buf);
  check_int "length" 12 (Raw_buffer.length buf);
  check_bool "loaded after" true (Raw_buffer.loaded buf);
  check_string "slice" "world" (Raw_buffer.slice buf ~pos:6 ~len:5);
  check_bool "index_from" true (Raw_buffer.index_from buf 0 '\n' = Some 5);
  check_bool "index_from miss" true (Raw_buffer.index_from buf 12 'x' = None);
  (match Raw_buffer.slice buf ~pos:10 ~len:5 with
  | exception Vida_error.Error (Vida_error.Truncated { source; offset; _ }) ->
    check_string "slice error source" (Raw_buffer.path buf) source;
    check_int "slice error offset" 10 offset
  | _ -> Alcotest.fail "out-of-range slice should raise Truncated");
  Raw_buffer.invalidate buf;
  check_bool "invalidated" false (Raw_buffer.loaded buf)

let test_io_stats () =
  Io_stats.reset ();
  let buf = buf_of "abcdef" in
  let _, delta = Io_stats.measure (fun () -> Raw_buffer.slice buf ~pos:0 ~len:3) in
  check_int "bytes counted" 3 delta.Io_stats.bytes_read;
  check_int "load counted" 1 delta.Io_stats.file_loads

(* --- CSV --- *)

let test_csv_split_line () =
  Alcotest.(check (list string)) "plain" [ "a"; "b"; "c" ] (Csv.split_line ~delim:',' "a,b,c");
  Alcotest.(check (list string)) "empty fields" [ ""; ""; "" ] (Csv.split_line ~delim:',' ",,");
  Alcotest.(check (list string)) "quoted" [ "a,b"; "c" ] (Csv.split_line ~delim:',' "\"a,b\",c");
  Alcotest.(check (list string)) "escaped quote" [ "say \"hi\""; "x" ]
    (Csv.split_line ~delim:',' "\"say \"\"hi\"\"\",x");
  Alcotest.(check (list string)) "single" [ "only" ] (Csv.split_line ~delim:',' "only");
  Alcotest.(check (list string)) "empty line" [ "" ] (Csv.split_line ~delim:',' "")

let test_csv_field_navigation () =
  let s = "a,bb,ccc,dddd\n" in
  let row_end = 13 in
  let start, stop, next = Csv.field_bounds_str ~delim:',' s ~row_end 0 in
  check_int "f0 start" 0 start;
  check_int "f0 stop" 1 stop;
  check_int "f0 next" 2 next;
  let pos = Csv.skip_fields_str ~delim:',' s ~row_end 0 2 in
  check_int "skip 2" 5 pos;
  let content, next = Csv.field_content_str ~delim:',' s ~row_end pos in
  check_string "third field" "ccc" content;
  let content, next' = Csv.field_content_str ~delim:',' s ~row_end next in
  check_string "fourth field" "dddd" content;
  check_bool "row exhausted" true (next' > row_end)

let test_csv_quoted_field_navigation () =
  let s = "\"x,y\",2\n" in
  let row_end = 7 in
  let content, next = Csv.field_content_str ~delim:',' s ~row_end 0 in
  check_string "quoted content" "x,y" content;
  let content, _ = Csv.field_content_str ~delim:',' s ~row_end next in
  check_string "after quoted" "2" content

(* regression: stray bytes after a closing quote ("abc"x,next) used to
   swallow the delimiter and drop every remaining field of the row *)
let test_csv_quoted_stray_bytes () =
  let s = "\"abc\"x,next,3\n" in
  let row_end = 13 in
  let content, next = Csv.field_content_str ~delim:',' s ~row_end 0 in
  check_string "quoted content kept" "abc" content;
  check_int "resynced at the delimiter" 7 next;
  let content, next = Csv.field_content_str ~delim:',' s ~row_end next in
  check_string "following field intact" "next" content;
  let content, next = Csv.field_content_str ~delim:',' s ~row_end next in
  check_string "last field intact" "3" content;
  check_bool "row exhausted" true (next > row_end)

let test_csv_convert () =
  check_bool "int" true (Csv.convert Ty.Int "42" = Value.Int 42);
  check_bool "float" true (Csv.convert Ty.Float "1.5" = Value.Float 1.5);
  check_bool "int widens" true (Csv.convert Ty.Float "2" = Value.Float 2.);
  check_bool "bool" true (Csv.convert Ty.Bool "true" = Value.Bool true);
  check_bool "string" true (Csv.convert Ty.String "x" = Value.String "x");
  check_bool "null empty" true (Csv.convert Ty.Int "" = Value.Null);
  check_bool "null NA" true (Csv.convert Ty.Float "NA" = Value.Null);
  check_bool "sniff int" true (Csv.convert Ty.Any "7" = Value.Int 7);
  check_bool "sniff float" true (Csv.convert Ty.Any "7.5" = Value.Float 7.5);
  check_bool "sniff string" true (Csv.convert Ty.Any "abc" = Value.String "abc");
  Alcotest.check_raises "bad int" (Value.Type_error "CSV field \"xyz\" is not an int")
    (fun () -> ignore (Csv.convert Ty.Int "xyz"))

let test_csv_escape_roundtrip () =
  let cases = [ "plain"; "with,comma"; "with\"quote"; "with\nnewline"; "" ] in
  List.iter
    (fun s ->
      let escaped = Csv.escape_field ~delim:',' s in
      match Csv.split_line ~delim:',' escaped with
      | [ s' ] -> check_string "roundtrip" s s'
      | _ -> Alcotest.failf "field %S split wrongly" s)
    cases

(* --- Positional map --- *)

let sample_csv = "id,name,score\n1,ada,10\n2,bob,20\n3,cyd,30\n"

let test_posmap_build () =
  let pm = Positional_map.build (buf_of sample_csv) in
  check_int "rows" 3 (Positional_map.row_count pm);
  Alcotest.(check (list string)) "header" [ "id"; "name"; "score" ]
    (Positional_map.column_names pm);
  let start, stop = Positional_map.row_bounds pm 1 in
  check_string "row 1 text" "2,bob,20"
    (Raw_buffer.slice (buf_of sample_csv) ~pos:start ~len:(stop - start))

let test_posmap_field_access () =
  let pm = Positional_map.build (buf_of sample_csv) in
  check_string "row0 col1" "ada" (Positional_map.field pm ~row:0 ~col:1);
  check_string "row2 col2" "30" (Positional_map.field pm ~row:2 ~col:2);
  check_string "row1 col0" "2" (Positional_map.field pm ~row:1 ~col:0)

let test_posmap_populate_cuts_tokenization () =
  let pm = Positional_map.build (buf_of sample_csv) in
  (* unpopulated: reaching col 2 tokenizes cols 0 and 1 first *)
  Io_stats.reset ();
  ignore (Positional_map.field pm ~row:0 ~col:2);
  let cold = (Io_stats.current ()).Io_stats.fields_tokenized in
  Positional_map.populate pm [ 2 ];
  Io_stats.reset ();
  ignore (Positional_map.field pm ~row:0 ~col:2);
  let hot = (Io_stats.current ()).Io_stats.fields_tokenized in
  check_bool
    (Printf.sprintf "populated access tokenizes fewer fields (%d < %d)" hot cold)
    true (hot < cold);
  Alcotest.(check (list int)) "populated cols" [ 2 ] (Positional_map.populated_columns pm)

let test_posmap_anchor_navigation () =
  let pm = Positional_map.build (buf_of "a,b,c,d,e\n1,2,3,4,5\n") in
  Positional_map.populate pm [ 2 ];
  (* col 3 should anchor at recorded col 2, tokenizing a single hop *)
  Io_stats.reset ();
  check_string "col 3 via anchor" "4" (Positional_map.field pm ~row:0 ~col:3);
  let s = Io_stats.current () in
  check_bool "few fields tokenized" true (s.Io_stats.fields_tokenized <= 2)

let test_posmap_fields_multi () =
  let pm = Positional_map.build (buf_of sample_csv) in
  let got = Positional_map.fields pm ~row:1 ~cols:[ 2; 0 ] in
  check_string "col2" "20" got.(0);
  check_string "col0" "2" got.(1)

let test_posmap_short_rows () =
  let pm = Positional_map.build (buf_of "a,b,c\n1,2,3\n4\n") in
  check_int "rows" 2 (Positional_map.row_count pm);
  check_string "present" "4" (Positional_map.field pm ~row:1 ~col:0);
  check_string "missing is empty" "" (Positional_map.field pm ~row:1 ~col:2);
  Positional_map.populate pm [ 2 ];
  check_string "missing after populate" "" (Positional_map.field pm ~row:1 ~col:2)

let test_posmap_record_while_scanning () =
  let pm = Positional_map.build (buf_of sample_csv) in
  let seen = ref [] in
  Positional_map.record_while_scanning pm ~cols:[ 1 ] (fun row fields ->
      seen := (row, fields.(0)) :: !seen);
  Alcotest.(check (list (pair int string))) "scanned"
    [ (0, "ada"); (1, "bob"); (2, "cyd") ]
    (List.rev !seen);
  Alcotest.(check (list int)) "recorded" [ 1 ] (Positional_map.populated_columns pm)

let test_posmap_no_header () =
  let pm = Positional_map.build ~header:false (buf_of "1,2\n3,4\n") in
  check_int "rows" 2 (Positional_map.row_count pm);
  Alcotest.(check (list string)) "no header" [] (Positional_map.column_names pm);
  check_string "first" "1" (Positional_map.field pm ~row:0 ~col:0)

let test_posmap_quoted_newline () =
  let pm = Positional_map.build ~header:false (buf_of "\"a\nb\",2\n3,4\n") in
  check_int "embedded newline keeps row" 2 (Positional_map.row_count pm);
  check_string "quoted field" "a\nb" (Positional_map.field pm ~row:0 ~col:0)

(* property: positional-map access agrees with plain line splitting *)
let prop_posmap_agrees_with_split =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (list_size (int_range 1 6)
           (string_size ~gen:(char_range 'a' 'z') (int_range 0 5))))
  in
  QCheck.Test.make ~name:"posmap agrees with split_line" ~count:50
    (QCheck.make gen) (fun rows ->
      (* normalize: all rows same width as first *)
      let width = List.length (List.hd rows) in
      let rows = List.map (fun r -> List.filteri (fun i _ -> i < width) (r @ List.init width (fun _ -> "pad"))) rows in
      let contents =
        String.concat "\n" (List.map (String.concat ",") rows) ^ "\n"
      in
      let pm = Positional_map.build ~header:false (buf_of contents) in
      List.for_all2
        (fun row expected ->
          List.for_all2
            (fun col v -> Positional_map.field pm ~row ~col = v)
            (List.init width Fun.id) expected)
        (List.init (List.length rows) Fun.id)
        rows)

(* Row text for the tokenizer properties: plain bytes, delimiters, lone
   and escaped quotes, carriage returns, empty fields (adjacent
   delimiters) and stray bytes after a closing quote. *)
let gen_row_text =
  QCheck.Gen.(
    map (String.concat "")
    @@ list_size (int_range 0 10)
         (oneofl [ "a"; "bb"; ","; ",,"; "\""; "\"\""; "\r"; "\"a,b\""; "\"ab\"x" ]))

(* Reference navigation: [n] applications of [field_bounds_str], and the
   steps among them taken while the row still had bytes left (the
   pre-walk [populate] charge). Run outside any measured window, since
   [field_bounds_str] counts. *)
let reference_steps s ~row_end pos n =
  let row_end' = min row_end (String.length s) in
  let rec go pos n visited =
    if n = 0 then (pos, visited)
    else
      let _, _, next = Csv.field_bounds_str ~delim:',' s ~row_end pos in
      go next (n - 1) (if pos <= row_end' then visited + 1 else visited)
  in
  go pos n 0

let tokenized f =
  let result, delta = Io_stats.measure f in
  (result, delta.Io_stats.fields_tokenized)

(* property: the uncounted walk lands where repeated [field_bounds_str]
   lands, reports the fields visited before the row ran out, and
   [skip_fields_str] keeps the charge of [n] *)
let prop_walk_matches_field_bounds =
  let gen =
    QCheck.Gen.(
      let* row = gen_row_text and* tail = gen_row_text in
      let* row_end =
        oneof [ return (String.length row); int_range 0 (String.length row + 3) ]
      in
      let* pos = int_range 0 (row_end + 2) and* n = int_range 0 8 in
      return (row ^ "\n" ^ tail, row_end, pos, n))
  in
  QCheck.Test.make ~name:"walk matches repeated field_bounds" ~count:500
    (QCheck.make
       ~print:(fun (s, row_end, pos, n) ->
         Printf.sprintf "s=%S row_end=%d pos=%d n=%d" s row_end pos n)
       gen)
    (fun (s, row_end, pos, n) ->
      let expected_pos, expected_visited = reference_steps s ~row_end pos n in
      let visited = ref 0 in
      let walked, walk_charge =
        tokenized (fun () -> Csv.walk_fields ~delim:',' s ~row_end ~visited pos n)
      in
      let skipped, skip_charge =
        tokenized (fun () -> Csv.skip_fields_str ~delim:',' s ~row_end pos n)
      in
      if walked <> expected_pos then
        QCheck.Test.fail_reportf "walk reached %d, field_bounds %d" walked expected_pos;
      if skipped <> expected_pos then
        QCheck.Test.fail_reportf "skip reached %d, field_bounds %d" skipped expected_pos;
      if !visited <> expected_visited then
        QCheck.Test.fail_reportf "walk visited %d fields, expected %d" !visited
          expected_visited;
      if walk_charge <> 0 then QCheck.Test.fail_reportf "walk charged %d" walk_charge;
      if skip_charge <> n then
        QCheck.Test.fail_reportf "skip charged %d, expected %d" skip_charge n;
      true)

(* property: over a multi-row file with short rows, populating an anchor
   column and then every column past it charges the pre-walk rule, and
   [field] / [fields] agree with [split_line] of each row on every column *)
let prop_posmap_populate_agrees_with_split =
  let gen =
    QCheck.Gen.(
      let* rows = list_size (int_range 1 6) gen_row_text and* trailing = bool in
      return (String.concat "\n" rows ^ if trailing then "\n" else ""))
  in
  QCheck.Test.make ~name:"populate then field agrees with split_line" ~count:150
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun contents ->
      let path = tmp_file contents in
      let pm = Positional_map.build ~header:false (Raw_buffer.of_path path) in
      let nrows = Positional_map.row_count pm in
      let rows = List.init nrows Fun.id in
      let bounds = List.map (Positional_map.row_bounds pm) rows in
      let expected =
        List.map
          (fun (start, stop) ->
            Array.of_list
              (Csv.split_line ~delim:',' (String.sub contents start (stop - start))))
          bounds
      in
      let width = List.fold_left (fun w e -> max w (Array.length e)) 0 expected + 1 in
      let all_cols = List.init (width + 1) Fun.id in
      let expect row col =
        let e = List.nth expected row in
        if col < Array.length e then e.(col) else ""
      in
      (* the pre-walk charge of a populate walking [n] fields from the
         offset reached by [from] fields *)
      let reference_charge ~from n =
        List.fold_left
          (fun acc (start, stop) ->
            let anchor, _ = reference_steps contents ~row_end:stop start from in
            acc + snd (reference_steps contents ~row_end:stop anchor n))
          0 bounds
      in
      let check_access label pm =
        List.iter
          (fun row ->
            List.iter
              (fun col ->
                let got = Positional_map.field pm ~row ~col in
                if got <> expect row col then
                  QCheck.Test.fail_reportf "%s: field row %d col %d = %S, split %S" label
                    row col got (expect row col))
              all_cols;
            let got = Positional_map.fields pm ~row ~cols:(List.rev all_cols) in
            List.iteri
              (fun i col ->
                if got.(i) <> expect row col then
                  QCheck.Test.fail_reportf "%s: fields row %d col %d = %S, split %S" label
                    row col got.(i) (expect row col))
              (List.rev all_cols))
          rows
      in
      List.iter
        (fun a ->
          let pm = Positional_map.build ~header:false (Raw_buffer.of_path path) in
          let expected_anchor = reference_charge ~from:0 a in
          let (), anchor_charge = tokenized (fun () -> Positional_map.populate pm [ a ]) in
          if anchor_charge <> expected_anchor then
            QCheck.Test.fail_reportf "populate [%d] charged %d, expected %d" a anchor_charge
              expected_anchor;
          check_access (Printf.sprintf "anchor %d" a) pm;
          let rest = List.filter (fun c -> c > a) all_cols in
          let expected_rest = reference_charge ~from:a (width - a) in
          let (), rest_charge = tokenized (fun () -> Positional_map.populate pm rest) in
          if rest_charge <> expected_rest then
            QCheck.Test.fail_reportf "populate past %d charged %d, expected %d" a
              rest_charge expected_rest;
          check_access (Printf.sprintf "anchor %d and past" a) pm)
        all_cols;
      Sys.remove path;
      true)

(* --- JSON --- *)

let test_json_scalars () =
  check_bool "int" true (Json.parse "42" = Value.Int 42);
  check_bool "neg" true (Json.parse "-7" = Value.Int (-7));
  check_bool "float" true (Json.parse "2.5" = Value.Float 2.5);
  check_bool "exp" true (Json.parse "1e3" = Value.Float 1000.);
  check_bool "true" true (Json.parse "true" = Value.Bool true);
  check_bool "null" true (Json.parse "null" = Value.Null);
  check_bool "string" true (Json.parse "\"hi\"" = Value.String "hi")

let test_json_structures () =
  let v = Json.parse {|{"a": 1, "b": [true, null], "c": {"d": "x"}}|} in
  check_bool "nested" true
    (Value.equal v
       (Value.Record
          [ ("a", Value.Int 1);
            ("b", Value.List [ Value.Bool true; Value.Null ]);
            ("c", Value.Record [ ("d", Value.String "x") ])
          ]))

let test_json_escapes () =
  check_bool "escapes" true
    (Json.parse {|"a\"b\\c\ndA"|} = Value.String "a\"b\\c\nd\065");
  check_bool "unicode 2-byte" true (Json.parse {|"é"|} = Value.String "\xc3\xa9")

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | exception Vida_error.Error (Vida_error.Parse_error _) -> ()
    | v -> Alcotest.failf "%S should fail, got %s" s (Value.to_string v)
  in
  bad "{";
  bad "[1,";
  bad "{\"a\" 1}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated";
  bad ""

let test_json_roundtrip () =
  (* Value.to_json composed with Json.parse is the identity on JSON-shaped
     values (records/lists/scalars) *)
  let vals =
    [ Value.Record [ ("x", Value.Int 1); ("y", Value.List [ Value.Float 2.5; Value.Null ]) ];
      Value.List [];
      Value.String "quote\" and \\ backslash \n newline";
      Value.Record []
    ]
  in
  List.iter
    (fun v ->
      let v' = Json.parse (Value.to_json v) in
      if not (Value.equal v v') then
        Alcotest.failf "roundtrip %s -> %s" (Value.to_string v) (Value.to_string v'))
    vals

let test_json_skip_value () =
  let s = {|{"a": [1, {"b": "}{"}, 3], "c": 4} tail|} in
  let stop = Json.skip_value s 0 in
  check_string "skips exactly the object" " tail" (String.sub s stop (String.length s - stop))

let test_json_scan_fields () =
  let s = {|{"a": 1, "b": [1,2], "c": "x,y"}|} in
  let fields = Json.scan_fields s ~pos:0 ~len:(String.length s) in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ] (List.map fst fields);
  let b_pos, b_len = List.assoc "b" fields in
  check_string "b range" "[1,2]" (String.sub s b_pos b_len)

(* --- Semi-index --- *)

let jsonl =
  {|{"id": 1, "regions": [{"name": "r1", "vol": 10.5}], "meta": {"src": "mri"}}
{"id": 2, "regions": [], "meta": {"src": "ct"}}
{"id": 3, "regions": [{"name": "r9", "vol": 1.0}, {"name": "r2", "vol": 2.0}]}
|}

let test_semi_index_objects () =
  let si = Semi_index.build (buf_of jsonl) in
  check_int "objects" 3 (Semi_index.object_count si);
  match Semi_index.object_value si 1 with
  | Value.Record (("id", Value.Int 2) :: _) -> ()
  | v -> Alcotest.failf "object 1: %s" (Value.to_string v)

let test_semi_index_field_access () =
  let si = Semi_index.build (buf_of jsonl) in
  check_bool "id field" true (Semi_index.field_value si ~obj:2 ~field:"id" = Value.Int 3);
  check_bool "missing field" true (Semi_index.field_value si ~obj:2 ~field:"meta" = Value.Null);
  match Semi_index.field_value si ~obj:0 ~field:"regions" with
  | Value.List [ Value.Record _ ] -> ()
  | v -> Alcotest.failf "regions: %s" (Value.to_string v)

let test_semi_index_lazy () =
  let si = Semi_index.build (buf_of jsonl) in
  check_int "nothing indexed" 0 (Semi_index.indexed_objects si);
  ignore (Semi_index.field_value si ~obj:0 ~field:"id");
  check_int "one object indexed" 1 (Semi_index.indexed_objects si);
  ignore (Semi_index.field_value si ~obj:0 ~field:"meta");
  check_int "still one" 1 (Semi_index.indexed_objects si)

let test_semi_index_avoids_full_parse () =
  let si = Semi_index.build (buf_of jsonl) in
  (* warm the field table, then measure a repeat access *)
  ignore (Semi_index.field_value si ~obj:0 ~field:"id");
  Io_stats.reset ();
  ignore (Semi_index.field_value si ~obj:0 ~field:"id");
  let s = Io_stats.current () in
  let _, obj_len = Semi_index.object_bounds si 0 in
  check_bool
    (Printf.sprintf "read %d bytes < object %d bytes" s.Io_stats.bytes_read obj_len)
    true
    (s.Io_stats.bytes_read < obj_len)

let test_semi_index_field_string () =
  let si = Semi_index.build (buf_of jsonl) in
  check_bool "raw text" true
    (Semi_index.field_string si ~obj:1 ~field:"meta" = Some {|{"src": "ct"}|});
  check_bool "absent" true (Semi_index.field_string si ~obj:2 ~field:"meta" = None)

(* --- Binarray --- *)

let test_binarray_roundtrip () =
  let path = Filename.temp_file "vida_test" ".varr" in
  let fields = [ { Binarray.name = "elevation"; is_float = true };
                 { Binarray.name = "temperature"; is_float = true };
                 { Binarray.name = "flag"; is_float = false } ] in
  Binarray.write path ~dims:[ 2; 3 ] ~fields (fun cell ->
      [| Value.Float (float_of_int cell *. 1.5);
         Value.Float (100. -. float_of_int cell);
         Value.Int (cell * cell) |]);
  let t = Binarray.open_file (Raw_buffer.of_path path) in
  check_int "cells" 6 (Binarray.cell_count t);
  check_bool "dims" true ((Binarray.header t).dims = [ 2; 3 ]);
  check_bool "field index" true (Binarray.field_index t "temperature" = Some 1);
  check_bool "field index miss" true (Binarray.field_index t "nope" = None);
  let cell = Binarray.cell_of_indices t [ 1; 2 ] in
  check_int "cell of indices" 5 cell;
  check_bool "elevation" true (Binarray.get t ~cell ~field:0 = Value.Float 7.5);
  check_bool "flag" true (Binarray.get t ~cell ~field:2 = Value.Int 25);
  match Binarray.get_cell t ~cell:0 with
  | Value.Record [ ("elevation", Value.Float 0.); ("temperature", Value.Float 100.); ("flag", Value.Int 0) ] -> ()
  | v -> Alcotest.failf "cell 0: %s" (Value.to_string v)

let test_binarray_to_value () =
  let path = Filename.temp_file "vida_test" ".varr" in
  Binarray.write path ~dims:[ 2; 2 ]
    ~fields:[ { Binarray.name = "v"; is_float = false } ]
    (fun cell -> [| Value.Int cell |]);
  let t = Binarray.open_file (Raw_buffer.of_path path) in
  match Binarray.to_value t with
  | Value.Array { dims = [ 2; 2 ]; data } ->
    check_int "flat length" 4 (Array.length data);
    check_bool "cell 3" true (Value.equal data.(3) (Value.Record [ ("v", Value.Int 3) ]))
  | v -> Alcotest.failf "to_value: %s" (Value.to_string v)

let test_binarray_negative_values () =
  let path = Filename.temp_file "vida_test" ".varr" in
  Binarray.write path ~dims:[ 1 ]
    ~fields:[ { Binarray.name = "i"; is_float = false }; { Binarray.name = "f"; is_float = true } ]
    (fun _ -> [| Value.Int (-123456789); Value.Float (-2.5e-3) |]);
  let t = Binarray.open_file (Raw_buffer.of_path path) in
  check_bool "neg int" true (Binarray.get t ~cell:0 ~field:0 = Value.Int (-123456789));
  check_bool "neg float" true (Binarray.get t ~cell:0 ~field:1 = Value.Float (-2.5e-3))

let test_binarray_bad_file () =
  let path = tmp_file "NOT A VARR FILE" in
  match Binarray.open_file (Raw_buffer.of_path path) with
  | exception Vida_error.Error (Vida_error.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected Parse_error on bad magic"

(* --- File snapshot --- *)

let test_file_snapshot () =
  let path = tmp_file "version one contents" in
  let snap = File_snapshot.take path in
  check_bool "fresh" false (File_snapshot.stale snap);
  let oc = open_out_bin path in
  output_string oc "version two contents!";
  close_out oc;
  check_bool "stale after rewrite" true (File_snapshot.stale snap);
  Sys.remove path;
  check_bool "stale after delete" true (File_snapshot.stale snap)

(* the snapshot's identity is content-derived (stdlib-only; no Unix
   mtime): a same-size in-place rewrite — which mtime granularity can
   miss entirely — must read as stale, while rewriting identical bytes
   (only the timestamp moves) must not *)
let test_file_snapshot_same_size_rewrite () =
  let path = tmp_file "constant contents" in
  let snap = File_snapshot.take path in
  check_bool "fresh" false (File_snapshot.stale snap);
  Vida_governor.Governor.sleep_ms 20.0;
  let rewrite s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  rewrite "constant contents";
  check_bool "identical rewrite is not stale" false (File_snapshot.stale snap);
  rewrite "CONSTANT contents";
  check_int "size unchanged" (String.length "constant contents") (File_snapshot.size snap);
  check_bool "same-size content change is stale" true (File_snapshot.stale snap);
  Sys.remove path

(* --- Fingerprint --- *)

(* probing files that cannot be read is a clean [None], never an
   exception: the delta detector runs against files other processes own *)
let test_fingerprint_probe_errors () =
  check_bool "missing file" true (Fingerprint.probe "/nonexistent/vida/fp.raw" = None);
  let path = tmp_file "short-lived" in
  check_bool "readable file" true (Fingerprint.probe path <> None);
  Sys.remove path;
  check_bool "disappeared file" true (Fingerprint.probe path = None);
  check_bool "prefix of missing file" true (Fingerprint.probe_prefix path ~size:4 = None);
  check_bool "directory" true (Fingerprint.probe (Filename.get_temp_dir_name ()) = None)

(* edits strictly between the head and tail windows are covered by the
   size-seeded interior window (fingerprint version 2) *)
let test_fingerprint_interior_window () =
  let n = 5 * Fingerprint.window in
  let base = String.init n (fun i -> Char.chr (Char.code 'a' + (i mod 17))) in
  let fp = Fingerprint.of_contents base in
  check_bool "deterministic" true (Fingerprint.equal fp (Fingerprint.of_contents base));
  (* sample interior positions; the 4 KiB interior window must catch a
     window's worth of them *)
  let lo = Fingerprint.window and hi = n - Fingerprint.window in
  let caught = ref 0 in
  let pos = ref lo in
  while !pos < hi do
    let edited = Bytes.of_string base in
    Bytes.set edited !pos '!';
    if not (Fingerprint.equal fp (Fingerprint.of_contents (Bytes.to_string edited))) then
      incr caught;
    pos := !pos + 97
  done;
  check_bool "interior edits detected" true (!caught >= 40);
  (* encode/decode roundtrip; older encoding versions read as stale *)
  let enc = Fingerprint.encode fp in
  check_int "encoded size" Fingerprint.encoded_size (String.length enc);
  check_bool "roundtrip" true
    (match Fingerprint.decode enc ~pos:0 with
    | Some fp' -> Fingerprint.equal fp fp'
    | None -> false);
  let old = "\x01" ^ String.sub enc 1 (String.length enc - 1) in
  check_bool "old version rejected" true (Fingerprint.decode old ~pos:0 = None);
  check_bool "out of range rejected" true (Fingerprint.decode enc ~pos:1 = None)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "vida_raw"
    [ ( "raw_buffer",
        [ Alcotest.test_case "basics" `Quick test_raw_buffer;
          Alcotest.test_case "io stats" `Quick test_io_stats
        ] );
      ( "csv",
        [ Alcotest.test_case "split_line" `Quick test_csv_split_line;
          Alcotest.test_case "field navigation" `Quick test_csv_field_navigation;
          Alcotest.test_case "quoted navigation" `Quick test_csv_quoted_field_navigation;
          Alcotest.test_case "quoted stray bytes" `Quick test_csv_quoted_stray_bytes;
          Alcotest.test_case "convert" `Quick test_csv_convert;
          Alcotest.test_case "escape roundtrip" `Quick test_csv_escape_roundtrip
        ] );
      ( "positional_map",
        [ Alcotest.test_case "build" `Quick test_posmap_build;
          Alcotest.test_case "field access" `Quick test_posmap_field_access;
          Alcotest.test_case "populate cuts tokenization" `Quick test_posmap_populate_cuts_tokenization;
          Alcotest.test_case "anchor navigation" `Quick test_posmap_anchor_navigation;
          Alcotest.test_case "multi-column fetch" `Quick test_posmap_fields_multi;
          Alcotest.test_case "short rows" `Quick test_posmap_short_rows;
          Alcotest.test_case "record while scanning" `Quick test_posmap_record_while_scanning;
          Alcotest.test_case "no header" `Quick test_posmap_no_header;
          Alcotest.test_case "quoted newline" `Quick test_posmap_quoted_newline
        ] );
      qsuite "positional_map-properties"
        [ prop_posmap_agrees_with_split; prop_posmap_populate_agrees_with_split ];
      qsuite "csv-properties" [ prop_walk_matches_field_bounds ];
      ( "json",
        [ Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "skip_value" `Quick test_json_skip_value;
          Alcotest.test_case "scan_fields" `Quick test_json_scan_fields
        ] );
      ( "semi_index",
        [ Alcotest.test_case "objects" `Quick test_semi_index_objects;
          Alcotest.test_case "field access" `Quick test_semi_index_field_access;
          Alcotest.test_case "lazy tables" `Quick test_semi_index_lazy;
          Alcotest.test_case "avoids full parse" `Quick test_semi_index_avoids_full_parse;
          Alcotest.test_case "field string" `Quick test_semi_index_field_string
        ] );
      ( "binarray",
        [ Alcotest.test_case "roundtrip" `Quick test_binarray_roundtrip;
          Alcotest.test_case "to_value" `Quick test_binarray_to_value;
          Alcotest.test_case "negative values" `Quick test_binarray_negative_values;
          Alcotest.test_case "bad file" `Quick test_binarray_bad_file
        ] );
      ( "file_snapshot",
        [ Alcotest.test_case "staleness" `Quick test_file_snapshot;
          Alcotest.test_case "same-size rewrite" `Quick test_file_snapshot_same_size_rewrite
        ] );
      ( "fingerprint",
        [ Alcotest.test_case "probe errors" `Quick test_fingerprint_probe_errors;
          Alcotest.test_case "interior window" `Quick test_fingerprint_interior_window
        ] )
    ]
