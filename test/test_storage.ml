(* Tests for vida_catalog (source descriptions, inference, registry) and
   vida_storage (layouts, VBSON, cache manager). *)

open Vida_data
open Vida_catalog
open Vida_storage

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp_file contents =
  let path = Filename.temp_file "vida_test" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

(* --- schema inference --- *)

let test_infer_csv () =
  let path = tmp_file "id,name,score,ok\n1,ada,1.5,true\n2,bob,2,false\n,,," in
  let schema = fst (Infer.csv_schema (Vida_raw.Raw_buffer.of_path path)) in
  let tys = List.map (fun a -> (a.Schema.name, a.Schema.ty)) (Schema.attributes schema) in
  check_bool "types" true
    (tys = [ ("id", Ty.Int); ("name", Ty.String); ("score", Ty.Float); ("ok", Ty.Bool) ])

let test_infer_csv_widening () =
  let path = tmp_file "a,b\n1,x\n2.5,7\n" in
  let schema = fst (Infer.csv_schema (Vida_raw.Raw_buffer.of_path path)) in
  check_bool "int widens to float" true (Ty.equal (Schema.attr schema 0).Schema.ty Ty.Float);
  check_bool "mixed widens to string" true (Ty.equal (Schema.attr schema 1).Schema.ty Ty.String)

let test_infer_csv_headerless () =
  let path = tmp_file "1,2\n3,4\n" in
  let schema = fst (Infer.csv_schema ~header:false (Vida_raw.Raw_buffer.of_path path)) in
  Alcotest.(check (list string)) "generated names" [ "c0"; "c1" ] (Schema.names schema)

let test_infer_csv_all_null_column () =
  let path = tmp_file "a\n\nNA\n" in
  let schema = fst (Infer.csv_schema (Vida_raw.Raw_buffer.of_path path)) in
  check_bool "unconstrained column is Any" true (Ty.equal (Schema.attr schema 0).Schema.ty Ty.Any)

let test_infer_json () =
  let path = tmp_file "{\"id\": 1, \"v\": 2.5}\n{\"id\": 2, \"v\": 3.5}\n" in
  let ty = fst (Infer.json_element (Vida_raw.Raw_buffer.of_path path)) in
  check_bool "uniform objects" true
    (Ty.equal ty (Ty.Record [ ("id", Ty.Int); ("v", Ty.Float) ]));
  let path2 = tmp_file "{\"id\": 1}\n{\"other\": true}\n" in
  check_bool "conflicting objects fall back to Any" true
    (Ty.equal (fst (Infer.json_element (Vida_raw.Raw_buffer.of_path path2))) Ty.Any)

(* The sample ends just past its last record's newline (a quoted newline
   ends nothing; the CSV header is a record), and nowhere when the file
   ran out first — a trailing line without a newline is not complete. *)
let test_infer_sample_end () =
  let csv_end ?sample contents =
    snd (Infer.csv_schema ?sample (Vida_raw.Raw_buffer.of_path (tmp_file contents)))
  in
  let json_end ?sample contents =
    snd (Infer.json_element ?sample (Vida_raw.Raw_buffer.of_path (tmp_file contents)))
  in
  let check what expected got = Alcotest.(check (option int)) what expected got in
  check "csv: two rows" (Some 7) (csv_end ~sample:2 "id\n1\n2\n3\n");
  check "csv: quoted newline" (Some 11) (csv_end ~sample:2 "id\n\"a\nb\"\n2\n3\n");
  check "csv: file too short" None (csv_end ~sample:3 "id\n1\n2\n");
  check "csv: exactly the sample" (Some 7) (csv_end ~sample:2 "id\n1\n2\n");
  check "csv: partial last row" None (csv_end ~sample:2 "id\n1\n2");
  check "json: blank lines" (Some 17) (json_end ~sample:2 "{\"a\":1}\n\n{\"a\":2}\n{\"a\":3}\n");
  check "json: file too short" None (json_end ~sample:2 "{\"a\":1}\n")

(* --- prefix inference vs whole-file inference --- *)

module Raw = Vida_raw

(* Reference: whole-file inference — index the whole file, then sample
   its first rows or objects. Written apart from [Infer] so the
   differential does not check the sampler against itself. *)
let oracle_sniff s =
  if s = "" || s = "NULL" || s = "null" || s = "NA" then None
  else if int_of_string_opt s <> None then Some Ty.Int
  else if float_of_string_opt s <> None then Some Ty.Float
  else if s = "true" || s = "false" then Some Ty.Bool
  else Some Ty.String

let oracle_widen a b =
  match a, b with
  | None, t | t, None -> t
  | Some Ty.Int, Some Ty.Int -> Some Ty.Int
  | Some (Ty.Int | Ty.Float), Some (Ty.Int | Ty.Float) -> Some Ty.Float
  | Some Ty.Bool, Some Ty.Bool -> Some Ty.Bool
  | _ -> Some Ty.String

let whole_csv_schema ?(header = true) ?(sample = 100) path =
  let buf = Raw.Raw_buffer.of_path path in
  let pm = Raw.Positional_map.build ~header buf in
  let row r =
    let start, stop = Raw.Positional_map.row_bounds pm r in
    Raw.Csv.split_line ~delim:',' (Raw.Raw_buffer.slice buf ~pos:start ~len:(stop - start))
  in
  let names =
    match Raw.Positional_map.column_names pm with
    | [] when Raw.Positional_map.row_count pm = 0 -> []
    | [] -> List.mapi (fun i _ -> Printf.sprintf "c%d" i) (row 0)
    | names -> names
  in
  let types = Array.make (List.length names) None in
  for r = 0 to min sample (Raw.Positional_map.row_count pm) - 1 do
    List.iteri
      (fun c f -> if c < Array.length types then types.(c) <- oracle_widen types.(c) (oracle_sniff f))
      (row r)
  done;
  Schema.of_pairs
    (List.mapi (fun c n -> (n, Option.value types.(c) ~default:Ty.Any)) names)

let whole_json_element ?(sample = 50) path =
  let si = Raw.Semi_index.build (Raw.Raw_buffer.of_path path) in
  List.init (min sample (Raw.Semi_index.object_count si)) (fun i ->
      Value.typeof (Raw.Semi_index.object_value si i))
  |> List.fold_left
       (fun acc ty ->
         match acc with
         | None -> Some ty
         | Some prev -> Some (Option.value (Ty.unify prev ty) ~default:Ty.Any))
       None
  |> Option.value ~default:Ty.Any

let file_size path = In_channel.with_open_bin path In_channel.length |> Int64.to_int

(* Prefix inference must equal the oracle; [~prefix:true] also asserts
   that it read well under the whole file. *)
let same_csv ?header ?(prefix = false) what path =
  let before = Raw.Io_stats.current () in
  let got = fst (Infer.csv_schema ?header (Raw.Raw_buffer.of_path path)) in
  let read = (Raw.Io_stats.diff (Raw.Io_stats.current ()) before).Raw.Io_stats.bytes_read in
  check_bool (what ^ ": same schema as whole-file inference") true
    (Schema.equal got (whole_csv_schema ?header path));
  if prefix then check_bool (what ^ ": read a prefix") true (2 * read < file_size path);
  got

let same_json ?(prefix = false) what path =
  let before = Raw.Io_stats.current () in
  let got = fst (Infer.json_element (Raw.Raw_buffer.of_path path)) in
  let read = (Raw.Io_stats.diff (Raw.Io_stats.current ()) before).Raw.Io_stats.bytes_read in
  check_bool (what ^ ": same type as whole-file inference") true
    (Ty.equal got (whole_json_element path));
  if prefix then check_bool (what ^ ": read a prefix") true (2 * read < file_size path);
  got

let lines ?(sep = "\n") rows = String.concat "" (List.map (fun r -> r ^ sep) rows)

let test_infer_prefix_hbp () =
  let dir = Filename.temp_file "vida_infer" "" in
  Sys.remove dir;
  let p = Vida_workload.Hbp_data.(generate (config_of_scale 0.03) ~dir) in
  let files = Vida_workload.Hbp_data.[ p.patients; p.genetics; p.regions ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove files;
      Sys.rmdir dir)
    (fun () ->
      ignore (same_csv ~prefix:true "patients" p.Vida_workload.Hbp_data.patients);
      ignore (same_csv ~prefix:true "genetics" p.Vida_workload.Hbp_data.genetics);
      ignore (same_json ~prefix:true "regions" p.Vida_workload.Hbp_data.regions))

(* Quoted fields with embedded newlines (CR LF and bare LF) and CRLF row
   ends in the sampled rows: a newline inside quotes ends no row, so the
   prefix must be counted in rows, not lines. Row 99 widens [score] to
   float; from row 100 on it turns to text, which the sample ignores. *)
let test_infer_prefix_quoted_crlf () =
  let pad = String.make 700 'x' in
  let row i =
    let score = if i = 99 then "1.5" else if i >= 100 then "n/a" else string_of_int i in
    Printf.sprintf "%d,\"line one\r\nline, \"\"two\"\"\nthree\",%s,%s" i score pad
  in
  let path = tmp_file (lines ~sep:"\r\n" ("id,note,score,pad" :: List.init 1000 row)) in
  let schema = same_csv ~prefix:true "quoted crlf" path in
  check_bool "score widened by row 99 only" true
    (Ty.equal (Schema.attr schema 2).Schema.ty Ty.Float)

(* A first row wider than the initial 64 KiB read: the prefix grows until
   it holds a newline at all. *)
let test_infer_prefix_long_first_row () =
  let long = String.make 100_000 'w' in
  let csv =
    List.init 400 (fun i -> if i = 0 then "0," ^ long else Printf.sprintf "%d,%s" i (if i > 100 then "t" else "7"))
  in
  let path = tmp_file (lines csv) in
  let schema = same_csv ~header:false "headerless long first row" path in
  check_bool "long row's column is text" true (Ty.equal (Schema.attr schema 1).Schema.ty Ty.String);
  let json =
    List.init 400 (fun i ->
        if i = 0 then Printf.sprintf {|{"id": 0, "s": "%s"}|} long
        else Printf.sprintf {|{"id": %d, "s": "x"}|} i)
  in
  ignore (same_json "json long first object" (tmp_file (lines json)))

(* Fewer records than the sample and no trailing newline: the prefix runs
   to EOF and keeps the unterminated last record, which whole-file
   inference samples too (it turns [v] into a float). *)
let test_infer_prefix_no_trailing_newline () =
  let pad = String.make 3000 'p' in
  let rows = List.init 40 (fun i -> Printf.sprintf "%d,%s,%s" i (if i = 39 then "2.5" else "3") pad) in
  let csv = tmp_file (String.concat "\n" ("id,v,pad" :: rows)) in
  let schema = same_csv "csv no trailing newline" csv in
  check_bool "last row sampled" true (Ty.equal (Schema.attr schema 1).Schema.ty Ty.Float);
  let objs =
    List.init 30 (fun i ->
        Printf.sprintf {|{"id": %d, "v": %s, "pad": "%s"}|} i (if i = 29 then "\"s\"" else "1") pad)
  in
  let json = tmp_file (String.concat "\n" objs) in
  check_bool "json last object sampled" true
    (Ty.equal (same_json "json no trailing newline" json) Ty.Any)

(* Files smaller than one read window, blank JSON lines included; a type
   change past the sample (row 100, object 50) is ignored as before. *)
let test_infer_prefix_small_and_past_sample () =
  let csv =
    tmp_file (lines ("a,b" :: List.init 150 (fun i -> Printf.sprintf "%d,%s" i (if i = 100 then "z" else "1"))))
  in
  let schema = same_csv "small csv" csv in
  check_bool "row 100 ignored" true (Ty.equal (Schema.attr schema 1).Schema.ty Ty.Int);
  let objs =
    List.init 80 (fun i ->
        if i = 50 then {|{"id": "fifty"}|} else Printf.sprintf {|{"id": %d}|} i)
  in
  let json = tmp_file (lines ~sep:"\n\n" objs) in
  check_bool "object 50 ignored" true
    (Ty.equal (same_json "small json" json) (Ty.Record [ ("id", Ty.Int) ]));
  (* past the window, blank lines between objects: object 49 (the last
     sampled) widens [id] to float, object 50 would make it [Any] *)
  let pad = String.make 2000 'q' in
  let big =
    List.init 400 (fun i ->
        let id = if i = 49 then "4.5" else if i = 50 then {|"fifty"|} else string_of_int i in
        Printf.sprintf {|{"id": %s, "pad": "%s"}|} id pad)
  in
  check_bool "object 49 sampled, object 50 ignored" true
    (Ty.equal
       (same_json ~prefix:true "large json" (tmp_file (lines ~sep:"\n\n" big)))
       (Ty.Record [ ("id", Ty.Float); ("pad", Ty.String) ]))

(* Every sample size against one file per format: record [k] alone
   carries a float in column [k], so the inferred type of column [k] says
   whether record [k] was sampled. Records straddle the 64 KiB and
   128 KiB read boundaries, and each CSV row opens with a quoted field
   holding newlines, so a prefix cut inside it leaves a partial row. An
   off-by-one in where the prefix stops shows up as a column that differs
   from the whole-file answer. *)
let test_infer_prefix_every_sample () =
  let n = 120 and pad = String.make 300 'n' in
  let flag i k = if i = k then "1.5" else "1" in
  let csv =
    tmp_file
      (lines ~sep:"\r\n"
         (String.concat "," ("note" :: List.init n (Printf.sprintf "f%d"))
         :: List.init n (fun i ->
                String.concat ","
                  (Printf.sprintf "\"%s\r\n%s\n%s\"" pad pad pad
                  :: List.init n (flag i)))))
  in
  let json =
    tmp_file
      (lines
         (List.init n (fun i ->
              "{"
              ^ String.concat ", "
                  (Printf.sprintf {|"pad": "%s"|} pad
                  :: List.init n (fun k -> Printf.sprintf {|"f%d": %s|} k (flag i k)))
              ^ "}")))
  in
  for sample = 0 to n do
    let what = Printf.sprintf "sample %d" sample in
    check_bool (what ^ ": csv") true
      (Schema.equal
         (fst (Infer.csv_schema ~sample (Raw.Raw_buffer.of_path csv)))
         (whole_csv_schema ~sample csv));
    check_bool (what ^ ": json") true
      (Ty.equal
         (fst (Infer.json_element ~sample (Raw.Raw_buffer.of_path json)))
         (whole_json_element ~sample json))
  done

(* Registration reads its prefix through the governed load path: injected
   transient failures are retried, and exhausting the retries raises a
   typed [Io_failure], with the same injected-failure counts as a
   whole-file load. *)
let test_infer_prefix_io_faults () =
  let csv = tmp_file "id,v\n1,2\n" and json = tmp_file "{\"id\": 1}\n" in
  let register reg kind =
    match kind with
    | `Csv -> ignore (Registry.register_csv reg ~name:"C" ~path:csv ())
    | `Json -> ignore (Registry.register_json reg ~name:"J" ~path:json ())
  in
  List.iter
    (fun kind ->
      let loads fail = [ Raw.Fault_plan.Load { fail; latency_ms = 0.; only = None } ] in
      Raw.Fault_plan.with_plan (loads 2) (fun () ->
          register (Registry.create ()) kind;
          check_int "two transient failures retried" 2 (Raw.Fault_plan.injected `Load));
      Raw.Fault_plan.with_plan (loads 5) (fun () ->
          (match register (Registry.create ()) kind with
          | () -> Alcotest.fail "registration succeeded through exhausted retries"
          | exception Vida_error.Error (Vida_error.Io_failure _) -> ());
          check_int "three attempts, then a typed failure" 3
            (Raw.Fault_plan.injected `Load)))
    [ `Csv; `Json ]

(* --- registry --- *)

let test_registry_csv_json_inline () =
  let reg = Registry.create () in
  let csv = tmp_file "id,name\n1,ada\n" in
  let json = tmp_file "{\"id\": 1}\n" in
  let s1 = Registry.register_csv reg ~name:"People" ~path:csv () in
  let _ = Registry.register_json reg ~name:"Docs" ~path:json () in
  let _ = Registry.register_inline reg ~name:"Numbers" (Value.List [ Value.Int 1 ]) in
  Alcotest.(check (list string)) "names" [ "People"; "Docs"; "Numbers" ] (Registry.names reg);
  check_bool "find" true (Registry.find reg "Docs" <> None);
  check_bool "mem miss" false (Registry.mem reg "Ghost");
  check_bool "unit of access" true (Source.unit_of_access s1 = Source.Row);
  check_bool "access paths" true
    (List.mem Source.Positional_probe (Source.access_paths s1));
  (* type_env usable for typechecking *)
  let env = Registry.type_env reg in
  check_bool "People typed" true
    (match List.assoc "People" env with
    | Ty.Coll (Ty.Bag, Ty.Record _) -> true
    | _ -> false)

let test_registry_duplicate_and_unregister () =
  let reg = Registry.create () in
  let _ = Registry.register_inline reg ~name:"X" (Value.List []) in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Registry: source \"X\" already registered") (fun () ->
      ignore (Registry.register_inline reg ~name:"X" (Value.List [])));
  Registry.unregister reg "X";
  check_bool "gone" false (Registry.mem reg "X")

let test_registry_staleness_and_refresh () =
  let reg = Registry.create () in
  let path = tmp_file "a\n1\n" in
  let _ = Registry.register_csv reg ~name:"T" ~path () in
  check_int "nothing stale" 0 (List.length (Registry.stale_sources reg));
  let oc = open_out_bin path in
  output_string oc "a,b\n1,x\n2,y\n";
  close_out oc;
  check_int "one stale" 1 (List.length (Registry.stale_sources reg));
  (match Registry.refresh reg "T" with
  | Some s -> (
    match s.Source.format with
    | Source.Csv { schema; _ } ->
      Alcotest.(check (list string)) "schema re-inferred" [ "a"; "b" ] (Schema.names schema)
    | _ -> Alcotest.fail "expected csv")
  | None -> Alcotest.fail "refresh failed");
  check_int "fresh again" 0 (List.length (Registry.stale_sources reg))

(* The type environment is kept per entry, built when the entry is added
   or replaced: a refresh that re-infers and a re-registration under the
   same name both show in it. *)
let test_registry_type_env_follows_inference () =
  let reg = Registry.create () in
  let path = tmp_file "id,v\n1,10\n2,20\n" in
  let _ = Registry.register_csv reg ~name:"S" ~path () in
  let v_type () =
    match List.assoc_opt "S" (Registry.type_env reg) with
    | Some (Ty.Coll (Ty.Bag, Ty.Record fields)) -> List.assoc "v" fields
    | _ -> Alcotest.fail "S is not a bag of records"
  in
  check_bool "v inferred int" true (Ty.equal (v_type ()) Ty.Int);
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc "3,2.5\n4,7.25\n";
  close_out oc;
  check_bool "refreshed" true (Registry.refresh reg "S" <> None);
  check_bool "v widened to float" true (Ty.equal (v_type ()) Ty.Float);
  Registry.unregister reg "S";
  check_bool "unregistered source untyped" true
    (List.assoc_opt "S" (Registry.type_env reg) = None);
  let other = tmp_file "id,name\n1,ada\n" in
  let _ = Registry.register_csv reg ~name:"S" ~path:other () in
  check_bool "the new source's type" true
    (match List.assoc_opt "S" (Registry.type_env reg) with
    | Some t ->
      Ty.equal t (Ty.Coll (Ty.Bag, Ty.Record [ ("id", Ty.Int); ("name", Ty.String) ]))
    | None -> false)

(* --- vbson --- *)

let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Value.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Value.String s) (string_size ~gen:printable (int_range 0 12))
      ]
  in
  let rec go depth =
    if depth = 0 then scalar
    else
      frequency
        [ (3, scalar);
          ( 1,
            map
              (fun vs -> Value.Record (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) vs))
              (list_size (int_range 0 4) (go (depth - 1))) );
          (1, map (fun vs -> Value.List vs) (list_size (int_range 0 4) (go (depth - 1))));
          (1, map (fun vs -> Value.Bag vs) (list_size (int_range 0 4) (go (depth - 1))));
          (1, map Value.set_of_list (list_size (int_range 0 4) (go (depth - 1))));
          ( 1,
            map
              (fun vs -> Value.Array { dims = [ List.length vs ]; data = Array.of_list vs })
              (list_size (int_range 0 4) (go (depth - 1))) )
        ]
  in
  go 3

let prop_vbson_roundtrip =
  QCheck.Test.make ~name:"vbson roundtrip" ~count:300
    (QCheck.make ~print:Value.to_string value_gen) (fun v ->
      Value.equal v (Vbson.decode (Vbson.encode v)))

let test_vbson_compact () =
  (* binary JSON is smaller than text for numeric-heavy data (paper: BSON's
     compactness motivates layout (b)) *)
  let v =
    Value.Record
      (List.init 50 (fun i -> ("field_" ^ string_of_int i, Value.Float (float_of_int i *. 1.1))))
  in
  let text = Value.to_json v in
  let bin = Vbson.encode v in
  check_bool
    (Printf.sprintf "vbson %d <= text %d" (Vbson.size bin) (String.length text))
    true
    (Vbson.size bin <= String.length text)

let test_vbson_decode_field () =
  let v =
    Value.Record
      [ ("a", Value.Int 1);
        ("big", Value.List (List.init 100 (fun i -> Value.Int i)));
        ("c", Value.String "target")
      ]
  in
  let s = Vbson.encode v in
  check_bool "skips to c" true (Vbson.decode_field s "c" = Some (Value.String "target"));
  check_bool "missing" true (Vbson.decode_field s "zzz" = None);
  check_bool "non-record" true (Vbson.decode_field (Vbson.encode (Value.Int 3)) "a" = None)

let test_vbson_malformed () =
  (match Vbson.decode "\255garbage" with
  | exception Vida_error.Error (Vida_error.Parse_error _) -> ()
  | _ -> Alcotest.fail "bad tag accepted");
  match Vbson.decode (Vbson.encode (Value.Int 5) ^ "extra") with
  | exception Vida_error.Error (Vida_error.Parse_error _) -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

(* --- layout --- *)

let test_layout_names () =
  List.iter
    (fun l -> check_bool "roundtrip" true (Layout.of_name (Layout.name l) = Some l))
    Layout.all;
  check_bool "unknown" true (Layout.of_name "nope" = None)

(* --- cache --- *)

let key source item layout = { Cache.source; item; layout }

let col n = Cache.Values (Array.init n (fun i -> Value.Int i))

let test_cache_hit_miss () =
  let c = Cache.create () in
  let k = key "Patients" "age" Layout.Values in
  check_bool "miss" true (Cache.find c k = None);
  check_bool "put" true (Cache.put c k (col 10));
  (match Cache.find c k with
  | Some (Cache.Values vs) -> check_int "payload" 10 (Array.length vs)
  | _ -> Alcotest.fail "expected values payload");
  let s = Cache.stats c in
  check_int "hits" 1 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses

let test_cache_layout_replicas () =
  let c = Cache.create () in
  ignore (Cache.put c (key "S" "obj" Layout.Values) (col 5));
  ignore (Cache.put c (key "S" "obj" Layout.Vbson) (Cache.Strings [| "x" |]));
  check_int "two replicas" 2 (Cache.stats c).Cache.entries

let test_cache_eviction () =
  (* capacity fits roughly two of the three payloads *)
  let payload = col 100 in
  let bytes = Cache.payload_bytes payload in
  let c = Cache.create ~capacity_bytes:(bytes * 2) () in
  ignore (Cache.put c (key "S" "a" Layout.Values) payload);
  ignore (Cache.put c (key "S" "b" Layout.Values) payload);
  (* touch a so b is the LRU *)
  ignore (Cache.find c (key "S" "a" Layout.Values));
  ignore (Cache.put c (key "S" "c" Layout.Values) payload);
  check_bool "a survives" true (Cache.mem c (key "S" "a" Layout.Values));
  check_bool "b evicted" false (Cache.mem c (key "S" "b" Layout.Values));
  check_bool "c resident" true (Cache.mem c (key "S" "c" Layout.Values));
  check_int "one eviction" 1 (Cache.stats c).Cache.evictions

let test_cache_oversized_refused () =
  let c = Cache.create ~capacity_bytes:64 () in
  check_bool "refused" false (Cache.put c (key "S" "huge" Layout.Values) (col 1000));
  check_int "nothing resident" 0 (Cache.stats c).Cache.entries

let test_cache_invalidate_source () =
  let c = Cache.create () in
  ignore (Cache.put c (key "A" "x" Layout.Values) (col 5));
  ignore (Cache.put c (key "A" "y" Layout.Values) (col 5));
  ignore (Cache.put c (key "B" "x" Layout.Values) (col 5));
  Cache.invalidate_source c "A";
  check_bool "A/x gone" false (Cache.mem c (key "A" "x" Layout.Values));
  check_bool "B/x stays" true (Cache.mem c (key "B" "x" Layout.Values));
  check_int "invalidations" 2 (Cache.stats c).Cache.invalidations

let test_cache_find_or_add () =
  let c = Cache.create () in
  let calls = ref 0 in
  let f () = incr calls; col 3 in
  ignore (Cache.find_or_add c (key "S" "x" Layout.Values) f);
  ignore (Cache.find_or_add c (key "S" "x" Layout.Values) f);
  check_int "computed once" 1 !calls

let test_cache_replace_same_key () =
  let c = Cache.create () in
  let k = key "S" "x" Layout.Values in
  ignore (Cache.put c k (col 5));
  ignore (Cache.put c k (col 7));
  check_int "single entry" 1 (Cache.stats c).Cache.entries;
  match Cache.find c k with
  | Some (Cache.Values vs) -> check_int "latest payload" 7 (Array.length vs)
  | _ -> Alcotest.fail "expected values"

let prop_cache_respects_capacity =
  QCheck.Test.make ~name:"cache stays within capacity" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (QCheck.int_range 1 50))
    (fun sizes ->
      let c = Cache.create ~capacity_bytes:4096 () in
      List.iteri
        (fun i n -> ignore (Cache.put c (key "S" (string_of_int i) Layout.Values) (col n)))
        sizes;
      (Cache.stats c).Cache.resident_bytes <= 4096)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "vida_storage_catalog"
    [ ( "infer",
        [ Alcotest.test_case "csv" `Quick test_infer_csv;
          Alcotest.test_case "csv widening" `Quick test_infer_csv_widening;
          Alcotest.test_case "csv headerless" `Quick test_infer_csv_headerless;
          Alcotest.test_case "csv null column" `Quick test_infer_csv_all_null_column;
          Alcotest.test_case "json" `Quick test_infer_json;
          Alcotest.test_case "sample end" `Quick test_infer_sample_end;
          Alcotest.test_case "prefix = whole: hbp" `Quick test_infer_prefix_hbp;
          Alcotest.test_case "prefix = whole: quoted crlf" `Quick test_infer_prefix_quoted_crlf;
          Alcotest.test_case "prefix = whole: long first row" `Quick
            test_infer_prefix_long_first_row;
          Alcotest.test_case "prefix = whole: no trailing newline" `Quick
            test_infer_prefix_no_trailing_newline;
          Alcotest.test_case "prefix = whole: small, past sample" `Quick
            test_infer_prefix_small_and_past_sample;
          Alcotest.test_case "prefix = whole: every sample size" `Quick
            test_infer_prefix_every_sample;
          Alcotest.test_case "prefix under io faults" `Quick test_infer_prefix_io_faults
        ] );
      ( "registry",
        [ Alcotest.test_case "register/find" `Quick test_registry_csv_json_inline;
          Alcotest.test_case "duplicate/unregister" `Quick test_registry_duplicate_and_unregister;
          Alcotest.test_case "staleness/refresh" `Quick test_registry_staleness_and_refresh;
          Alcotest.test_case "type env follows inference" `Quick
            test_registry_type_env_follows_inference
        ] );
      ( "vbson",
        [ Alcotest.test_case "compact" `Quick test_vbson_compact;
          Alcotest.test_case "decode_field" `Quick test_vbson_decode_field;
          Alcotest.test_case "malformed" `Quick test_vbson_malformed
        ] );
      qsuite "vbson-properties" [ prop_vbson_roundtrip ];
      ( "layout", [ Alcotest.test_case "names" `Quick test_layout_names ] );
      ( "cache",
        [ Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "layout replicas" `Quick test_cache_layout_replicas;
          Alcotest.test_case "lru eviction" `Quick test_cache_eviction;
          Alcotest.test_case "oversized refused" `Quick test_cache_oversized_refused;
          Alcotest.test_case "invalidate source" `Quick test_cache_invalidate_source;
          Alcotest.test_case "find_or_add" `Quick test_cache_find_or_add;
          Alcotest.test_case "replace same key" `Quick test_cache_replace_same_key
        ] );
      qsuite "cache-properties" [ prop_cache_respects_capacity ]
    ]
