(* Live-data resilience suite: sources mutating under a running system.
   Covers the query-epoch machinery (mid-query changes are detected, never
   blended across file generations), append-aware incremental repair
   (extend == full rebuild, bit for bit), crash-safe sidecar persistence
   (torn files detected, quarantined, rebuilt — never served), and a
   seeded chaos soak where every governed query must equal a cold run over
   the file generation it reports. *)

open Vida_data
module FP = Vida_raw.Fingerprint
module Delta = Vida_raw.Delta
module Epoch = Vida_raw.Epoch
module AS = Vida_raw.Atomic_sidecar
module Faults = Vida_raw.Fault_plan
module RB = Vida_raw.Raw_buffer
module PM = Vida_raw.Positional_map
module SI = Vida_raw.Semi_index
module XI = Vida_raw.Xml_index
module Governor = Vida_governor.Governor

(* the bytes one buffer view holds, without the spare capacity past it *)
let view_bytes (v : RB.view) = String.sub v.RB.data 0 v.RB.len

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp_file contents =
  let path = Filename.temp_file "vida_live" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let append_file path contents =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rm path = try Sys.remove path with Sys_error _ -> ()

let check_val msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

let check_value label expected = function
  | Ok r -> check_val label expected r.Vida.value
  | Error e -> Alcotest.failf "%s: %s" label (Vida.error_to_string e)

(* --- delta classification ------------------------------------------- *)

let test_delta_classify () =
  let old_s = "id,v\n1,10\n2,20\n" in
  let path = tmp_file old_s in
  let fp = FP.of_contents old_s in
  (* the verdict carries the fingerprint its probe read from the file *)
  (match Delta.classify ~old_fp:fp path with
  | Delta.Unchanged, Some probed -> check_bool "probed fp" true (FP.equal probed fp)
  | d, _ -> Alcotest.failf "expected Unchanged, got %s" (Delta.describe d));
  let classify ~old_fp path = fst (Delta.classify ~old_fp path) in
  append_file path "3,30\n";
  (match classify ~old_fp:fp path with
  | Delta.Appended { old_size; new_size } ->
    check_int "old size" (String.length old_s) old_size;
    check_int "new size" (String.length old_s + 5) new_size
  | d -> Alcotest.failf "expected Appended, got %s" (Delta.describe d));
  write_file path "id,v\n1,99\n2,20\n3,30\n";
  check_bool "interior rewrite" true (classify ~old_fp:fp path = Delta.Rewritten);
  write_file path "id,v\n";
  (match classify ~old_fp:fp path with
  | Delta.Truncated { new_size; _ } -> check_int "truncated size" 5 new_size
  | d -> Alcotest.failf "expected Truncated, got %s" (Delta.describe d));
  rm path;
  check_bool "vanished" true (Delta.classify ~old_fp:fp path = (Delta.Vanished, None));
  (* in-memory variant: same classification without touching disk *)
  check_bool "contents appended" true
    (match Delta.classify_contents ~old_fp:fp (RB.view_of_string (old_s ^ "3,30\n")) with
    | Delta.Appended _ -> true
    | _ -> false)

(* --- mid-query change detection -------------------------------------- *)

(* An external source whose producer mutates the CSV file the query is
   also scanning — a deterministic "writer races the query" scenario. The
   mutator is the product's inner collection, which the engine
   materializes before the outer raw scan of [S] starts: the file changes
   under [S]'s pin before any of its bytes are served. *)
let mutating_db ~on_change ~old_rows ~new_rows =
  let path = tmp_file old_rows in
  let limits = { Governor.unlimited with Governor.on_change } in
  let db = Vida.create ~domains:1 ~limits () in
  Vida.csv db ~name:"S" ~path ();
  let mutated = ref false in
  Vida.external_source db ~name:"Mut"
    ~element:(Ty.Record [ ("go", Ty.Int) ])
    ~count:(fun () -> 1)
    ~produce:(fun consumer ->
      if not !mutated then (
        mutated := true;
        write_file path new_rows);
      consumer (Value.Record [ ("go", Value.Int 1) ]));
  (db, path)

let mutation_query = "for { r <- S, e <- Mut, e.go = 1 } yield sum r.v"

let with_stride_1 f =
  Epoch.set_check_stride 1;
  Fun.protect ~finally:Epoch.reset_check_stride f

let test_mid_query_fail_fast () =
  with_stride_1 (fun () ->
      let db, path =
        mutating_db ~on_change:Governor.Fail_fast ~old_rows:"v\n1\n2\n3\n"
          ~new_rows:"v\n10\n20\n30\n40\n"
      in
      (match Vida.query ~optimize:false db mutation_query with
      | Error (Vida.Data_error (Vida_error.Source_changed { source; _ })) ->
        check_bool "names the changed source" true
          (source = "S" || Filename.basename source = Filename.basename path)
      | Ok r ->
        Alcotest.failf "expected Source_changed, got %s"
          (Format.asprintf "%a" Value.pp r.Vida.value)
      | Error e -> Alcotest.failf "expected Source_changed, got %s" (Vida.error_to_string e));
      rm path)

let test_mid_query_retry_fresh () =
  with_stride_1 (fun () ->
      let db, path =
        mutating_db
          ~on_change:(Governor.Retry_fresh 2)
          ~old_rows:"v\n1\n2\n3\n" ~new_rows:"v\n10\n20\n30\n40\n"
      in
      (match Vida.query ~optimize:false db mutation_query with
      | Error e -> Alcotest.failf "retry should succeed: %s" (Vida.error_to_string e)
      | Ok r ->
        (* the answer reflects the post-mutation generation, never a blend *)
        check_val "post-change sum" (Value.Int 100) r.Vida.value;
        check_bool "epoch-repin fallback recorded" true
          (List.exists
             (fun f -> f.Governor.stage = "epoch-repin")
             r.Vida.governor.Governor.fallbacks);
        (* the reported epoch is the generation the answer was computed from *)
        let want = FP.encode (FP.of_contents (read_file path)) in
        check_bool "epoch matches served generation" true
          (List.assoc_opt "S" r.Vida.epochs = Some want));
      rm path)

(* --- append-aware incremental repair, end to end ---------------------- *)

let test_append_extends_caches () =
  let rows n = String.concat "" (List.init n (fun i -> string_of_int (i + 1) ^ "\n")) in
  let path = tmp_file ("v\n" ^ rows 50) in
  let db = Vida.create ~domains:1 () in
  Vida.csv db ~name:"S" ~path ();
  let q = "for { r <- S } yield sum r.v" in
  check_value "warm-up sum" (Value.Int 1275) (Vida.query db q);
  append_file path "51\n52\n53\n54\n55\n56\n57\n58\n59\n60\n";
  (* the refresh classifies the change as an append and extends in place *)
  let src =
    match Vida.describe db "S" with Some s -> s | None -> Alcotest.fail "S missing"
  in
  (match fst (Vida_engine.Plugins.refresh_source (Vida.ctx db) src) with
  | `Extended -> ()
  | `Unchanged -> Alcotest.fail "append not detected"
  | `Rebuilt -> Alcotest.fail "append fell back to a full rebuild");
  (match Vida.query db q with
  | Error e -> Alcotest.failf "post-append query: %s" (Vida.error_to_string e)
  | Ok r ->
    check_val "sum includes appended rows" (Value.Int 1830) r.Vida.value;
    (* extended caches were re-stamped, not dropped: the query is served
       without re-reading any raw bytes *)
    check_bool "served from extended cache" true r.Vida.served_from_cache);
  check_int "no cache entries went stale" 0 (Vida.stats db).Vida.cache.stale_drops;
  rm path

(* --- schema inference across appends ----------------------------------- *)

module Plugins = Vida_engine.Plugins
module Structures = Vida_engine.Structures
module Io_stats = Vida_raw.Io_stats

let source_of db name =
  match Vida.describe db name with Some s -> s | None -> Alcotest.failf "%s missing" name

(* Refreshes [name] after an append, which must extend; returns the raw
   work the refresh charged. *)
let refresh_appended db name =
  let verdict, io =
    Io_stats.measure (fun () -> fst (Plugins.refresh_source (Vida.ctx db) (source_of db name)))
  in
  (match verdict with
  | `Extended -> ()
  | `Unchanged -> Alcotest.fail "append not detected"
  | `Rebuilt -> Alcotest.fail "append fell back to a full rebuild");
  io

let element_of db name = Vida_catalog.Source.element_type (source_of db name)

(* the answers of a fresh instance over the file as it is now *)
let fresh_answers ~register queries =
  let db = Vida.create ~domains:1 () in
  register db;
  List.map (fun q -> Vida.query ~reuse:false db q) queries

let check_answers label db ~register queries =
  List.iter2
    (fun q fresh ->
      match (Vida.query ~reuse:false db q, fresh) with
      | Ok r, Ok f -> check_val (label ^ ": " ^ q) f.Vida.value r.Vida.value
      | Error e, _ | _, Error e -> Alcotest.failf "%s: %s: %s" label q (Vida.error_to_string e))
    queries
    (fresh_answers ~register queries)

let int_rows ~first n =
  String.concat ""
    (List.init n (fun i -> Printf.sprintf "%d,%d,n%d\n" (first + i) ((first + i) * 10) (first + i)))

let csv_queries =
  [ "for { r <- S } yield sum r.v"; "for { r <- S, r.v > 20 } yield count r";
    "for { r <- S } yield max r.id" ]

(* A sample that ran to the end of the file sees appended rows: the
   schema widens, and extended caches of the old type are not served. *)
let test_schema_widens_small_csv () =
  let path = tmp_file ("id,v,s\n" ^ int_rows ~first:1 10) in
  let register db = Vida.csv db ~name:"S" ~path () in
  let db = Vida.create ~domains:1 () in
  register db;
  check_answers "before" db ~register csv_queries;
  check_bool "v is int" true
    (Ty.equal (element_of db "S") (Ty.Record [ ("id", Ty.Int); ("v", Ty.Int); ("s", Ty.String) ]));
  append_file path "11,2.5,n11\n12,7.25,n12\n";
  ignore (refresh_appended db "S");
  check_bool "v widened to float" true
    (Ty.equal (element_of db "S")
       (Ty.Record [ ("id", Ty.Int); ("v", Ty.Float); ("s", Ty.String) ]));
  check_answers "after" db ~register csv_queries;
  rm path

(* Past the 100-row sample an append cannot change the schema: it is
   kept, and the refresh reads no prefix for re-inference. Re-inference
   would read the whole (small) file; the refresh reads only from the
   last old row on, for the map's rescan and the decoded cells. *)
let test_schema_kept_large_csv () =
  let old = "id,v,s\n" ^ int_rows ~first:1 150 in
  let path = tmp_file old in
  let register db = Vida.csv db ~name:"S" ~path () in
  let db = Vida.create ~domains:1 () in
  register db;
  check_answers "before" db ~register csv_queries;
  let before = element_of db "S" in
  let appended = "151,2.5,n151\n152,x,n152\n" in
  append_file path appended;
  let io = refresh_appended db "S" in
  check_bool "schema kept" true (Ty.equal before (element_of db "S"));
  check_bool "no prefix read" true (io.Io_stats.bytes_read < String.length old);
  check_int "one file load" 1 io.Io_stats.file_loads;
  check_answers "after" db ~register [ "for { r <- S } yield count r"; "for { r <- S } yield max r.id" ];
  rm path

(* A query's raw-access window opens before it refreshes its sources: the
   append repair and the reload a query triggers are its own, so a query
   that loaded a file is not reported as served from cache. *)
let test_query_io_includes_repair () =
  let path = tmp_file ("id,v,s\n" ^ int_rows ~first:1 150) in
  let db = Vida.create ~domains:1 () in
  Vida.csv db ~name:"S" ~path ();
  let q = "for { r <- S } yield sum r.v" in
  check_value "before the append" (Value.Int 113250) (Vida.query db q);
  append_file path (int_rows ~first:151 2);
  let result, io = Io_stats.measure (fun () -> Vida.query db q) in
  (match result with
  | Error e -> Alcotest.failf "post-append query: %s" (Vida.error_to_string e)
  | Ok r ->
    check_val "sum includes appended rows" (Value.Int 116280) r.Vida.value;
    let raw = r.Vida.raw_io in
    check_int "the repair's load reported" 1 raw.Io_stats.file_loads;
    (* the repair re-converts the last old row's cell and the two new ones *)
    check_int "the repair's conversions reported" 3 raw.Io_stats.values_converted;
    check_bool "the whole query's raw work reported" true (raw = io);
    check_bool "not served from cache" false r.Vida.served_from_cache);
  let session = (Vida.stats db).Vida.io in
  check_int "the session counts all 153 conversions" 153 session.Io_stats.values_converted;
  check_int "the session counts both loads" 2 session.Io_stats.file_loads;
  rm path

let json_rows ~first n value =
  String.concat ""
    (List.init n (fun i -> Printf.sprintf "{\"id\":%d,\"a\":%s}\n" (first + i) (value (first + i))))

let json_queries = [ "for { o <- J } yield sum o.a"; "for { o <- J } yield count o" ]

let test_schema_widens_small_json () =
  let path = tmp_file (json_rows ~first:1 10 string_of_int) in
  let register db = Vida.json db ~name:"J" ~path () in
  let db = Vida.create ~domains:1 () in
  register db;
  check_answers "before" db ~register json_queries;
  check_bool "a is int" true
    (Ty.equal (element_of db "J") (Ty.Record [ ("id", Ty.Int); ("a", Ty.Int) ]));
  append_file path (json_rows ~first:11 2 (fun i -> Printf.sprintf "%d.5" i));
  ignore (refresh_appended db "J");
  check_bool "a widened to float" true
    (Ty.equal (element_of db "J") (Ty.Record [ ("id", Ty.Int); ("a", Ty.Float) ]));
  check_answers "after" db ~register json_queries;
  rm path

let test_schema_kept_large_json () =
  let old = json_rows ~first:1 60 string_of_int in
  let path = tmp_file old in
  let register db = Vida.json db ~name:"J" ~path () in
  let db = Vida.create ~domains:1 () in
  register db;
  check_answers "before" db ~register json_queries;
  let before = element_of db "J" in
  let appended = json_rows ~first:61 3 (fun i -> Printf.sprintf "%d.5" i) in
  append_file path appended;
  let io = refresh_appended db "J" in
  check_bool "element type kept" true (Ty.equal before (element_of db "J"));
  check_bool "no prefix read" true (io.Io_stats.bytes_read < String.length old);
  check_answers "after" db ~register [ "for { o <- J } yield count o" ];
  rm path

(* --- append repair == rebuild ------------------------------------------ *)

let mixed_rows ~first n =
  String.concat ""
    (List.init n (fun i ->
         let k = first + i in
         Printf.sprintf "%d,%d.%d,city%d,%s\n" k k (k mod 10) (k mod 7)
           (if k mod 5 = 0 then "" else string_of_int (k * 3))))

let mixed_query = "for { r <- S, r.v > 3.0 } yield sum r.w"

let resident db = (Vida.stats db).Vida.cache.Vida_storage.Cache.resident_bytes

(* Extended columns are charged by delta: the repaired cache holds as
   many bytes as a fresh instance that loaded the same columns from the
   grown file, and the repaired buffer is a full load's bytes. *)
let test_repair_equals_rebuild () =
  let path = tmp_file ("id,v,c,w\n" ^ mixed_rows ~first:1 180) in
  let db = Vida.create ~domains:1 () in
  Vida.csv db ~name:"S" ~path ();
  ignore (Vida.query ~reuse:false db mixed_query);
  ignore (Vida.query ~reuse:false db "for { r <- S } yield count r.c");
  (* the last old row is partial: the append completes it *)
  append_file path "181,18";
  ignore (refresh_appended db "S");
  append_file path (".1,city0,9\n" ^ mixed_rows ~first:182 37);
  ignore (refresh_appended db "S");
  let fresh = Vida.create ~domains:1 () in
  Vida.csv fresh ~name:"S" ~path ();
  ignore (Vida.query ~reuse:false fresh mixed_query);
  ignore (Vida.query ~reuse:false fresh "for { r <- S } yield count r.c");
  check_int "cache entries" (Vida.stats fresh).Vida.cache.Vida_storage.Cache.entries
    (Vida.stats db).Vida.cache.Vida_storage.Cache.entries;
  check_int "resident bytes equal a fresh load" (resident fresh) (resident db);
  (match Structures.peek_buffer (Vida.ctx db).Plugins.structures "S" with
  | Some buf -> check_bool "buffer equals a full load" true (view_bytes (RB.contents buf) = read_file path)
  | None -> Alcotest.fail "no buffer");
  check_answers "after" db ~register:(fun db -> Vida.csv db ~name:"S" ~path ()) [ mixed_query ];
  rm path

(* The probe fixes the generation: a file that grows again before the
   tail read is read up to the probed size, and one changed under the
   read falls back to a full load that still extends the old bytes, or
   to nothing at all. *)
let test_repair_one_generation () =
  let old = "id,v,c,w\n" ^ mixed_rows ~first:1 120 in
  let path = tmp_file old in
  let db = Vida.create ~domains:1 () in
  Vida.csv db ~name:"S" ~path ();
  ignore (Vida.query ~reuse:false db mixed_query);
  let structures = (Vida.ctx db).Plugins.structures in
  let old_fp = FP.of_contents old in
  let a = mixed_rows ~first:121 5 and b = mixed_rows ~first:126 5 in
  let repair probed =
    Structures.repair_appended structures (source_of db "S") ~old_fp ~probed
  in
  let buffer_of = function
    | Some r -> view_bytes (RB.contents r.Structures.new_buffer)
    | None -> Alcotest.fail "repair refused an append"
  in
  let rows_of = function
    | Some { Structures.csv = Some (pm, _); _ } -> PM.row_count pm
    | _ -> Alcotest.fail "no extended map"
  in
  append_file path a;
  let probed = Option.get (FP.probe path) in
  append_file path b;
  let r = repair probed in
  check_bool "grown again: the probed generation" true (buffer_of r = old ^ a);
  check_int "rows of the probed generation" 125 (rows_of r);
  (* the appended range changed under the read: a full load that still
     extends the old bytes *)
  let structures_old () =
    Vida.invalidate db "S";
    ignore (Vida.query ~reuse:false db mixed_query)
  in
  write_file path old;
  structures_old ();
  append_file path a;
  let probed = Option.get (FP.probe path) in
  write_file path (old ^ String.map (fun c -> if c = '1' then '2' else c) a ^ b);
  let r = repair probed in
  check_bool "changed under the read: a full load" true (buffer_of r = read_file path);
  check_int "rows of the full load" 130 (rows_of r);
  (* the old bytes changed too: the full load no longer extends them, so
     there is no repair and nothing is replaced *)
  write_file path old;
  structures_old ();
  let before = Structures.peek_buffer structures "S" in
  append_file path a;
  let probed = Option.get (FP.probe path) in
  write_file path
    ("ID" ^ String.sub old 2 (String.length old - 2)
    ^ String.map (fun c -> if c = '1' then '2' else c) a);
  check_bool "rewritten: no repair" true (repair probed = None);
  check_bool "buffer untouched" true
    (match (before, Structures.peek_buffer structures "S") with
    | Some b, Some b' -> b == b'
    | _ -> false);
  rm path

(* --- incremental extension == full rebuild (differential oracle) ------ *)

let csv_diff label old_s appended =
  let full = old_s ^ appended in
  let old_map = PM.build ~header:true (RB.of_string ~source:"d.csv" old_s) in
  let full_buf = RB.of_string ~source:"d.csv" full in
  check_bool label true (PM.equal_structure (PM.extend old_map full_buf) (PM.build ~header:true full_buf))

let test_csv_extend_differential () =
  csv_diff "plain append" "id,v\n1,10\n2,20\n" "3,30\n4,40\n";
  (* the old tail was a partial line the append completes *)
  csv_diff "partial last line" "id,v\n1,10\n2,2" "0\n3,30\n";
  (* appended rows with a quoted embedded newline *)
  csv_diff "quoted newline" "id,v\n1,10\n" "2,\"a\nb\"\n3,30\n";
  (* append that is pure garbage still matches the full rescan *)
  csv_diff "ragged append" "id,v\n1,10\n" ",,,\n\n2"

let json_structure_equal a b =
  SI.object_count a = SI.object_count b
  && List.for_all
       (fun i -> SI.object_bounds a i = SI.object_bounds b i)
       (List.init (SI.object_count a) Fun.id)

let json_diff label old_s appended =
  let full = old_s ^ appended in
  let old_si = SI.build (RB.of_string ~source:"d.json" old_s) in
  let full_buf = RB.of_string ~source:"d.json" full in
  check_bool label true (json_structure_equal (SI.extend old_si full_buf) (SI.build full_buf))

let test_json_extend_differential () =
  json_diff "plain append" "{\"a\":1}\n{\"a\":2}\n" "{\"a\":3}\n";
  json_diff "partial last object" "{\"a\":1}\n{\"a\":2" "2}\n{\"a\":3}\n";
  json_diff "no trailing newline" "{\"a\":1}" "\n{\"a\":2}"

let xml_diff label ~expect_new_tag old_s appended =
  let full = old_s ^ appended in
  let old_xi = XI.build (RB.of_string ~source:"d.xml" old_s) in
  let full_buf = RB.of_string ~source:"d.xml" full in
  let ext, new_tag = XI.extend old_xi full_buf in
  check_bool (label ^ ": structure") true (XI.equal_structure ext (XI.build full_buf));
  check_bool (label ^ ": new-list-tag flag") expect_new_tag new_tag

let test_xml_extend_differential () =
  (* a closed document ignores appended bytes, exactly like a full rescan *)
  xml_diff "closed root" ~expect_new_tag:false "<root><e><v>1</v></e></root>"
    "<e><v>9</v></e>";
  (* an unclosed streaming document resumes the child scan *)
  xml_diff "streaming append" ~expect_new_tag:false "<root><e><v>1</v></e>"
    "<e><v>2</v></e><e><v>3</v></e></root>";
  (* a tag that only repeats in appended elements changes the normalized
     shape of every element — the extension must say so *)
  xml_diff "new repeated tag" ~expect_new_tag:true "<root><e><x>1</x></e>"
    "<e><x>2</x><x>3</x></e></root>"

(* --- growable raw buffer ----------------------------------------------- *)

let fixed_rows ~first n =
  String.concat "" (List.init n (fun i -> Printf.sprintf "%04d,%04d\n" (first + i) (7 * (first + i))))

let extend_to buf size ~accept =
  match RB.extend buf ~size ~accept with
  | Some b -> b
  | None -> Alcotest.failf "extension to %d bytes refused" size

(* Appends land in the spare capacity of one shared store: each view reads
   its own prefix, a tail is claimed once, and a refused extension gives
   its tail back as poison. *)
let test_buffer_views_share_capacity () =
  let old = "id,v\n" ^ fixed_rows ~first:1 100 in
  let a = fixed_rows ~first:101 2 and b = fixed_rows ~first:103 2 in
  let path = tmp_file old in
  let b0 = RB.of_path path in
  check_int "loaded" (String.length old) (RB.length b0);
  let accept _ = true in
  append_file path a;
  let b1 = extend_to b0 (String.length (old ^ a)) ~accept in
  append_file path b;
  let b2 = extend_to b1 (String.length (old ^ a ^ b)) ~accept in
  let v1 = RB.contents b1 and v2 = RB.contents b2 in
  check_bool "the second append wrote into the first one's store" true (v1.RB.data == v2.RB.data);
  check_bool "the old view reads its own prefix" true (view_bytes (RB.contents b0) = old);
  check_bool "the first extension reads its prefix" true (view_bytes v1 = old ^ a);
  check_bool "the second extension" true (view_bytes v2 = old ^ a ^ b);
  let spare v = String.sub v.RB.data v.RB.len (String.length v.RB.data - v.RB.len) in
  check_bool "spare capacity is poison" true
    (String.length (spare v2) > 0 && String.for_all (fun c -> c = RB.poison) (spare v2));
  (* a map over the older view keeps answering from its prefix *)
  let pm1 = PM.build b1 in
  check_int "rows of the older view" 102 (PM.row_count pm1);
  Alcotest.(check string) "its last row" "0102" (PM.field pm1 ~row:101 ~col:0);
  (match RB.slice b1 ~pos:(String.length (old ^ a)) ~len:1 with
  | _ -> Alcotest.fail "read past the view"
  | exception Vida_error.Error (Vida_error.Truncated _) -> ());
  (* the tail past [b1] is taken: a second extension of [b1] copies *)
  let b1' = extend_to b1 (String.length (old ^ a ^ b)) ~accept in
  check_bool "a lost claim gets a fresh store" false ((RB.contents b1').RB.data == v2.RB.data);
  check_bool "with the same bytes" true (view_bytes (RB.contents b1') = old ^ a ^ b);
  check_bool "and leaves the winner alone" true (view_bytes (RB.contents b2) = old ^ a ^ b);
  (* a refused extension gives its claimed tail back *)
  let c = fixed_rows ~first:105 1 in
  append_file path c;
  let size = String.length (old ^ a ^ b ^ c) in
  check_bool "refused" true (RB.extend b2 ~size ~accept:(fun _ -> false) = None);
  check_bool "tail poisoned again" true (String.for_all (fun c -> c = RB.poison) (spare v2));
  let b3 = extend_to b2 size ~accept in
  check_bool "the tail is claimable again" true ((RB.contents b3).RB.data == v2.RB.data);
  check_bool "with the appended bytes" true (view_bytes (RB.contents b3) = old ^ a ^ b ^ c);
  rm path

(* --- result repair ------------------------------------------------------- *)

let repair_rows ~first n =
  String.concat ""
    (List.init n (fun i ->
         let k = first + i in
         Printf.sprintf "%d,%d,%.3f,%s\n" k (k * 7 mod 31)
           (1.0 +. (float_of_int (k mod 7) *. 0.013))
           (if k mod 3 = 0 then "a" else "b")))

(* every resumable monoid *)
let repair_queries =
  [ "for { r <- S, r.v > 20 } yield count r"; "for { r <- S } yield sum r.f";
    "for { r <- S } yield prod r.f"; "for { r <- S, r.s = \"a\" } yield max r.f";
    "for { r <- S } yield min r.v"; "for { r <- S, r.s = \"a\" } yield avg r.f";
    "for { r <- S } yield all r.v >= 0"; "for { r <- S } yield some r.v > 29";
    "for { r <- S, r.v > 25 } yield bag (id := r.id, f := r.f)" ]

let query_ok db ?reuse q =
  match Vida.query ?reuse db q with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" q (Vida.error_to_string e)

(* After each append every cached fold is continued, not recomputed, and
   equals the recompute bit for bit: the fold goes on from the stored
   carrier, row by row, on one domain whatever the instance's budget. *)
let repair_differential ?domains label ~register ~path queries chunks =
  let db = Vida.create ~domains:1 () in
  Option.iter (Vida.set_domains db) domains;
  register db;
  List.iter (fun q -> ignore (query_ok db q)) queries;
  List.iteri
    (fun i chunk ->
      append_file path chunk;
      List.iter
        (fun q ->
          let what = Printf.sprintf "%s, append %d: %s" label (i + 1) q in
          let r = query_ok db q in
          check_bool (what ^ ": repaired") true (r.Vida.repaired && r.Vida.from_result_cache);
          let recomputed = query_ok db ~reuse:false q in
          check_bool (what ^ ": bit-identical to the recompute") true
            (compare r.Vida.value recomputed.Vida.value = 0))
        queries;
      check_answers label db ~register queries)
    chunks;
  check_int (label ^ ": repairs") (List.length queries * List.length chunks)
    (Vida.stats db).Vida.result_repairs

let test_repair_differential_csv () =
  let path = tmp_file ("id,v,f,s\n" ^ repair_rows ~first:1 150) in
  repair_differential "csv" ~path
    ~register:(fun db -> Vida.csv db ~name:"S" ~path ())
    repair_queries
    [ repair_rows ~first:151 40; repair_rows ~first:191 1; repair_rows ~first:192 25 ];
  rm path

let repair_objects ~first n =
  String.concat ""
    (List.init n (fun i ->
         let k = first + i in
         Printf.sprintf "{\"id\":%d,\"v\":%d,\"f\":%.3f,\"s\":\"%s\"}\n" k (k * 7 mod 31)
           (1.0 +. (float_of_int (k mod 7) *. 0.013))
           (if k mod 3 = 0 then "a" else "b")))

let test_repair_differential_json () =
  let path = tmp_file (repair_objects ~first:1 80) in
  repair_differential "json" ~path
    ~register:(fun db -> Vida.json db ~name:"S" ~path ())
    repair_queries
    [ repair_objects ~first:81 30; "\n" ^ repair_objects ~first:111 2 ];
  rm path

(* An append above the morsel floor on an instance with a budget of 2 or
   4 domains: the repair still folds on one domain, so a float sum or
   average equals the recompute bit for bit. *)
let test_repair_differential_domains () =
  List.iter
    (fun domains ->
      let path = tmp_file ("id,v,f,s\n" ^ repair_rows ~first:1 150) in
      repair_differential (Printf.sprintf "csv, %d domains" domains) ~domains ~path
        ~register:(fun db -> Vida.csv db ~name:"S" ~path ())
        repair_queries
        [ repair_rows ~first:151 ((2 * Vida_raw.Morsel.parallel_row_floor ()) + 500) ];
      rm path)
    [ 2; 4 ]

(* in-order list folds need an ordered source: XML elements *)
let test_repair_differential_xml () =
  let element k = Printf.sprintf "<e><id>%d</id><v>%d</v></e>" k (k * 7 mod 31) in
  let elements ~first n = String.concat "" (List.init n (fun i -> element (first + i))) in
  let path = tmp_file ("<root>" ^ elements ~first:1 60) in
  repair_differential "xml" ~path
    ~register:(fun db -> Vida.xml db ~name:"S" ~path ())
    [ "for { r <- S, r.v > 10 } yield list r.id"; "for { r <- S } yield sum r.v" ]
    [ elements ~first:61 5; elements ~first:66 3 ];
  rm path

(* What a repair cannot vouch for is recomputed: an old last row that an
   append completed, a re-inferred element type, a tag that became a list. *)
let recomputed label db ~register q expected =
  let r = query_ok db q in
  check_bool (label ^ ": recomputed") false (r.Vida.repaired || r.Vida.from_result_cache);
  check_val (label ^ ": answer") expected r.Vida.value;
  check_answers label db ~register [ q ]

let test_repair_falls_back () =
  (* the old file ended mid-row *)
  let path = tmp_file ("id,v,f,s\n" ^ repair_rows ~first:1 150 ^ "151,1") in
  let register db = Vida.csv db ~name:"S" ~path () in
  let db = Vida.create ~domains:1 () in
  register db;
  let q = "for { r <- S } yield sum r.v" in
  ignore (query_ok db q);
  append_file path ("2,1.000,b\n" ^ repair_rows ~first:152 3);
  let expected = (query_ok (let d = Vida.create ~domains:1 () in register d; d) ~reuse:false q).Vida.value in
  recomputed "completed row" db ~register q expected;
  (* and the next append, now after a whole row, is repaired *)
  append_file path (repair_rows ~first:155 2);
  check_bool "then repaired" true (query_ok db q).Vida.repaired;
  rm path;
  (* a small file re-infers: Int widens to Float *)
  let path = tmp_file ("id,v,s\n" ^ int_rows ~first:1 10) in
  let register db = Vida.csv db ~name:"S" ~path () in
  let db = Vida.create ~domains:1 () in
  register db;
  ignore (query_ok db "for { r <- S } yield sum r.v");
  append_file path "11,2.5,n11\n";
  recomputed "re-inferred" db ~register "for { r <- S } yield sum r.v" (Value.Float 552.5);
  rm path;
  (* a tag repeated only in appended elements *)
  let path = tmp_file "<root><e><x>1</x></e><e><x>2</x></e>" in
  let register db = Vida.xml db ~name:"S" ~path () in
  let db = Vida.create ~domains:1 () in
  register db;
  let q = "for { r <- S } yield count r" in
  ignore (query_ok db q);
  append_file path "<e><x>3</x><x>4</x></e>";
  recomputed "new list tag" db ~register q (Value.Int 3);
  rm path

(* Two sessions meet the same stale entry: each continues the stored
   carrier or reads the other's repair, and both answers are the
   recompute's. *)
let test_repair_concurrent () =
  let path = tmp_file ("id,v,f,s\n" ^ repair_rows ~first:1 150) in
  let register db = Vida.csv db ~name:"S" ~path () in
  let db = Vida.create ~domains:1 () in
  register db;
  let queries = [ "for { r <- S } yield sum r.f"; "for { r <- S, r.s = \"a\" } yield avg r.f" ] in
  List.iter (fun q -> ignore (query_ok db q)) queries;
  for round = 0 to 2 do
    append_file path (repair_rows ~first:(151 + (round * 10)) 10);
    let session () = List.map (fun q -> query_ok db q) queries in
    let other = Domain.spawn session in
    let mine = session () in
    let theirs = Domain.join other in
    List.iteri
      (fun i q ->
        let recomputed = (query_ok db ~reuse:false q).Vida.value in
        List.iter
          (fun (r : Vida.result) ->
            check_bool (q ^ ": from the result cache") true r.Vida.from_result_cache;
            check_bool (q ^ ": equals the recompute") true (compare r.Vida.value recomputed = 0))
          [ List.nth mine i; List.nth theirs i ])
      queries
  done;
  let repairs = (Vida.stats db).Vida.result_repairs in
  check_bool "each entry repaired once or twice per append" true (repairs >= 6 && repairs <= 12);
  check_answers "concurrent" db ~register queries;
  rm path

(* The XML index scans the view in place: each byte of the file is counted
   once per scan, and an append re-infers from one whole-file load. *)
let test_xml_counts_each_byte_once () =
  let element k = Printf.sprintf "<patient><id>%d</id><age>%d</age></patient>\n" k (20 + (k mod 50)) in
  let elements ~first n = String.concat "" (List.init n (fun i -> element (first + i))) in
  let old = "<root>\n" ^ elements ~first:1 150 in
  let path = tmp_file old in
  let element_bytes ~first n = String.length (elements ~first n) - n (* newlines *) in
  let db = Vida.create ~domains:1 () in
  Vida.xml db ~name:"X" ~path ();
  let q = "for { p <- X } yield sum p.age" in
  let first = query_ok db q in
  (* the build's scan, then each element parsed twice: for its list tags
     and for the decoded column *)
  check_int "first query: the file once, each element twice"
    (String.length old + (2 * element_bytes ~first:1 150))
    first.Vida.raw_io.Io_stats.bytes_read;
  let appended = elements ~first:151 8 in
  append_file path appended;
  let io = refresh_appended db "X" in
  (* re-inference scans the whole new file once, parses each element for
     its list tags and the first 50 for their type; the extension scans
     the appended bytes and parses each new element twice *)
  check_int "refresh: re-inference once, the appended bytes once"
    (String.length old + String.length appended
    + element_bytes ~first:1 158 + element_bytes ~first:1 50
    + String.length appended + (2 * element_bytes ~first:151 8))
    io.Io_stats.bytes_read;
  check_int "refresh: re-inference load and tail read" 2 io.Io_stats.file_loads;
  rm path

(* --- crash-safe sidecar store ----------------------------------------- *)

let test_sidecar_roundtrip () =
  let path = Filename.temp_file "vida_live" ".sidecar" in
  rm path;
  check_bool "absent" true (AS.read ~path ~magic:"TST1" = AS.No_sidecar);
  let frames = [ "alpha"; ""; String.make 1000 'z' ] in
  let gen1 = AS.write ~path ~magic:"TST1" frames in
  check_int "first generation" 1 gen1;
  (match AS.read ~path ~magic:"TST1" with
  | AS.Sidecar { generation; frames = got } ->
    check_int "generation read back" 1 generation;
    check_bool "frames roundtrip" true (got = frames)
  | _ -> Alcotest.fail "expected a valid sidecar");
  (* rewriting bumps the generation automatically *)
  let gen2 = AS.write ~path ~magic:"TST1" [ "beta" ] in
  check_int "second generation" 2 gen2;
  (* a different magic refuses the file *)
  check_bool "wrong magic rejected" true
    (match AS.read ~path ~magic:"OTHR" with AS.Bad _ -> true | _ -> false);
  rm path

let test_sidecar_truncation_sweep () =
  let path = Filename.temp_file "vida_live" ".sidecar" in
  let frames = [ "first frame"; "second"; String.make 100 'q' ] in
  ignore (AS.write ~path ~magic:"TST1" frames);
  let whole = read_file path in
  let len = String.length whole in
  let bad = ref 0 in
  for cut = 0 to len - 1 do
    write_file path (String.sub whole 0 cut);
    match AS.read ~path ~magic:"TST1" with
    | AS.Sidecar { frames = got; _ } ->
      (* a truncated file must never parse into different frames *)
      if got <> frames then
        Alcotest.failf "truncation at %d produced wrong frames" cut
      else Alcotest.failf "truncation at %d of %d read back whole" cut len
    | AS.Bad _ -> incr bad
    | AS.No_sidecar -> ()
  done;
  check_bool "every truncation detected" true (!bad >= len - 1);
  (* quarantine moves the torn file aside *)
  write_file path (String.sub whole 0 (len / 2));
  (match AS.quarantine path with
  | Some q ->
    check_bool "quarantined aside" true (Sys.file_exists q);
    check_bool "original gone" false (Sys.file_exists path);
    rm q
  | None -> Alcotest.fail "quarantine failed");
  rm path

let test_sidecar_crash_injection () =
  let path = Filename.temp_file "vida_live" ".sidecar" in
  rm path;
  Faults.with_plan [ Faults.Sidecar_tear { seed = 11; only = None } ] (fun () ->
      let torn = ref 0 in
      for i = 1 to 40 do
        let frames = [ Printf.sprintf "payload %d" i; String.make (i * 7) 'x' ] in
        ignore (AS.write ~path ~magic:"TST1" ~generation:i frames);
        match AS.read ~path ~magic:"TST1" with
        | AS.Sidecar { generation; frames = got } ->
          (* an intact publish reads back exactly what was written *)
          check_int "intact generation" i generation;
          check_bool "intact frames" true (got = frames)
        | AS.Bad _ ->
          incr torn;
          (match AS.quarantine path with
          | Some q -> rm q
          | None -> ())
        | AS.No_sidecar -> ()
      done;
      check_bool "the hook tore some writes" true (Faults.injected `Sidecar_tear > 0);
      check_bool "torn writes were observed as Bad" true (!torn > 0));
  rm path

(* crash-injected checkpoints: a fresh session must answer correctly
   whether or not the persisted positional map survived intact *)
let test_checkpoint_crash_e2e () =
  let contents = "id,v\n1,10\n2,20\n3,30\n" in
  let path = tmp_file contents in
  let sidecar = path ^ ".vidx" in
  Faults.with_plan [ Faults.Sidecar_tear { seed = 3; only = None } ] (fun () ->
      for _ = 1 to 6 do
        let db = Vida.create ~domains:1 () in
        Vida.csv db ~name:"S" ~path ();
        check_value "warm query" (Value.Int 60)
          (Vida.query db "for { r <- S } yield sum r.v");
        ignore (Vida.checkpoint db);
        (* cold restart over whatever the (possibly torn) publish left *)
        let db2 = Vida.create ~domains:1 () in
        Vida.csv db2 ~name:"S" ~path ();
        check_value "cold restart query" (Value.Int 60)
          (Vida.query db2 "for { r <- S } yield sum r.v")
      done;
      check_bool "some checkpoints were torn" true (Faults.injected `Sidecar_tear > 0));
  rm sidecar;
  rm (sidecar ^ ".corrupt");
  rm path

(* --- chaos soak -------------------------------------------------------- *)

(* A seeded mutator appends / rewrites / truncates the file between
   governed queries while the session holds on to caches, structures and
   sidecars from earlier generations. Every completed query must equal
   the model (= a cold run over the file as it is), and must report the
   epoch it was served from. *)
let test_chaos_soak () =
  let rng = Random.State.make [| 0xC0FFEE; 42 |] in
  let rows = ref [ 1; 2; 3 ] in
  let render rs = "v\n" ^ String.concat "" (List.map (fun v -> string_of_int v ^ "\n") rs) in
  let path = tmp_file (render !rows) in
  let db = Vida.create ~domains:1 ~limits:{ Governor.unlimited with Governor.on_change = Governor.Retry_fresh 2 } () in
  Vida.csv db ~name:"S" ~path ();
  let q = "for { r <- S } yield sum r.v" in
  for i = 1 to 120 do
    (match Random.State.int rng 3 with
    | 0 ->
      (* append a few rows *)
      let fresh = List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng 100) in
      rows := !rows @ fresh;
      append_file path (String.concat "" (List.map (fun v -> string_of_int v ^ "\n") fresh))
    | 1 ->
      (* rewrite from scratch *)
      rows := List.init (1 + Random.State.int rng 8) (fun _ -> Random.State.int rng 100);
      write_file path (render !rows)
    | _ ->
      (* truncate to a strict byte prefix (drop trailing rows) *)
      let keep = 1 + Random.State.int rng (max 1 (List.length !rows)) in
      rows := List.filteri (fun j _ -> j < keep) !rows;
      write_file path (render !rows));
    let expected = List.fold_left ( + ) 0 !rows in
    match Vida.query db q with
    | Error e -> Alcotest.failf "soak iteration %d: %s" i (Vida.error_to_string e)
    | Ok r ->
      check_val (Printf.sprintf "soak iteration %d" i) (Value.Int expected) r.Vida.value;
      (* the reported epoch is the on-disk generation the answer matches *)
      let want = FP.encode (FP.of_contents (read_file path)) in
      check_bool
        (Printf.sprintf "soak iteration %d epoch" i)
        true
        (List.assoc_opt "S" r.Vida.epochs = Some want);
      (* periodic cold cross-check: a fresh instance agrees *)
      if i mod 30 = 0 then (
        let cold = Vida.create ~domains:1 () in
        Vida.csv cold ~name:"S" ~path ();
        check_value (Printf.sprintf "cold cross-check %d" i) (Value.Int expected)
          (Vida.query cold q))
  done;
  rm path

(* --- Fault_plan [only] matching (regression) --------------------------- *)

let test_io_fault_only_exact () =
  let no_fault label f =
    match f () with
    | () -> ()
    | exception Vida_error.Error _ -> Alcotest.failf "%s: fault wrongly injected" label
  in
  let faulted label f =
    match f () with
    | () -> Alcotest.failf "%s: expected injected failure" label
    | exception Vida_error.Error (Vida_error.Io_failure _) -> ()
  in
  Faults.with_plan
    [ Faults.Load { fail = 1000; latency_ms = 0.; only = Some "a.csv" } ]
    (fun () ->
      (* "a.csv" is never a substring pattern: "data.csv" must not match *)
      no_fault "substring path" (fun () -> Faults.on_load ~source:"/tmp/x/data.csv");
      no_fault "substring basename" (fun () -> Faults.on_load ~source:"data.csv");
      (* basename and ./-normalized forms must match *)
      faulted "basename" (fun () -> Faults.on_load ~source:"/tmp/x/a.csv");
      faulted "dot-slash" (fun () -> Faults.on_load ~source:"./a.csv");
      faulted "exact" (fun () -> Faults.on_load ~source:"a.csv"));
  Faults.with_plan
    [ Faults.Load { fail = 1000; latency_ms = 0.; only = Some "./b/a.csv" } ]
    (fun () ->
      faulted "normalized path" (fun () -> Faults.on_load ~source:"b/a.csv");
      no_fault "other dir same basename... path form matches basename too" (fun () ->
          Faults.on_load ~source:"c/other.csv"))

let () =
  Alcotest.run "vida_livedata"
    [ ( "delta",
        [ Alcotest.test_case "classify" `Quick test_delta_classify ] );
      ( "epoch",
        [ Alcotest.test_case "fail-fast" `Quick test_mid_query_fail_fast;
          Alcotest.test_case "retry-fresh" `Quick test_mid_query_retry_fresh
        ] );
      ( "append-repair",
        [ Alcotest.test_case "extends caches e2e" `Quick test_append_extends_caches;
          Alcotest.test_case "csv differential" `Quick test_csv_extend_differential;
          Alcotest.test_case "json differential" `Quick test_json_extend_differential;
          Alcotest.test_case "xml differential" `Quick test_xml_extend_differential;
          Alcotest.test_case "repair equals rebuild" `Quick test_repair_equals_rebuild;
          Alcotest.test_case "one generation per repair" `Quick test_repair_one_generation;
          Alcotest.test_case "query io includes repair" `Quick test_query_io_includes_repair;
          Alcotest.test_case "xml counts each byte once" `Quick test_xml_counts_each_byte_once
        ] );
      ( "schema-across-appends",
        [ Alcotest.test_case "small csv widens" `Quick test_schema_widens_small_csv;
          Alcotest.test_case "large csv kept" `Quick test_schema_kept_large_csv;
          Alcotest.test_case "small json widens" `Quick test_schema_widens_small_json;
          Alcotest.test_case "large json kept" `Quick test_schema_kept_large_json
        ] );
      ( "sidecar",
        [ Alcotest.test_case "roundtrip" `Quick test_sidecar_roundtrip;
          Alcotest.test_case "truncation sweep" `Quick test_sidecar_truncation_sweep;
          Alcotest.test_case "crash injection" `Quick test_sidecar_crash_injection;
          Alcotest.test_case "checkpoint crash e2e" `Quick test_checkpoint_crash_e2e
        ] );
      ( "chaos",
        [ Alcotest.test_case "soak" `Slow test_chaos_soak ] );
      ( "raw-buffer",
        [ Alcotest.test_case "views share capacity" `Quick test_buffer_views_share_capacity ] );
      ( "result-repair",
        [ Alcotest.test_case "csv differential" `Quick test_repair_differential_csv;
          Alcotest.test_case "json differential" `Quick test_repair_differential_json;
          Alcotest.test_case "xml differential" `Quick test_repair_differential_xml;
          Alcotest.test_case "differential across domain counts" `Quick
            test_repair_differential_domains;
          Alcotest.test_case "falls back" `Quick test_repair_falls_back;
          Alcotest.test_case "concurrent sessions" `Quick test_repair_concurrent ] );
      ( "io-fault",
        [ Alcotest.test_case "only is exact" `Quick test_io_fault_only_exact ] )
    ]
