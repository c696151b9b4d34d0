(* Fault-injection suite: every scenario feeds deliberately damaged bytes
   into the raw-access path and asserts the engine either recovers per the
   cleaning policy or raises a structured {!Vida_error.Error} — never an
   untyped crash, never a hang, never a wrong silent answer. *)

open Vida_data
module FI = Vida_raw.Fault_inject
module PM = Vida_raw.Positional_map

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp_file contents =
  let path = Filename.temp_file "vida_fault" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

(* [f] may succeed or raise a structured error; anything else is a bug. *)
let no_crash label f =
  match f () with
  | _ -> ()
  | exception Vida_error.Error _ -> ()
  | exception e ->
    Alcotest.failf "%s: untyped exception escaped: %s" label (Printexc.to_string e)

let sample_csv = "id,age,name\n1,34,ada\n2,71,bob\n3,52,cyd\n"

(* read every field of every row — forces the whole access path *)
let drain_posmap pm =
  for row = 0 to PM.row_count pm - 1 do
    for col = 0 to 2 do
      ignore (PM.field pm ~row ~col)
    done
  done

(* --- scenario 1: CSV truncated at every byte --- *)

let test_csv_truncation_sweep () =
  for cut = 0 to String.length sample_csv do
    no_crash (Printf.sprintf "truncate at %d" cut) (fun () ->
        let buf = FI.buffer ~source:"trunc.csv" [ FI.Truncate_at cut ] sample_csv in
        drain_posmap (PM.build ~header:true buf))
  done

(* --- scenario 2: CSV seeded random bit flips --- *)

let test_csv_bit_flip_sweep () =
  for seed = 0 to 49 do
    no_crash (Printf.sprintf "bit flips seed %d" seed) (fun () ->
        let buf =
          FI.buffer ~source:"flip.csv" ~seed [ FI.Random_bit_flips 4 ] sample_csv
        in
        drain_posmap (PM.build ~header:true buf))
  done;
  (* a single deterministic flip must be replayable byte-for-byte *)
  let a = FI.apply [ FI.Bit_flip { offset = 13; bit = 6 } ] sample_csv in
  let b = FI.apply [ FI.Bit_flip { offset = 13; bit = 6 } ] sample_csv in
  check_bool "deterministic" true (String.equal a b);
  check_bool "actually corrupts" false (String.equal a sample_csv)

(* --- scenario 3: CSV short read (bytes silently missing) --- *)

let test_csv_short_read () =
  no_crash "short read" (fun () ->
      let buf =
        FI.buffer ~source:"short.csv" [ FI.Short_read { offset = 10; dropped = 7 } ]
          sample_csv
      in
      let pm = PM.build ~header:true buf in
      drain_posmap pm;
      (* 7 bytes vanished: the resynced map must not claim the intact count *)
      check_bool "rows plausible" true (PM.row_count pm <= 3))

(* --- scenario 4: CSV trailing garbage --- *)

let test_csv_garbage_append () =
  for seed = 0 to 9 do
    no_crash (Printf.sprintf "garbage seed %d" seed) (fun () ->
        let buf =
          FI.buffer ~source:"garbage.csv" ~seed [ FI.Garbage_append 32 ] sample_csv
        in
        drain_posmap (PM.build ~header:true buf))
  done

(* --- scenario 5: unterminated quote trips the row-length guard --- *)

let test_csv_quote_runaway_limit () =
  let body =
    "id,name\n1,\"unterminated " ^ String.make 400 'x' ^ "\n2,ok\n3,ok\n"
  in
  let limits = { Vida_error.Limits.default with max_row_bytes = 64 } in
  Vida_error.Limits.with_limits limits (fun () ->
      match PM.build ~header:true (FI.buffer ~source:"quote.csv" [] body) with
      | _ -> Alcotest.fail "quote runaway not caught"
      | exception Vida_error.Error (Vida_error.Resource_limit { what; limit; _ }) ->
        Alcotest.(check string) "guard name" "row length" what;
        check_int "configured limit" 64 limit)

(* --- scenario 6: JSON nesting bomb (no stack overflow) --- *)

let test_json_nesting_bomb () =
  let bomb = String.make 600 '[' ^ String.make 600 ']' in
  (match Vida_raw.Json.parse ~source:"bomb.json" bomb with
  | _ -> Alcotest.fail "nesting bomb not caught"
  | exception Vida_error.Error (Vida_error.Resource_limit { what; _ }) ->
    Alcotest.(check string) "guard name" "nesting depth" what);
  (* the same document parses once the limit is raised above its depth *)
  let limits = { Vida_error.Limits.default with max_nesting = 1000 } in
  Vida_error.Limits.with_limits limits (fun () ->
      ignore (Vida_raw.Json.parse ~source:"bomb.json" bomb))

(* --- scenario 7: JSON truncated / flipped objects --- *)

let test_json_corruption () =
  let obj = {|{"id": 7, "tags": ["a", "b"], "score": 1.25}|} in
  for cut = 0 to String.length obj - 1 do
    no_crash (Printf.sprintf "json cut %d" cut) (fun () ->
        Vida_raw.Json.parse ~source:"cut.json" (String.sub obj 0 cut))
  done;
  (match Vida_raw.Json.parse ~source:"t.json" {|{"a": 1, "b"|} with
  | _ -> Alcotest.fail "truncated object accepted"
  | exception Vida_error.Error (Vida_error.Parse_error { source; _ })
  | exception Vida_error.Error (Vida_error.Truncated { source; _ }) ->
    Alcotest.(check string) "source named" "t.json" source);
  for seed = 0 to 49 do
    no_crash (Printf.sprintf "json flip seed %d" seed) (fun () ->
        Vida_raw.Json.parse ~source:"flip.json"
          (FI.apply ~seed [ FI.Random_bit_flips 2 ] obj))
  done

(* --- scenario 8: vbson — every truncated-read branch --- *)

let expect_vbson_error label s =
  match Vida_storage.Vbson.decode ~source:"t.vbson" s with
  | _ -> Alcotest.failf "%s: corrupt vbson accepted" label
  | exception Vida_error.Error (Vida_error.Truncated _ | Vida_error.Parse_error _) -> ()
  | exception Vida_error.Error e ->
    Alcotest.failf "%s: wrong kind %s" label (Vida_error.kind_name e)
  | exception e ->
    Alcotest.failf "%s: untyped exception %s" label (Printexc.to_string e)

let test_vbson_truncated_branches () =
  expect_vbson_error "empty" "";
  expect_vbson_error "varint continuation" "\003\x80";
  expect_vbson_error "float needs 8 bytes" "\004ab";
  expect_vbson_error "string shorter than its length" "\005\x0aab";
  expect_vbson_error "record count exceeds bytes" "\006\x05";
  expect_vbson_error "list count bomb" "\007\xff\x01";
  expect_vbson_error "bag count bomb" "\008\x7f";
  expect_vbson_error "set count bomb" "\009\x7f";
  expect_vbson_error "array dims bomb" "\010\xff\x01";
  expect_vbson_error "unknown tag" "\011";
  expect_vbson_error "trailing bytes" "\000\000";
  (* every strict prefix of a valid encoding must be rejected *)
  let v =
    Value.Record
      [ ("n", Value.Int 42); ("s", Value.String "hello");
        ("f", Value.Float 1.5); ("l", Value.List [ Value.Int 1; Value.Int 2 ]) ]
  in
  let enc = Vida_storage.Vbson.encode v in
  for cut = 0 to String.length enc - 1 do
    expect_vbson_error (Printf.sprintf "prefix %d" cut) (String.sub enc 0 cut)
  done

(* --- scenario 9: vbson seeded bit flips --- *)

let test_vbson_bit_flips () =
  let v =
    Value.List
      [ Value.Record [ ("a", Value.Int 1); ("b", Value.String "xyz") ];
        Value.Record [ ("a", Value.Int 2); ("b", Value.Float 3.5) ] ]
  in
  let enc = Vida_storage.Vbson.encode v in
  for seed = 0 to 99 do
    no_crash (Printf.sprintf "vbson flip seed %d" seed) (fun () ->
        Vida_storage.Vbson.decode ~source:"flip.vbson"
          (FI.apply ~seed [ FI.Random_bit_flips 3 ] enc))
  done

(* --- scenario 10: vbson nesting bomb --- *)

let test_vbson_nesting_bomb () =
  let rec nest n v = if n = 0 then v else nest (n - 1) (Value.List [ v ]) in
  let enc = Vida_storage.Vbson.encode (nest 600 (Value.Int 1)) in
  match Vida_storage.Vbson.decode ~source:"deep.vbson" enc with
  | _ -> Alcotest.fail "vbson nesting bomb not caught"
  | exception Vida_error.Error (Vida_error.Resource_limit _) -> ()

(* --- scenario 11: binary array truncation --- *)

let test_binarray_truncated () =
  let path = Filename.temp_file "vida_fault" ".bin" in
  Vida_raw.Binarray.write path ~dims:[ 4 ]
    ~fields:[ { Vida_raw.Binarray.name = "v"; is_float = false } ]
    (fun i -> [| Value.Int i |]);
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  for cut = 0 to String.length contents - 1 do
    no_crash (Printf.sprintf "binarray cut %d" cut) (fun () ->
        let buf =
          FI.buffer ~source:"cut.bin" [ FI.Truncate_at cut ] contents
        in
        let t = Vida_raw.Binarray.open_file buf in
        for cell = 0 to Vida_raw.Binarray.cell_count t - 1 do
          ignore (Vida_raw.Binarray.get t ~cell ~field:0)
        done)
  done;
  (* a short header is a structured error, not a crash *)
  match
    Vida_raw.Binarray.open_file (FI.buffer ~source:"hdr.bin" [ FI.Truncate_at 3 ] contents)
  with
  | _ -> Alcotest.fail "3-byte binarray accepted"
  | exception Vida_error.Error (Vida_error.Truncated _ | Vida_error.Parse_error _) -> ()

(* --- scenario 12: XML record-level recovery --- *)

let test_xml_tolerant_recovery () =
  let doc = "<root><r><a>1</a></r><r><a>2</oops></r><r><a>3</a></r></root>" in
  let goods, bads = Vida_raw.Xml.children_bounds_tolerant ~source:"bad.xml" doc in
  check_bool "recovered some records" true (List.length goods >= 2);
  check_bool "reported the bad span" true (List.length bads >= 1);
  List.iter
    (fun (pos, len, reason) ->
      check_bool "span inside doc" true (pos >= 0 && pos + len <= String.length doc);
      check_bool "reason non-empty" true (String.length reason > 0))
    bads

(* --- scenario 13: end-to-end CSV corruption under Quarantine --- *)

let test_e2e_csv_quarantine () =
  let path = tmp_file "id,val\n1,10\n2,20\n3,30\n" in
  (* splat garbage over row 2's value, as a partially overwritten file would *)
  FI.corrupt_file [ FI.Overwrite { offset = 14; bytes = "xx" } ] ~path;
  let db = Vida.create () in
  let schema = Schema.of_pairs [ ("id", Ty.Int); ("val", Ty.Int) ] in
  Vida.csv db ~name:"Bad" ~path ~schema ();
  Vida.set_cleaning db ~source:"Bad"
    (Vida_cleaning.Policy.make ~on_error:Vida_cleaning.Policy.Quarantine ());
  (match Vida.query db "for { r <- Bad } yield sum r.val" with
  | Ok { value; _ } ->
    Alcotest.(check string) "bad row skipped" "40" (Value.to_string value)
  | Error e -> Alcotest.failf "query failed: %s" (Vida.error_to_string e));
  let entries = Vida.quarantine_report db ~source:"Bad" in
  check_bool "quarantine recorded" true (List.length entries >= 1);
  List.iter
    (fun (q : Vida_cleaning.Policy.quarantine_entry) ->
      Alcotest.(check string) "span names the source" "Bad" q.q_source;
      check_bool "offset points into the file" true (q.q_offset >= 0);
      check_bool "span has a length" true (q.q_length > 0);
      check_bool "reason non-empty" true (String.length q.q_reason > 0))
    entries;
  let report = Vida.cleaning_report db ~source:"Bad" in
  check_bool "report counts it" true (report.Vida_cleaning.Policy.quarantined >= 1);
  Sys.remove path

(* --- scenario 14: end-to-end CSV bit flip under Null_value --- *)

let test_e2e_csv_bitflip_nulled () =
  let path = tmp_file "id,val\n1,10\n2,20\n3,30\n" in
  (* '2' ^ bit 6 = 'r': row 2's value becomes the unparseable "r0" *)
  FI.corrupt_file [ FI.Bit_flip { offset = 14; bit = 6 } ] ~path;
  let db = Vida.create () in
  let schema = Schema.of_pairs [ ("id", Ty.Int); ("val", Ty.Int) ] in
  Vida.csv db ~name:"Flip" ~path ~schema ();
  Vida.set_cleaning db ~source:"Flip"
    (Vida_cleaning.Policy.make ~on_error:Vida_cleaning.Policy.Null_value ());
  (match Vida.query db "for { r <- Flip } yield count r" with
  | Ok { value; _ } ->
    Alcotest.(check string) "all rows survive as nulls" "3" (Value.to_string value)
  | Error e -> Alcotest.failf "query failed: %s" (Vida.error_to_string e));
  Sys.remove path

(* --- scenario 15: end-to-end JSON corruption, Quarantine vs Strict --- *)

let corrupt_jsonl =
  {|{"id": 1, "v": 10}
{"id": 2, "v": oops}
{"id": 3, "v": 30}
|}

let test_e2e_json_policies () =
  let element = Ty.Record [ ("id", Ty.Int); ("v", Ty.Int) ] in
  let path = tmp_file corrupt_jsonl in
  let db = Vida.create () in
  Vida.json db ~name:"J" ~path ~element ();
  Vida.set_cleaning db ~source:"J"
    (Vida_cleaning.Policy.make ~on_error:Vida_cleaning.Policy.Quarantine ());
  (match Vida.query db "for { r <- J } yield sum r.v" with
  | Ok { value; _ } ->
    Alcotest.(check string) "corrupt object skipped" "40" (Value.to_string value)
  | Error e -> Alcotest.failf "quarantine query failed: %s" (Vida.error_to_string e));
  check_bool "json quarantine recorded" true
    (List.length (Vida.quarantine_report db ~source:"J") >= 1);
  (* same file under Strict: a structured Data_error, not a crash *)
  let db2 = Vida.create () in
  Vida.json db2 ~name:"J" ~path ~element ();
  (match Vida.query db2 "for { r <- J } yield sum r.v" with
  | Ok _ -> Alcotest.fail "strict policy accepted corrupt data"
  | Error (Vida.Data_error e) ->
    check_bool "offset surfaced" true (Vida_error.offset e <> None)
  | Error e -> Alcotest.failf "wrong error class: %s" (Vida.error_to_string e));
  Sys.remove path

(* --- scenario 16: stale and corrupt positional-map sidecars --- *)

let test_e2e_stale_sidecar () =
  let path = tmp_file "id,v\n1,1\n2,2\n" in
  let sidecar = path ^ ".vidx" in
  let db = Vida.create () in
  Vida.csv db ~name:"S" ~path ();
  Alcotest.(check string) "before" "3"
    (Value.to_string (Vida.query_value db "for { r <- S } yield sum r.v"));
  check_int "sidecar written" 1 (Vida.checkpoint db);
  check_bool "sidecar exists" true (Sys.file_exists sidecar);
  (* the file is rewritten behind our back: row boundaries all move *)
  let oc = open_out_bin path in
  output_string oc "id,v\n10,100\n20,200\n30,300\n";
  close_out oc;
  let db2 = Vida.create () in
  Vida.csv db2 ~name:"S" ~path ();
  Alcotest.(check string) "stale sidecar rejected, rebuilt from raw" "600"
    (Value.to_string (Vida.query_value db2 "for { r <- S } yield sum r.v"));
  (* splat garbage over the sidecar itself: rejected, never trusted *)
  let oc = open_out_bin sidecar in
  output_string oc "VPM2 this is not a sidecar at all \255\254\253";
  close_out oc;
  let db3 = Vida.create () in
  Vida.csv db3 ~name:"S" ~path ();
  Alcotest.(check string) "garbage sidecar rejected" "600"
    (Value.to_string (Vida.query_value db3 "for { r <- S } yield sum r.v"));
  (* the unreadable sidecar was quarantined aside for inspection, so the
     next checkpoint can publish a fresh one at the canonical path *)
  check_bool "corrupt sidecar quarantined" true (not (Sys.file_exists sidecar));
  check_bool "quarantine preserved for inspection" true
    (Sys.file_exists (sidecar ^ ".corrupt"));
  Sys.remove (sidecar ^ ".corrupt");
  Sys.remove path

(* --- scenario 17: result cache dropped on fingerprint mismatch --- *)

let test_e2e_result_cache_fingerprint () =
  (* a same-size edit in the middle of the file, invisible to a cheap
     size+mtime-resolution stat — the content fingerprint must catch it
     (for a file this small the head window covers every byte; larger
     files additionally get a size-seeded interior window) *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "id,pad,v\n";
  let target = ref (-1) in
  for i = 1 to 15 do
    if i = 7 then target := Buffer.length buf + String.length (string_of_int i) + 8;
    Buffer.add_string buf (Printf.sprintf "%d,xxxxxx,5\n" i)
  done;
  let contents = Buffer.contents buf in
  check_bool "edit outside snapshot windows" true
    (!target >= 64 && !target < String.length contents - 64);
  Alcotest.(check char) "edit hits the value column" '5' contents.[!target];
  let path = tmp_file contents in
  let db = Vida.create () in
  Vida.csv db ~name:"F" ~path ();
  let q = "for { r <- F } yield sum r.v" in
  Alcotest.(check string) "initial sum" "75" (Value.to_string (Vida.query_value db q));
  (match Vida.query db q with
  | Ok r -> check_bool "second run reuses the result" true r.Vida.from_result_cache
  | Error e -> Alcotest.failf "repeat failed: %s" (Vida.error_to_string e));
  FI.corrupt_file [ FI.Overwrite { offset = !target; bytes = "9" } ] ~path;
  (* the rewrite is detected at refresh time (the stale result purged
     before lookup) or at hit time (stale-dropped) — either way the
     answer comes from the current bytes *)
  (match Vida.query db q with
  | Ok r ->
    check_bool "stale result not reused" false r.Vida.from_result_cache;
    Alcotest.(check string) "recomputed on current bytes" "79"
      (Value.to_string r.Vida.value)
  | Error e -> Alcotest.failf "post-edit failed: %s" (Vida.error_to_string e));
  Sys.remove path

(* The fault registry under concurrent loads: domains forcing distinct
   sources under one [fail = 2] plan each see exactly two injected
   failures per source (retried away), whatever the interleaving. A
   second force of each source must load cleanly, so no source got fewer
   than two; the total says none got more. *)
let test_registry_concurrent_loads () =
  let domains = 4 and per_domain = 3 in
  let paths =
    List.init domains (fun d ->
        List.init per_domain (fun i ->
            tmp_file (Printf.sprintf "id\n%d\n" ((d * per_domain) + i))))
  in
  let sources = domains * per_domain in
  let force file =
    let view = Vida_raw.Raw_buffer.(contents (of_path file)) in
    String.sub view.Vida_raw.Raw_buffer.data 0 view.Vida_raw.Raw_buffer.len
  in
  Vida_raw.Fault_plan.(with_plan [ Load { fail = 2; latency_ms = 0.; only = None } ])
    (fun () ->
      let workers =
        List.map
          (fun mine ->
            Domain.spawn (fun () ->
                List.map (fun path -> (force path, force path)) mine))
          paths
      in
      List.iteri
        (fun d worker ->
          List.iteri
            (fun i (first, second) ->
              let expected = Printf.sprintf "id\n%d\n" ((d * per_domain) + i) in
              Alcotest.(check string) "first load retried to the bytes" expected first;
              Alcotest.(check string) "second load clean" expected second)
            (Domain.join worker))
        workers;
      check_int "two injected failures per source" (2 * sources)
        (Vida_raw.Fault_plan.injected `Load));
  check_int "nothing armed after the plan" 0 (Vida_raw.Fault_plan.injected `Load);
  List.iter (List.iter Sys.remove) paths

let () =
  Alcotest.run "faults"
    [
      ( "csv",
        [
          Alcotest.test_case "truncation sweep" `Quick test_csv_truncation_sweep;
          Alcotest.test_case "bit flip sweep" `Quick test_csv_bit_flip_sweep;
          Alcotest.test_case "short read" `Quick test_csv_short_read;
          Alcotest.test_case "garbage append" `Quick test_csv_garbage_append;
          Alcotest.test_case "quote runaway limit" `Quick test_csv_quote_runaway_limit;
        ] );
      ( "json",
        [
          Alcotest.test_case "nesting bomb" `Quick test_json_nesting_bomb;
          Alcotest.test_case "corruption" `Quick test_json_corruption;
        ] );
      ( "vbson",
        [
          Alcotest.test_case "truncated branches" `Quick test_vbson_truncated_branches;
          Alcotest.test_case "bit flips" `Quick test_vbson_bit_flips;
          Alcotest.test_case "nesting bomb" `Quick test_vbson_nesting_bomb;
        ] );
      ( "binarray",
        [ Alcotest.test_case "truncated" `Quick test_binarray_truncated ] );
      ( "xml",
        [ Alcotest.test_case "tolerant recovery" `Quick test_xml_tolerant_recovery ] );
      ( "registry",
        [ Alcotest.test_case "concurrent loads" `Quick test_registry_concurrent_loads ] );
      ( "end-to-end",
        [
          Alcotest.test_case "csv quarantine" `Quick test_e2e_csv_quarantine;
          Alcotest.test_case "csv bitflip nulled" `Quick test_e2e_csv_bitflip_nulled;
          Alcotest.test_case "json policies" `Quick test_e2e_json_policies;
          Alcotest.test_case "stale sidecar" `Quick test_e2e_stale_sidecar;
          Alcotest.test_case "result cache fingerprint" `Quick test_e2e_result_cache_fingerprint;
        ] );
    ]
