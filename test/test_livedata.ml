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
module FI = Vida_raw.Fault_inject
module RB = Vida_raw.Raw_buffer
module PM = Vida_raw.Positional_map
module SI = Vida_raw.Semi_index
module XI = Vida_raw.Xml_index
module Governor = Vida_governor.Governor

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
    (match Delta.classify_contents ~old_fp:fp (old_s ^ "3,30\n") with
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
  FI.arm_sidecar_crash ~seed:11;
  Fun.protect ~finally:FI.disarm_sidecar_crash (fun () ->
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
      check_bool "the hook tore some writes" true (FI.sidecar_crashes () > 0);
      check_bool "torn writes were observed as Bad" true (!torn > 0));
  rm path

(* crash-injected checkpoints: a fresh session must answer correctly
   whether or not the persisted positional map survived intact *)
let test_checkpoint_crash_e2e () =
  let contents = "id,v\n1,10\n2,20\n3,30\n" in
  let path = tmp_file contents in
  let sidecar = path ^ ".vidx" in
  FI.arm_sidecar_crash ~seed:3;
  Fun.protect ~finally:FI.disarm_sidecar_crash (fun () ->
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
      check_bool "some checkpoints were torn" true (FI.sidecar_crashes () > 0));
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

(* --- Io_fault.only matching (regression) ------------------------------- *)

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
  FI.with_io_plan
    (FI.io_plan ~fail_loads:1000 ~only:"a.csv" ())
    (fun () ->
      (* "a.csv" is never a substring pattern: "data.csv" must not match *)
      no_fault "substring path" (fun () -> Vida_raw.Io_fault.on_load ~source:"/tmp/x/data.csv");
      no_fault "substring basename" (fun () -> Vida_raw.Io_fault.on_load ~source:"data.csv");
      (* basename and ./-normalized forms must match *)
      faulted "basename" (fun () -> Vida_raw.Io_fault.on_load ~source:"/tmp/x/a.csv");
      faulted "dot-slash" (fun () -> Vida_raw.Io_fault.on_load ~source:"./a.csv");
      faulted "exact" (fun () -> Vida_raw.Io_fault.on_load ~source:"a.csv"));
  FI.with_io_plan
    (FI.io_plan ~fail_loads:1000 ~only:"./b/a.csv" ())
    (fun () ->
      faulted "normalized path" (fun () -> Vida_raw.Io_fault.on_load ~source:"b/a.csv");
      no_fault "other dir same basename... path form matches basename too" (fun () ->
          Vida_raw.Io_fault.on_load ~source:"c/other.csv"))

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
          Alcotest.test_case "xml differential" `Quick test_xml_extend_differential
        ] );
      ( "sidecar",
        [ Alcotest.test_case "roundtrip" `Quick test_sidecar_roundtrip;
          Alcotest.test_case "truncation sweep" `Quick test_sidecar_truncation_sweep;
          Alcotest.test_case "crash injection" `Quick test_sidecar_crash_injection;
          Alcotest.test_case "checkpoint crash e2e" `Quick test_checkpoint_crash_e2e
        ] );
      ( "chaos",
        [ Alcotest.test_case "soak" `Slow test_chaos_soak ] );
      ( "io-fault",
        [ Alcotest.test_case "only is exact" `Quick test_io_fault_only_exact ] )
    ]
