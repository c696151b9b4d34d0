(* End-to-end tests for the Vida facade and the workload generators. *)

open Vida_data

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_value msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

let tmp_file contents =
  let path = Filename.temp_file "vida_test" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let patients_csv =
  "id,age,city,protein\n\
   1,34,geneva,0.5\n\
   2,71,zurich,1.5\n\
   3,52,geneva,2.5\n\
   4,28,basel,\n"

let regions_jsonl =
  {|{"id": 1, "region": "hippocampus", "volume": 3.2}
{"id": 2, "region": "cortex", "volume": 410.0}
{"id": 3, "region": "hippocampus", "volume": 2.9}
|}

let make_db () =
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:(tmp_file patients_csv) ();
  Vida.json db ~name:"Regions" ~path:(tmp_file regions_jsonl) ();
  Vida.inline db ~name:"Numbers" (Value.List [ Value.Int 1; Value.Int 2 ]);
  db

(* --- query paths --- *)

let test_query_comprehension () =
  let db = make_db () in
  check_value "aggregate" (Value.Int 3)
    (Vida.query_value db "for { p <- Patients, p.age > 30 } yield count p");
  check_value "join" (Value.Float 2.9)
    (Vida.query_value db
       "for { p <- Patients, r <- Regions, p.id = r.id, p.city = \"geneva\", p.age > 40 } yield max r.volume")

let test_query_sql () =
  let db = make_db () in
  match Vida.sql db "SELECT COUNT( * ) FROM Patients p WHERE p.age > 30" with
  | Ok r -> check_value "sql count" (Value.Int 3) r.Vida.value
  | Error e -> Alcotest.fail (Vida.error_to_string e)

let test_both_engines_agree () =
  let db = make_db () in
  let q = "for { p <- Patients, r <- Regions, p.id = r.id } yield set r.region" in
  check_value "jit vs generic"
    (Vida.query_value ~engine:Vida.Jit db q)
    (Vida.query_value ~engine:Vida.Generic db q)

(* What the JIT-vs-interpreted comparison (DESIGN.md A1) measures: the
   Generic foil fetches every field of a row, the JIT only the one the
   query reads. Exact counts, so sharing code between the foil and the
   baselines can never hand the foil projection pushdown unnoticed. *)
let test_generic_foil_converts_whole_rows () =
  let columns = 12 and rows = 40 in
  let header = String.concat "," (List.init columns (Printf.sprintf "c%d")) in
  let row i = String.concat "," (List.init columns (fun c -> string_of_int ((i * columns) + c))) in
  let path =
    tmp_file (String.concat "\n" (header :: List.init rows row) ^ "\n")
  in
  let converted engine =
    let db = Vida.create ~domains:1 () in
    Vida.csv db ~name:"Wide" ~path ();
    match Vida.query ~engine ~reuse:false db "for { r <- Wide } yield sum r.c3" with
    | Ok r ->
      let expected = List.fold_left (fun acc i -> acc + (i * columns) + 3) 0 (List.init rows Fun.id) in
      check_value "sum of c3" (Value.Int expected) r.Vida.value;
      r.Vida.raw_io.Vida_raw.Io_stats.values_converted
    | Error e -> Alcotest.fail (Vida.error_to_string e)
  in
  let generic = converted Vida.Generic and jit = converted Vida.Jit in
  check_bool "the foil converts strictly more" true (generic > jit);
  check_int "generic converts every field of every row" (columns * rows) generic;
  check_int "jit converts the one field it reads" rows jit;
  Sys.remove path

let test_error_paths () =
  let db = make_db () in
  (match Vida.query db "for { x <- } yield sum 1" with
  | Error (Vida.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected parse error");
  (match Vida.query db "for { p <- Patients } yield sum p.city" with
  | Error (Vida.Type_error _) -> ()
  | _ -> Alcotest.fail "expected type error");
  match Vida.query db "for { z <- Unknown } yield sum z" with
  | Error (Vida.Type_error _) | Error (Vida.Engine_error _) -> ()
  | Ok _ -> Alcotest.fail "expected failure"
  | Error (Vida.Parse_error _ | Vida.Data_error _) ->
    Alcotest.fail "wrong error class"

let test_params () =
  let db = make_db () in
  Vida.bind_param db "min_age" (Value.Int 50);
  check_value "param" (Value.Int 2)
    (Vida.query_value db "for { p <- Patients, p.age > min_age } yield count p")

let test_stats_and_cache_tracking () =
  let db = make_db () in
  let q = "for { p <- Patients } yield sum p.age" in
  (match Vida.query db q with
  | Ok r -> check_bool "first run touches the file" false r.Vida.served_from_cache
  | Error e -> Alcotest.fail (Vida.error_to_string e));
  (match Vida.query db q with
  | Ok r -> check_bool "second run cache-only" true r.Vida.served_from_cache
  | Error e -> Alcotest.fail (Vida.error_to_string e));
  let s = Vida.stats db in
  check_int "two queries" 2 s.Vida.queries_run;
  check_int "one from cache" 1 s.Vida.queries_from_cache;
  check_bool "io accounted" true (s.Vida.io.Vida_raw.Io_stats.bytes_read > 0)

(* A warm repeat reads nothing: revalidating the loaded sources digests
   their fingerprint windows in place, so neither the query's own
   [raw_io] nor the process counters around the whole call (source
   refresh included) move — with and without result reuse. *)
let test_warm_repeat_reads_nothing () =
  let db = make_db () in
  let q = "for { p <- Patients, r <- Regions, p.id = r.id } yield sum r.volume" in
  let run reuse =
    let before = Vida_raw.Io_stats.current () in
    match Vida.query ~reuse db q with
    | Ok r -> (r.Vida.raw_io, Vida_raw.Io_stats.diff (Vida_raw.Io_stats.current ()) before)
    | Error e -> Alcotest.fail (Vida.error_to_string e)
  in
  ignore (run true);
  List.iter
    (fun reuse ->
      let raw_io, whole_call = run reuse in
      let what = if reuse then "result-cache hit" else "warm rerun" in
      check_bool (what ^ ": raw_io all zero") true (raw_io = Vida_raw.Io_stats.zero);
      check_bool (what ^ ": no raw access around the call") true
        (whole_call = Vida_raw.Io_stats.zero))
    [ false; true ]

let test_explain () =
  let db = make_db () in
  match Vida.explain db "for { p <- Patients, p.age > 30 } yield count p" with
  | Ok text ->
    check_bool "mentions plan" true
      (String.length text > 0
      && Astring.String.is_infix ~affix:"optimized plan" text
      && Astring.String.is_infix ~affix:"Reduce[count]" text
      && Astring.String.is_infix ~affix:"result type: int" text)
  | Error e -> Alcotest.fail (Vida.error_to_string e)

let test_explain_sql () =
  let db = make_db () in
  match Vida.explain_sql db "SELECT COUNT( * ) FROM Patients p WHERE p.age > 30" with
  | Ok text ->
    check_bool "sql explain shows plan" true
      (Astring.String.is_infix ~affix:"Reduce[count]" text)
  | Error e -> Alcotest.fail (Vida.error_to_string e)

let test_staleness_transparent () =
  let path = tmp_file patients_csv in
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path ();
  check_value "before" (Value.Int 4) (Vida.query_value db "for { p <- P } yield count p");
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "5,90,bern,3.5\n";
  close_out oc;
  (* the next query must notice the update and drop structures itself *)
  check_value "after append" (Value.Int 5) (Vida.query_value db "for { p <- P } yield count p")

let test_no_optimize_flag () =
  let db = make_db () in
  match Vida.query ~optimize:false db "for { p <- Patients, p.age > 30 } yield count p" with
  | Ok r -> check_value "unoptimized result" (Value.Int 3) r.Vida.value
  | Error e -> Alcotest.fail (Vida.error_to_string e)

let test_tsv_and_crlf () =
  (* alternative delimiter and CRLF line endings *)
  let tsv = tmp_file "id\tname\tv\r\n1\tada\t10\r\n2\tbob\t20\r\n" in
  let db = Vida.create () in
  Vida.csv db ~name:"T" ~path:tsv ~delim:'\t' ();
  check_value "tsv sum" (Value.Int 30) (Vida.query_value db "for { t <- T } yield sum t.v");
  check_value "crlf strings clean" (Value.String "bob")
    (Vida.query_value db "for { t <- T, t.id = 2 } yield max t.name")

let test_eviction_under_pressure () =
  (* a cache too small for all columns: still correct, with evictions *)
  let rows = List.init 400 (fun i -> Printf.sprintf "%d,%d,%d,%d" i (i*2) (i*3) (i*5)) in
  let path = tmp_file ("a,b,c,d\n" ^ String.concat "\n" rows ^ "\n") in
  let db = Vida.create ~cache_capacity:20_000 () in
  Vida.csv db ~name:"W" ~path ();
  check_value "col a" (Value.Int (399*400/2)) (Vida.query_value db "for { w <- W } yield sum w.a");
  check_value "col b" (Value.Int (399*400)) (Vida.query_value db "for { w <- W } yield sum w.b");
  check_value "col c" (Value.Int (3*399*400/2)) (Vida.query_value db "for { w <- W } yield sum w.c");
  check_value "col a again" (Value.Int (399*400/2)) (Vida.query_value db "for { w <- W } yield sum w.a");
  let s = Vida.stats db in
  check_bool "evictions happened" true (s.Vida.cache.Vida_storage.Cache.evictions > 0)

(* --- workload generators --- *)

let small_config =
  { Vida_workload.Hbp_data.patients_rows = 60; patients_attrs = 20;
    genetics_rows = 80; genetics_attrs = 12; regions_objects = 40;
    regions_per_object = 4; seed = 7 }

let test_hbp_generation_deterministic () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "vida_hbp_test" in
  let paths = Vida_workload.Hbp_data.generate small_config ~dir in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let first = read paths.Vida_workload.Hbp_data.patients in
  (* regenerate: must reuse/reproduce identical bytes *)
  let paths2 = Vida_workload.Hbp_data.generate small_config ~dir in
  check_bool "same path" true (paths.Vida_workload.Hbp_data.patients = paths2.Vida_workload.Hbp_data.patients);
  check_bool "identical bytes" true (String.equal first (read paths2.Vida_workload.Hbp_data.patients))

let test_hbp_files_queryable () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "vida_hbp_test" in
  let paths = Vida_workload.Hbp_data.generate small_config ~dir in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:paths.Vida_workload.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:paths.Vida_workload.Hbp_data.genetics ();
  Vida.json db ~name:"BrainRegions" ~path:paths.Vida_workload.Hbp_data.regions ();
  check_value "patients count" (Value.Int 60)
    (Vida.query_value db "for { p <- Patients } yield count p");
  check_value "genetics count" (Value.Int 80)
    (Vida.query_value db "for { g <- Genetics } yield count g");
  check_value "regions count" (Value.Int 40)
    (Vida.query_value db "for { b <- BrainRegions } yield count b");
  (* ids link across the three datasets *)
  let joined =
    Vida.query_value db
      "for { p <- Patients, g <- Genetics, b <- BrainRegions, p.id = g.id, g.id = b.id } yield count p"
  in
  check_bool "three-way join non-empty" true (Value.to_int joined > 0)

let test_table2_shape () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "vida_hbp_test" in
  let paths = Vida_workload.Hbp_data.generate small_config ~dir in
  match Vida_workload.Hbp_data.table2 small_config paths with
  | [ p; g; b ] ->
    check_bool "names" true
      (p.Vida_workload.Hbp_data.name = "Patients"
      && g.Vida_workload.Hbp_data.name = "Genetics"
      && b.Vida_workload.Hbp_data.name = "BrainRegions");
    check_bool "positive sizes" true
      (p.Vida_workload.Hbp_data.bytes > 0 && g.Vida_workload.Hbp_data.bytes > 0
     && b.Vida_workload.Hbp_data.bytes > 0)
  | _ -> Alcotest.fail "expected three rows"

let test_workload_properties () =
  let qs = Vida_workload.Hbp_queries.workload ~n:150 small_config in
  check_int "150 queries" 150 (List.length qs);
  let hot = Vida_workload.Hbp_queries.hot_fraction qs in
  check_bool (Printf.sprintf "hot fraction ~0.8 (%.2f)" hot) true (hot > 0.7 && hot < 0.9);
  let epi =
    List.length
      (List.filter (fun q -> q.Vida_workload.Hbp_queries.kind = Vida_workload.Hbp_queries.Epidemiological) qs)
  in
  check_bool "both phases present" true (epi > 30 && epi < 120);
  (* deterministic *)
  let qs2 = Vida_workload.Hbp_queries.workload ~n:150 small_config in
  check_bool "deterministic" true
    (List.for_all2
       (fun a b -> a.Vida_workload.Hbp_queries.text = b.Vida_workload.Hbp_queries.text)
       qs qs2)

let test_workload_queries_all_run () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "vida_hbp_test" in
  let paths = Vida_workload.Hbp_data.generate small_config ~dir in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:paths.Vida_workload.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:paths.Vida_workload.Hbp_data.genetics ();
  Vida.json db ~name:"BrainRegions" ~path:paths.Vida_workload.Hbp_data.regions ();
  let qs = Vida_workload.Hbp_queries.workload ~n:30 small_config in
  List.iter
    (fun q ->
      match Vida.query db q.Vida_workload.Hbp_queries.text with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "query %d failed: %s\n%s" q.Vida_workload.Hbp_queries.id
          (Vida.error_to_string e) q.Vida_workload.Hbp_queries.text)
    qs

let test_bank_generation () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "vida_bank_test" in
  let paths = Vida_workload.Bank_data.generate { trades = 50; seed = 3 } ~dir in
  let db = Vida.create () in
  Vida.csv db ~name:"Trades" ~path:paths.Vida_workload.Bank_data.trades ();
  Vida.json db ~name:"Risk" ~path:paths.Vida_workload.Bank_data.risk ();
  Vida.csv db ~name:"Settlements" ~path:paths.Vida_workload.Bank_data.settlements ();
  check_value "trades" (Value.Int 50) (Vida.query_value db "for { t <- Trades } yield count t");
  let v =
    Vida.query_value db
      "for { t <- Trades, r <- Risk, s <- Settlements, t.trade_id = r.trade_id, t.trade_id = s.trade_id, s.status = \"failed\" } yield max r.var_99"
  in
  check_bool "cross-domain join runs" true (v = Value.Null || Value.to_float v >= 0.)

let () =
  Alcotest.run "vida_core"
    [ ( "facade",
        [ Alcotest.test_case "comprehension" `Quick test_query_comprehension;
          Alcotest.test_case "sql" `Quick test_query_sql;
          Alcotest.test_case "engines agree" `Quick test_both_engines_agree;
          Alcotest.test_case "generic foil converts whole rows" `Quick
            test_generic_foil_converts_whole_rows;
          Alcotest.test_case "errors" `Quick test_error_paths;
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "stats/cache" `Quick test_stats_and_cache_tracking;
          Alcotest.test_case "warm repeat reads nothing" `Quick test_warm_repeat_reads_nothing;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "explain sql" `Quick test_explain_sql;
          Alcotest.test_case "stale transparent" `Quick test_staleness_transparent;
          Alcotest.test_case "no-optimize" `Quick test_no_optimize_flag;
          Alcotest.test_case "tsv + crlf" `Quick test_tsv_and_crlf;
          Alcotest.test_case "eviction pressure" `Quick test_eviction_under_pressure
        ] );
      ( "workload",
        [ Alcotest.test_case "hbp deterministic" `Quick test_hbp_generation_deterministic;
          Alcotest.test_case "hbp queryable" `Quick test_hbp_files_queryable;
          Alcotest.test_case "table2" `Quick test_table2_shape;
          Alcotest.test_case "workload properties" `Quick test_workload_properties;
          Alcotest.test_case "workload runs" `Quick test_workload_queries_all_run;
          Alcotest.test_case "bank scenario" `Quick test_bank_generation
        ] )
    ]
