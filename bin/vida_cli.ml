(* vida: query raw heterogeneous files from the command line.

   Example:
     vida_cli --csv Patients=patients.csv --json Regions=regions.jsonl \
       'for { p <- Patients, r <- Regions, p.id = r.id } yield count p'
*)

open Cmdliner

let split_binding kind s =
  match String.index_opt s '=' with
  | Some i when i > 0 ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> Error (Printf.sprintf "--%s expects NAME=PATH, got %S" kind s)

let register db kind bindings =
  List.iter
    (fun spec ->
      match split_binding kind spec with
      | Error msg -> prerr_endline msg; exit 2
      | Ok (name, path) -> (
        try
          match kind with
          | "csv" -> Vida.csv db ~name ~path ()
          | "json" -> Vida.json db ~name ~path ()
          | _ -> Vida.binarray db ~name ~path
        with Sys_error msg ->
          Printf.eprintf "cannot register %s: %s\n" name msg;
          exit 2))
    bindings

(* Distinct exit codes per failure class (sysexits-style), so scripts can
   react to e.g. truncation differently from a stale sidecar. Structured
   data errors print their source and byte offset. *)
let error_exit_code = function
  | Vida.Parse_error _ | Vida.Type_error _ -> 2
  | Vida.Engine_error _ -> 1
  | Vida.Data_error e -> Vida_error.exit_code e

let print_error e =
  (match e with
  | Vida.Data_error de ->
    Printf.eprintf "data error [%s]: %s\n" (Vida_error.kind_name de)
      (Vida_error.to_string de)
  | e -> prerr_endline (Vida.error_to_string e))

(* human-readable form of an encoded epoch fingerprint *)
let epoch_to_string encoded =
  match Vida_raw.Fingerprint.decode encoded ~pos:0 with
  | Some fp -> Vida_raw.Fingerprint.to_string fp
  | None -> "<unreadable fingerprint>"

let execute ?record_epochs db ~use_sql ~engine ~show_stats ~output_json query =
  let result = if use_sql then Vida.sql ~engine db query else Vida.query ~engine db query in
  match result with
  | Error e -> print_error e; error_exit_code e
  | Ok r ->
    (match record_epochs with
    | Some cell -> cell := r.Vida.epochs
    | None -> ());
    if output_json then print_endline (Vida_data.Value.to_json r.Vida.value)
    else Format.printf "%a@." Vida_data.Value.pp r.Vida.value;
    if show_stats then (
      Printf.eprintf "compile: %.2f ms, execute: %.2f ms, %s\n" r.Vida.compile_ms
        r.Vida.exec_ms
        (if r.Vida.from_result_cache then "result re-used"
         else if r.Vida.served_from_cache then "served from cache"
         else "raw access");
      Format.eprintf "raw io: %a@." Vida_raw.Io_stats.pp r.Vida.raw_io;
      Format.eprintf "governor: %a@." Vida_governor.Governor.pp_report
        r.Vida.governor;
      List.iter
        (fun (name, encoded) ->
          Printf.eprintf "epoch: %s %s\n" name (epoch_to_string encoded))
        r.Vida.epochs);
    0

(* [retry] / [retry=N] / [fail] — the reaction to a pinned source file
   changing under a running query. *)
let parse_on_change s =
  match String.lowercase_ascii (String.trim s) with
  | "fail" -> Some Vida_governor.Governor.Fail_fast
  | "retry" -> Some (Vida_governor.Governor.Retry_fresh 2)
  | s ->
    let pfx = "retry=" in
    let n = String.length pfx in
    if String.length s > n && String.sub s 0 n = pfx then
      match int_of_string_opt (String.sub s n (String.length s - n)) with
      | Some k when k >= 0 -> Some (Vida_governor.Governor.Retry_fresh k)
      | _ -> None
    else None

(* Interactive session: queries plus dot-commands, one per line. *)
let repl db ~engine ~output_json =
  let last_epochs = ref [] in
  let help () =
    print_string
      "enter a comprehension query, or:\n\
      \  .sql SELECT ...      run a SQL query\n\
      \  .explain QUERY       show plans and cost estimates\n\
      \  .sources             list registered sources\n\
      \  .csv NAME=PATH       register a CSV file (.json/.xml/.binarray likewise)\n\
      \  .stats               session statistics\n\
      \  .clean NAME=MODE     set cleaning policy (strict|null|skip|nearest|quarantine)\n\
      \  .quarantine NAME     show raw spans quarantined for a source\n\
      \  .quarantine clean    remove *.corrupt files from the state directory\n\
      \  .state               durable state-directory report (--state-dir)\n\
      \  .timeout MS          per-query wall-clock deadline in ms (0 = off)\n\
      \  .limit BYTES         per-query memory budget in bytes (0 = off)\n\
      \  .on-change MODE      reaction to a source file changing mid-query:\n\
      \                       retry[=N] (re-pin a fresh epoch, default N=2) | fail\n\
      \  .epochs              pinned source generations of the last query\n\
      \  .domains N           worker-domain budget for parallel scans (1 = sequential)\n\
      \  .batch N             vectorized batch stride in rows (default 4096)\n\
      \  .vector on|off       enable/disable the vectorized engine rung\n\
      \  .analyze QUERY       verify + lint the plan without executing it\n\
      \  .verify MODE         plan-verifier mode (off|warn|strict)\n\
      \  .sync [MODE]         concurrency-sanitizer report; MODE sets off|warn|strict\n\
      \  .checkpoint          persist positional maps next to their files\n\
      \  .help                this message\n\
      \  .quit                leave\n"
  in
  let show_sources () =
    List.iter
      (fun name ->
        match Vida.describe db name with
        | Some s -> Format.printf "  %a@." Vida_catalog.Source.pp s
        | None -> ())
      (Vida.sources db)
  in
  let show_session_stats () =
    let s = Vida.stats db in
    Format.printf
      "  %d queries, %d from caches (%d whole results re-used, %d stale results dropped)@.  cache: %a@.  io: %a@."
      s.Vida.queries_run s.Vida.queries_from_cache s.Vida.result_reuse_hits
      s.Vida.result_stale_drops
      Vida_storage.Cache.pp_stats s.Vida.cache Vida_raw.Io_stats.pp s.Vida.io
  in
  let show_quarantine name =
    match Vida.quarantine_report db ~source:name with
    | [] -> Printf.printf "no quarantined records for %s\n" name
    | entries ->
      List.iter
        (fun q ->
          Printf.printf "  %s @ byte %d (+%d): %s\n"
            q.Vida_cleaning.Policy.q_source q.Vida_cleaning.Policy.q_offset
            q.Vida_cleaning.Policy.q_length q.Vida_cleaning.Policy.q_reason)
        entries;
      Printf.printf "  %d record(s) quarantined\n" (List.length entries)
  in
  let show_state () =
    match Vida.state_report db with
    | None -> print_endline "no state directory (start with --state-dir DIR)"
    | Some sr ->
      Printf.printf
        "  dir: %s\n\
        \  degraded: %b%s\n\
        \  persists: %d (%d failure(s))\n\
        \  warm: %d artifact load(s), %d plan hit(s), %d structure \
         restore(s), %d rebuild(s)\n\
        \  corrupt quarantined: %d (%d gc'd)\n\
        \  lock reclaimed from stale holder: %b\n"
        sr.Vida.sr_dir sr.Vida.sr_degraded
        (match sr.Vida.sr_last_failure with
        | Some f -> " — " ^ f
        | None -> "")
        sr.Vida.sr_persists sr.Vida.sr_persist_failures sr.Vida.sr_warm_loads
        sr.Vida.sr_plan_warm_hits sr.Vida.sr_structure_restores
        sr.Vida.sr_structure_rebuilds sr.Vida.sr_corrupt_quarantined
        sr.Vida.sr_quarantine_removed sr.Vida.sr_lock_reclaimed
  in
  let register_line kind rest =
    match String.index_opt rest '=' with
    | Some i when i > 0 -> (
      let name = String.sub rest 0 i
      and path = String.sub rest (i + 1) (String.length rest - i - 1) in
      try
        (match kind with
        | `Csv -> Vida.csv db ~name ~path ()
        | `Json -> Vida.json db ~name ~path ()
        | `Xml -> Vida.xml db ~name ~path ()
        | `Bin -> Vida.binarray db ~name ~path);
        Format.printf "registered %s@." name
      with
      | Sys_error msg | Invalid_argument msg -> Printf.printf "error: %s\n" msg
      | Vida_error.Error e ->
        Printf.printf "data error [%s]: %s\n" (Vida_error.kind_name e)
          (Vida_error.to_string e))
    | _ -> print_endline "expected NAME=PATH"
  in
  let set_timeout rest =
    match float_of_string_opt (String.trim rest) with
    | Some ms ->
      let deadline_ms = if ms <= 0. then None else Some ms in
      Vida.set_limits db { (Vida.limits db) with Vida_governor.Governor.deadline_ms };
      (match deadline_ms with
      | Some ms -> Printf.printf "per-query deadline set to %.0f ms\n" ms
      | None -> print_endline "per-query deadline disabled")
    | None -> print_endline "expected a number of milliseconds"
  in
  let set_limit rest =
    match int_of_string_opt (String.trim rest) with
    | Some bytes ->
      let memory_budget = if bytes <= 0 then None else Some bytes in
      Vida.set_limits db { (Vida.limits db) with Vida_governor.Governor.memory_budget };
      (match memory_budget with
      | Some b -> Printf.printf "per-query memory budget set to %d bytes\n" b
      | None -> print_endline "per-query memory budget disabled")
    | None -> print_endline "expected a number of bytes"
  in
  let set_on_change rest =
    match parse_on_change rest with
    | Some policy ->
      Vida.set_limits db
        { (Vida.limits db) with Vida_governor.Governor.on_change = policy };
      (match policy with
      | Vida_governor.Governor.Fail_fast ->
        print_endline "mid-query source changes fail the query (exit code 76)"
      | Vida_governor.Governor.Retry_fresh n ->
        Printf.printf
          "mid-query source changes re-pin a fresh epoch and retry up to %d time(s)\n"
          n)
    | None -> print_endline "expected retry, retry=N or fail"
  in
  let show_epochs () =
    match !last_epochs with
    | [] -> print_endline "no epochs pinned yet (run a query over file sources)"
    | epochs ->
      List.iter
        (fun (name, encoded) ->
          Printf.printf "  %s %s\n" name (epoch_to_string encoded))
        epochs
  in
  let set_domains rest =
    match int_of_string_opt (String.trim rest) with
    | Some d when d >= 1 ->
      Vida.set_domains db d;
      Printf.printf "domain budget set to %d\n" (Vida.domains db)
    | _ -> print_endline "expected a positive domain count"
  in
  let set_batch rest =
    match int_of_string_opt (String.trim rest) with
    | Some n when n >= 1 ->
      Vida.set_batch_rows n;
      Printf.printf "vectorized batch stride set to %d rows\n" (Vida.batch_rows ())
    | _ -> print_endline "expected a positive row count"
  in
  let set_vector rest =
    match String.lowercase_ascii (String.trim rest) with
    | "on" | "1" | "true" ->
      Vida.set_vectorized true;
      print_endline "vectorized engine enabled"
    | "off" | "0" | "false" ->
      Vida.set_vectorized false;
      print_endline "vectorized engine disabled (closure engine serves all queries)"
    | _ -> print_endline "expected on or off"
  in
  let set_clean rest =
    match String.index_opt rest '=' with
    | Some i when i > 0 -> (
      let name = String.sub rest 0 i
      and mode = String.sub rest (i + 1) (String.length rest - i - 1) in
      let on_error =
        match String.lowercase_ascii (String.trim mode) with
        | "strict" -> Some Vida_cleaning.Policy.Strict
        | "null" -> Some Vida_cleaning.Policy.Null_value
        | "skip" -> Some Vida_cleaning.Policy.Skip_row
        | "nearest" -> Some Vida_cleaning.Policy.Nearest
        | "quarantine" -> Some Vida_cleaning.Policy.Quarantine
        | _ -> None
      in
      match on_error with
      | Some on_error ->
        Vida.set_cleaning db ~source:name (Vida_cleaning.Policy.make ~on_error ());
        Format.printf "cleaning policy for %s set@." name
      | None -> print_endline "expected MODE in strict|null|skip|nearest|quarantine")
    | _ -> print_endline "expected NAME=MODE"
  in
  print_endline "ViDa interactive session — .help for commands";
  let rec loop () =
    print_string "vida> ";
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let line = String.trim line in
      (if line = "" then ()
       else if line = ".quit" || line = ".exit" then raise Exit
       else if line = ".help" then help ()
       else if line = ".sources" then show_sources ()
       else if line = ".stats" then show_session_stats ()
       else if line = ".checkpoint" then
         Printf.printf "wrote %d sidecar(s)\n" (Vida.checkpoint db)
       else if line = ".epochs" then show_epochs ()
       else if String.length line > 11 && String.sub line 0 11 = ".on-change " then
         set_on_change (String.sub line 11 (String.length line - 11))
       else if String.length line > 7 && String.sub line 0 7 = ".clean " then
         set_clean (String.trim (String.sub line 7 (String.length line - 7)))
       else if String.length line > 12 && String.sub line 0 12 = ".quarantine " then (
         match String.trim (String.sub line 12 (String.length line - 12)) with
         | "clean" ->
           if Vida.state_dir db = None then
             print_endline "no state directory (start with --state-dir DIR)"
           else
             Printf.printf "removed %d quarantined file(s)\n"
               (Vida.clean_quarantine db)
         | name -> show_quarantine name)
       else if line = ".state" then show_state ()
       else if String.length line > 9 && String.sub line 0 9 = ".timeout " then
         set_timeout (String.sub line 9 (String.length line - 9))
       else if String.length line > 7 && String.sub line 0 7 = ".limit " then
         set_limit (String.sub line 7 (String.length line - 7))
       else if String.length line > 9 && String.sub line 0 9 = ".domains " then
         set_domains (String.sub line 9 (String.length line - 9))
       else if String.length line > 7 && String.sub line 0 7 = ".batch " then
         set_batch (String.sub line 7 (String.length line - 7))
       else if String.length line > 8 && String.sub line 0 8 = ".vector " then
         set_vector (String.sub line 8 (String.length line - 8))
       else if String.length line > 5 && String.sub line 0 5 = ".csv " then
         register_line `Csv (String.trim (String.sub line 5 (String.length line - 5)))
       else if String.length line > 6 && String.sub line 0 6 = ".json " then
         register_line `Json (String.trim (String.sub line 6 (String.length line - 6)))
       else if String.length line > 5 && String.sub line 0 5 = ".xml " then
         register_line `Xml (String.trim (String.sub line 5 (String.length line - 5)))
       else if String.length line > 10 && String.sub line 0 10 = ".binarray " then
         register_line `Bin (String.trim (String.sub line 10 (String.length line - 10)))
       else if String.length line > 9 && String.sub line 0 9 = ".explain " then (
         match Vida.explain db (String.sub line 9 (String.length line - 9)) with
         | Ok text -> print_string text
         | Error e -> prerr_endline (Vida.error_to_string e))
       else if String.length line > 9 && String.sub line 0 9 = ".analyze " then (
         match Vida.analyze db (String.sub line 9 (String.length line - 9)) with
         | Ok a -> print_string (Vida.analysis_report a)
         | Error e -> prerr_endline (Vida.error_to_string e))
       else if String.length line > 8 && String.sub line 0 8 = ".verify " then (
         match
           String.lowercase_ascii
             (String.trim (String.sub line 8 (String.length line - 8)))
         with
         | "off" -> Vida.set_verify db Vida.Off; print_endline "plan verification off"
         | "warn" ->
           Vida.set_verify db Vida.Warn;
           print_endline "plan verification: warn (violations logged)"
         | "strict" ->
           Vida.set_verify db Vida.Strict;
           print_endline "plan verification: strict (violations abort queries)"
         | _ -> print_endline "expected off|warn|strict")
       else if line = ".sync" then print_string (Vida_sync.report ())
       else if String.length line > 6 && String.sub line 0 6 = ".sync " then (
         match
           String.lowercase_ascii
             (String.trim (String.sub line 6 (String.length line - 6)))
         with
         | "off" -> Vida_sync.set_mode Vida_sync.Off; print_endline "sync sanitizer off"
         | "warn" ->
           Vida_sync.set_mode Vida_sync.Warn;
           print_endline "sync sanitizer: warn (findings recorded)"
         | "strict" ->
           Vida_sync.set_mode Vida_sync.Strict;
           print_endline "sync sanitizer: strict (violations raise, exit code 79)"
         | _ -> print_endline "expected off|warn|strict")
       else if String.length line > 5 && String.sub line 0 5 = ".sql " then
         ignore
           (execute ~record_epochs:last_epochs db ~use_sql:true ~engine
              ~show_stats:false ~output_json
              (String.sub line 5 (String.length line - 5)))
       else
         ignore
           (execute ~record_epochs:last_epochs db ~use_sql:false ~engine
              ~show_stats:false ~output_json line));
      loop ()
  in
  (try loop () with Exit -> ());
  0

(* --lint: static analysis instead of execution. Exit code 3 when the
   verifier rejects a plan or any lint of severity error fires — CI jobs
   gate on it. *)
let lint_one db ~label text =
  match Vida.analyze db text with
  | Error e ->
    Printf.printf "%s: analysis failed: %s\n" label (Vida.error_to_string e);
    3
  | Ok a ->
    let broken =
      a.Vida.verify_error <> None
      || Vida_analysis.Lint.max_severity a.Vida.findings
         = Some Vida_analysis.Lint.Error
    in
    if a.Vida.verify_error = None && a.Vida.findings = [] then (
      Printf.printf "%s: ok\n" label;
      0)
    else begin
      Printf.printf "%s:\n" label;
      (match a.Vida.verify_error with
      | Some e -> Printf.printf "  verifier: %s\n" (Vida_error.to_string e)
      | None -> ());
      List.iter
        (fun f ->
          Printf.printf "  %s\n"
            (Format.asprintf "%a" Vida_analysis.Lint.pp_finding f))
        a.Vida.findings;
      if broken then 3 else 0
    end

let lint_many db items =
  let code =
    List.fold_left (fun acc (label, text) -> max acc (lint_one db ~label text)) 0 items
  in
  Printf.printf "%d queries linted\n" (List.length items);
  code

let lint_workload_run db which =
  let tmp = Filename.get_temp_dir_name () in
  match which with
  | "hbp" ->
    let config =
      { Vida_workload.Hbp_data.patients_rows = 120; patients_attrs = 24;
        genetics_rows = 150; genetics_attrs = 30; regions_objects = 80;
        regions_per_object = 4; seed = 7 }
    in
    let paths =
      Vida_workload.Hbp_data.generate config ~dir:(Filename.concat tmp "vida_lint_hbp")
    in
    Vida.csv db ~name:"Patients" ~path:paths.Vida_workload.Hbp_data.patients ();
    Vida.csv db ~name:"Genetics" ~path:paths.Vida_workload.Hbp_data.genetics ();
    Vida.json db ~name:"BrainRegions" ~path:paths.Vida_workload.Hbp_data.regions ();
    let qs = Vida_workload.Hbp_queries.workload ~n:60 config in
    lint_many db
      (List.map
         (fun q ->
           ( Printf.sprintf "hbp q%d" q.Vida_workload.Hbp_queries.id,
             q.Vida_workload.Hbp_queries.text ))
         qs)
  | "bank" ->
    let paths =
      Vida_workload.Bank_data.generate { trades = 50; seed = 3 }
        ~dir:(Filename.concat tmp "vida_lint_bank")
    in
    Vida.csv db ~name:"Trades" ~path:paths.Vida_workload.Bank_data.trades ();
    Vida.json db ~name:"Risk" ~path:paths.Vida_workload.Bank_data.risk ();
    Vida.csv db ~name:"Settlements" ~path:paths.Vida_workload.Bank_data.settlements ();
    lint_many db
      [ ("bank count", "for { t <- Trades } yield count t");
        ( "bank cross-domain join",
          "for { t <- Trades, r <- Risk, s <- Settlements, t.trade_id = \
           r.trade_id, t.trade_id = s.trade_id, s.status = \"failed\" } yield \
           max r.var_99" );
        ( "bank notional by desk",
          "for { t <- Trades, t.notional > 1000000.0 } yield sum t.notional" );
        ( "bank risk scan",
          "for { r <- Risk, r.var_99 > 0.0 } yield count r" ) ]
  | other ->
    Printf.eprintf "--lint-workload expects hbp|bank, got %S\n" other;
    2

(* opening a state directory can fail for operational reasons (a live
   holder's lock, an unwritable disk): surface the typed error and its
   exit code (80 for state failures) instead of a backtrace *)
let create_db ?domains ~limits ?state_dir () =
  try Vida.create ?domains ~limits ?state_dir ()
  with Vida_error.Error e ->
    Printf.eprintf "vida: %s\n" (Vida_error.to_string e);
    exit (Vida_error.exit_code e)

(* flush warm state on the way out; persistence failures only flip the
   degraded flag, they never turn a successful run into a failure *)
let shutdown_state db =
  if Vida.state_dir db <> None then ignore (Vida.persist_state db);
  Vida.close_state db

let run csvs jsons xmls binarrays use_sql explain lint lint_workload engine
    show_stats output_json timeout_ms memory_budget domains on_change
    state_dir interactive query =
  let on_change =
    match on_change with
    | None -> Vida_governor.Governor.unlimited.Vida_governor.Governor.on_change
    | Some spec -> (
      match parse_on_change spec with
      | Some policy -> policy
      | None ->
        Printf.eprintf "--on-change expects retry, retry=N or fail, got %S\n" spec;
        exit 2)
  in
  let limits =
    { Vida_governor.Governor.unlimited with
      Vida_governor.Governor.deadline_ms =
        (match timeout_ms with Some ms when ms > 0. -> Some ms | _ -> None);
      memory_budget =
        (match memory_budget with Some b when b > 0 -> Some b | _ -> None);
      on_change }
  in
  let db = create_db ?domains ~limits ?state_dir () in
  register db "csv" csvs;
  register db "json" jsons;
  List.iter
    (fun spec ->
      match split_binding "xml" spec with
      | Error msg -> prerr_endline msg; exit 2
      | Ok (name, path) -> Vida.xml db ~name ~path ())
    xmls;
  register db "binarray" binarrays;
  let engine = if engine = "generic" then Vida.Generic else Vida.Jit in
  let code =
    match lint_workload with
    | Some which -> lint_workload_run db which
    | None -> (
      match query, interactive with
      | Some query, false when lint ->
        let analyze = if use_sql then Vida.analyze_sql else Vida.analyze in
        (match analyze db query with
        | Error e -> print_error e; error_exit_code e
        | Ok a ->
          print_string (Vida.analysis_report a);
          if
            a.Vida.verify_error <> None
            || Vida_analysis.Lint.max_severity a.Vida.findings
               = Some Vida_analysis.Lint.Error
          then 3
          else 0)
      | None, false when lint ->
        prerr_endline "--lint needs a query (or --lint-workload hbp|bank)";
        2
      | None, _ | _, true -> repl db ~engine ~output_json
      | Some query, false ->
        if explain then (
          match Vida.explain db query with
          | Ok text -> print_string text; 0
          | Error e -> print_error e; error_exit_code e)
        else execute db ~use_sql ~engine ~show_stats ~output_json query)
  in
  shutdown_state db;
  code

let csv_arg =
  Arg.(value & opt_all string [] & info [ "csv" ] ~docv:"NAME=PATH" ~doc:"Register a CSV file as source $(docv).")

let json_arg =
  Arg.(value & opt_all string [] & info [ "json" ] ~docv:"NAME=PATH" ~doc:"Register a JSON-lines file.")

let binarray_arg =
  Arg.(value & opt_all string [] & info [ "binarray" ] ~docv:"NAME=PATH" ~doc:"Register a binary array file.")

let sql_arg = Arg.(value & flag & info [ "sql" ] ~doc:"Interpret the query as SQL.")
let explain_arg = Arg.(value & flag & info [ "explain" ] ~doc:"Show plans and costs instead of executing.")

let lint_arg =
  Arg.(value & flag & info [ "lint" ]
       ~doc:"Statically analyze the query instead of executing it: run the plan verifier and linter and print the optimized plan with their findings. Exit code 3 when the verifier rejects the plan or a lint of severity error fires.")

let lint_workload_arg =
  Arg.(value & opt (some string) None & info [ "lint-workload" ] ~docv:"hbp|bank"
       ~doc:"Generate the named synthetic workload (tiny scale) and lint every query in it; exit code 3 on any verifier rejection or error-severity lint.")

let engine_arg =
  Arg.(value & opt string "jit" & info [ "engine" ] ~docv:"jit|generic" ~doc:"Executor to use.")

let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print timing, raw-I/O and resource-governor statistics to stderr.")

let timeout_arg =
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS"
       ~doc:"Per-query wall-clock deadline in milliseconds; a query past it fails with a structured deadline error (exit code 71).")

let budget_arg =
  Arg.(value & opt (some int) None & info [ "memory-budget" ] ~docv:"BYTES"
       ~doc:"Per-query memory budget in bytes for materialized state and cache admissions; exceeding it fails with a structured budget error (exit code 72).")
let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
       ~doc:"Worker-domain budget for parallel query regions, clamped to the hardware core count; the VIDA_DOMAINS environment variable overrides it. Default: the hardware count (1 = sequential).")

let state_dir_arg =
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
       ~doc:"Durable state directory: positional-map sidecars, spilled query plans, circuit-breaker state and quarantine ledgers are persisted crash-safely under $(docv) and revalidated on restart, so a restarted process boots warm. Exit code 80 if a live process already holds the directory. A full disk suspends persistence (degraded mode, visible in the health report) without affecting query answers.")

let on_change_arg =
  Arg.(value & opt (some string) None & info [ "on-change" ] ~docv:"retry|fail"
       ~doc:"Reaction to a source file changing under a running query (detected by the query's pinned epoch): $(b,retry) re-pins a fresh epoch and re-runs up to 2 times ($(b,retry=N) for another bound); $(b,fail) surfaces the structured change error (exit code 76). Default: retry.")

let json_out_arg = Arg.(value & flag & info [ "output-json" ] ~doc:"Print the result as JSON.")

let xml_arg =
  Arg.(value & opt_all string [] & info [ "xml" ] ~docv:"NAME=PATH" ~doc:"Register an XML document.")

let interactive_arg =
  Arg.(value & flag & info [ "i"; "interactive" ] ~doc:"Start an interactive session (default when no query is given).")

let query_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Comprehension (or SQL with $(b,--sql)) query; omit for an interactive session.")


(* --- serving mode ---------------------------------------------------- *)

module Server = Vida_server.Server

let parse_endpoint spec =
  match String.rindex_opt spec ':' with
  | Some i ->
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    (match int_of_string_opt port with
    | Some port -> Some ((if host = "" then "127.0.0.1" else host), port)
    | None -> None)
  | None -> (
    match int_of_string_opt spec with
    | Some port -> Some ("127.0.0.1", port)
    | None -> None)

let register_all db csvs jsons xmls binarrays =
  register db "csv" csvs;
  register db "json" jsons;
  List.iter
    (fun spec ->
      match split_binding "xml" spec with
      | Error msg -> prerr_endline msg; exit 2
      | Ok (name, path) -> Vida.xml db ~name ~path ())
    xmls;
  register db "binarray" binarrays

let serve csvs jsons xmls binarrays listen socket max_concurrent max_queue
    per_tenant queue_timeout_ms retry_after_ms executors pool_domains
    idle_timeout_ms frame_timeout_ms write_timeout_ms drain_ms
    breaker_threshold breaker_cooldown_ms timeout_ms memory_budget domains
    on_change state_dir =
  let on_change =
    match on_change with
    | None -> Vida_governor.Governor.unlimited.Vida_governor.Governor.on_change
    | Some spec -> (
      match parse_on_change spec with
      | Some policy -> policy
      | None ->
        Printf.eprintf "--on-change expects retry, retry=N or fail, got %S\n" spec;
        exit 2)
  in
  let limits =
    { Vida_governor.Governor.unlimited with
      Vida_governor.Governor.deadline_ms =
        (match timeout_ms with Some ms when ms > 0. -> Some ms | _ -> None);
      memory_budget =
        (match memory_budget with Some b when b > 0 -> Some b | _ -> None);
      on_change }
  in
  let db = create_db ?domains ~limits ?state_dir () in
  register_all db csvs jsons xmls binarrays;
  let address =
    match (socket, listen) with
    | Some path, _ -> Server.Unix_socket path
    | None, Some spec -> (
      match parse_endpoint spec with
      | Some (host, port) -> Server.Tcp { host; port }
      | None ->
        Printf.eprintf "--listen expects HOST:PORT or PORT, got %S\n" spec;
        exit 2)
    | None, None -> Server.Tcp { host = "127.0.0.1"; port = 0 }
  in
  let admission =
    { Vida_governor.Governor.Admission.default_config with
      Vida_governor.Governor.Admission.max_concurrent; max_queue; per_tenant;
      queue_timeout_ms; retry_after_ms }
  in
  Vida_governor.Governor.Breaker.set_config
    { Vida_governor.Governor.Breaker.failure_threshold = breaker_threshold;
      cooldown_ms = breaker_cooldown_ms };
  (* a 0 budget means "disabled"; an absent flag keeps the default *)
  let opt_ms ~default = function
    | Some ms when ms > 0. -> Some ms
    | Some _ -> None
    | None -> default
  in
  let config =
    { Server.default_config with
      Server.address; admission; executors; pool_domains;
      idle_timeout_ms = opt_ms ~default:None idle_timeout_ms;
      frame_timeout_ms =
        opt_ms ~default:Server.default_config.Server.frame_timeout_ms
          frame_timeout_ms;
      write_timeout_ms =
        opt_ms ~default:Server.default_config.Server.write_timeout_ms
          write_timeout_ms;
      drain_ms }
  in
  let srv = try Server.create ~config db with
    | Unix.Unix_error (err, _, _) ->
      Printf.eprintf "cannot listen: %s\n" (Unix.error_message err);
      exit 2
  in
  (match Server.address srv with
  | Server.Tcp { host; port } ->
    Printf.printf "vida: serving on %s:%d\n%!" host port
  | Server.Unix_socket path -> Printf.printf "vida: serving on %s\n%!" path);
  let quit = Atomic.make false in
  let request_quit _ = Atomic.set quit true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_quit);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_quit);
  while not (Atomic.get quit) do
    Thread.delay 0.1
  done;
  prerr_endline "vida: shutting down";
  Server.stop srv;
  shutdown_state db;
  0

let client connect socket use_sql tenant retries backoff_ms deadline_ms seed
    op query =
  let address =
    match (socket, connect) with
    | Some path, _ -> Server.Unix_socket path
    | None, Some spec -> (
      match parse_endpoint spec with
      | Some (host, port) -> Server.Tcp { host; port }
      | None ->
        Printf.eprintf "--connect expects HOST:PORT or PORT, got %S\n" spec;
        exit 2)
    | None, None ->
      prerr_endline "vida client needs --connect HOST:PORT or --socket PATH";
      exit 2
  in
  match op with
  | Some ("ping" | "health") -> (
    let c =
      try Server.Client.connect address
      with Unix.Unix_error (err, _, _) ->
        Printf.eprintf "cannot connect: %s\n" (Unix.error_message err);
        exit 2
    in
    Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
        match op with
        | Some "ping" ->
          if Server.Client.ping c then (print_endline "pong"; 0)
          else (prerr_endline "no pong"; 1)
        | _ ->
          print_endline (Vida_data.Value.to_json (Server.Client.health c));
          0))
  | Some other ->
    Printf.eprintf "--op expects ping or health, got %S\n" other;
    2
  | None ->
  let query =
    match query with
    | Some q -> q
    | None ->
      prerr_endline "vida client needs a QUERY (or --op ping|health)";
      exit 2
  in
  (* the self-healing path: reconnect-and-resubmit on transport failures,
     backoff (honoring the server's retry_after_ms hint) on typed sheds,
     the whole sequence bounded by --deadline-ms *)
  let retry =
    { Server.Client.default_retry with
      Server.Client.max_attempts = max 1 retries;
      base_backoff_ms = backoff_ms;
      deadline_ms =
        (match deadline_ms with Some ms when ms > 0. -> Some ms | _ -> None);
      seed }
  in
  let rc = Server.Client.connect_resilient ~retry address in
  let syntax = if use_sql then `Sql else `Comp in
  let reply =
    match Server.Client.rquery ?tenant ~syntax rc query with
    | reply -> reply
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "cannot connect: %s\n" (Unix.error_message err);
      exit 2
    | exception Vida_error.Error e ->
      Printf.eprintf "data error [%s]: %s\n" (Vida_error.kind_name e)
        (Vida_error.to_string e);
      exit (Vida_error.exit_code e)
  in
  Server.Client.close_resilient rc;
  let fld name = Vida_data.Value.field_opt reply name in
  match fld "status" with
  | Some (Vida_data.Value.String "ok") ->
    (match fld "value" with
    | Some v -> print_endline (Vida_data.Value.to_json v)
    | None -> ());
    0
  | _ ->
    (match (fld "kind", fld "message") with
    | Some (Vida_data.Value.String kind), Some (Vida_data.Value.String msg) ->
      Printf.eprintf "error [%s]: %s\n" kind msg
    | _ -> Printf.eprintf "error: %s\n" (Vida_data.Value.to_json reply));
    (match fld "retry_after_ms" with
    | Some (Vida_data.Value.Float ms) ->
      Printf.eprintf "retry after %.0f ms\n" ms
    | _ -> ());
    (match fld "code" with Some (Vida_data.Value.Int c) -> c | _ -> 1)

let listen_arg =
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT"
       ~doc:"TCP endpoint to serve on (port 0 picks a free port; default 127.0.0.1:0).")

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
       ~doc:"Unix-domain socket to serve on (overrides --listen).")

let connect_arg =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT"
       ~doc:"TCP endpoint of a running $(b,vida serve).")

let max_concurrent_arg =
  Arg.(value & opt int 4 & info [ "max-concurrent" ] ~docv:"N"
       ~doc:"Queries running at once; further admits queue.")

let max_queue_arg =
  Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N"
       ~doc:"Admission queue depth; a query beyond it is shed with exit code 77 and a retry-after hint.")

let per_tenant_arg =
  Arg.(value & opt int 2 & info [ "per-tenant" ] ~docv:"N"
       ~doc:"Concurrent running queries per tenant.")

let queue_timeout_arg =
  Arg.(value & opt float 1000. & info [ "queue-timeout-ms" ] ~docv:"MS"
       ~doc:"Longest a query may wait for admission before being shed.")

let retry_after_arg =
  Arg.(value & opt float 250. & info [ "retry-after-ms" ] ~docv:"MS"
       ~doc:"Backoff hint carried by shed responses.")

let executors_arg =
  Arg.(value & opt (some int) None & info [ "executors" ] ~docv:"N"
       ~doc:"Executor domains running queries (default: --max-concurrent).")

let pool_domains_arg =
  Arg.(value & opt (some int) None & info [ "pool-domains" ] ~docv:"N"
       ~doc:"Shared morsel-pool sizing (default: resolved from the hardware and VIDA_DOMAINS at startup).")

let tenant_arg =
  Arg.(value & opt (some string) None & info [ "tenant" ] ~docv:"NAME"
       ~doc:"Tenant name for per-tenant admission accounting.")

let idle_timeout_arg =
  Arg.(value & opt (some float) None & info [ "idle-timeout-ms" ] ~docv:"MS"
       ~doc:"Reap a connection with no request for this long (0 or absent = never; heartbeat pings count as activity).")

let frame_timeout_arg =
  Arg.(value & opt (some float) None & info [ "frame-timeout-ms" ] ~docv:"MS"
       ~doc:"A request frame that started must arrive fully within this budget, or the connection is dropped (slowloris protection; 0 = unbounded; default 10000).")

let write_timeout_arg =
  Arg.(value & opt (some float) None & info [ "write-timeout-ms" ] ~docv:"MS"
       ~doc:"A reply must drain to the client within this budget, or the connection is dropped (0 = unbounded; default 10000).")

let drain_arg =
  Arg.(value & opt float 0. & info [ "drain-ms" ] ~docv:"MS"
       ~doc:"On shutdown, stop accepting and let running queries finish for up to $(docv) before cancelling them (0 = immediate).")

let breaker_threshold_arg =
  Arg.(value & opt int 5 & info [ "breaker-threshold" ] ~docv:"N"
       ~doc:"Consecutive IO/parse failures on one source that trip its circuit breaker; further queries over it are shed instantly with exit code 78 until a half-open probe succeeds.")

let breaker_cooldown_arg =
  Arg.(value & opt float 2000. & info [ "breaker-cooldown-ms" ] ~docv:"MS"
       ~doc:"How long an open breaker sheds before allowing one half-open probe query through.")

let retries_arg =
  Arg.(value & opt int 5 & info [ "retries" ] ~docv:"N"
       ~doc:"Total attempts per query: transport failures reconnect and resubmit under one request id; overloaded/unavailable refusals back off exponentially with jitter, honoring the server's retry-after hint.")

let backoff_arg =
  Arg.(value & opt float 50. & info [ "backoff-ms" ] ~docv:"MS"
       ~doc:"First retry backoff; doubles per retry, capped at 2 s.")

let client_deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
       ~doc:"Total budget across ALL attempts; the remaining budget rides each request so the server never works past it.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
       ~doc:"Jitter seed (reproducible retry schedules).")

let op_arg =
  Arg.(value & opt (some string) None & info [ "op" ] ~docv:"ping|health"
       ~doc:"Send a control frame instead of a query: $(b,ping) prints pong; $(b,health) prints the server's health report (gauges, counters, circuit-breaker states) as JSON.")

let client_query_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY"
       ~doc:"Comprehension (or SQL with $(b,--sql)) query to send (omit with $(b,--op)).")

let serve_cmd =
  let doc = "serve concurrent framed queries over TCP or a Unix socket" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ csv_arg $ json_arg $ xml_arg $ binarray_arg $ listen_arg
      $ socket_arg $ max_concurrent_arg $ max_queue_arg $ per_tenant_arg
      $ queue_timeout_arg $ retry_after_arg $ executors_arg $ pool_domains_arg
      $ idle_timeout_arg $ frame_timeout_arg $ write_timeout_arg $ drain_arg
      $ breaker_threshold_arg $ breaker_cooldown_arg
      $ timeout_arg $ budget_arg $ domains_arg $ on_change_arg $ state_dir_arg)

let client_cmd =
  let doc = "send one query to a running vida server" in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const client $ connect_arg $ socket_arg $ sql_arg $ tenant_arg
      $ retries_arg $ backoff_arg $ client_deadline_arg $ seed_arg $ op_arg
      $ client_query_arg)

let cmd =
  let doc = "just-in-time queries over raw heterogeneous files (ViDa)" in
  let default =
    Term.(
      const run $ csv_arg $ json_arg $ xml_arg $ binarray_arg $ sql_arg
      $ explain_arg $ lint_arg $ lint_workload_arg $ engine_arg $ stats_arg
      $ json_out_arg $ timeout_arg $ budget_arg $ domains_arg $ on_change_arg
      $ state_dir_arg $ interactive_arg $ query_arg)
  in
  Cmd.group ~default (Cmd.info "vida" ~doc) [ serve_cmd; client_cmd ]

let () = exit (Cmd.eval' cmd)
