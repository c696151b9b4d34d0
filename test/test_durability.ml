(* Durability suite: the crash-safe state directory. Artifact publish /
   revalidate roundtrips, corrupt-artifact quarantine (torn files are
   never trusted), the single-instance lockfile (self, stale and live
   holders), quarantine retention, injected OS write failures (ENOSPC /
   EMFILE / EIO on every persist path must yield a typed [State_failure]
   and the no-persist degraded mode, never an abort), warm-boot reuse
   (plans, positional maps, breaker verdicts, quarantine ledgers survive
   a restart and are fingerprint-revalidated), and the kill -9 recovery
   harness: a forked instance is SIGKILLed at seeded publish points and
   the restarted instance must answer bit-identically to a cold one. *)

open Vida_data
module SD = Vida_raw.State_dir
module FP = Vida_raw.Fault_plan
module Structures = Vida_engine.Structures
module Policy = Vida_cleaning.Policy
module G = Vida_governor.Governor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp_file contents =
  let path = Filename.temp_file "vida_dur" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let rm path = try Sys.remove path with Sys_error _ -> ()

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> rm path
  | exception Unix.Unix_error _ -> ()

let tmp_dir () =
  let path = Filename.temp_file "vida_state" "" in
  Sys.remove path;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* flip the last byte: breaks the last frame's CRC, the framing must
   refuse the whole artifact *)
let corrupt_tail path =
  let contents = read_file path in
  let b = Bytes.of_string contents in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  write_file path (Bytes.to_string b)

let truncate_file path keep = write_file path (String.sub (read_file path) 0 keep)

let numbers_csv () = tmp_file "n\n1\n2\n3\n4\n"

let queries =
  [| "for { r <- T } yield sum r.n";
     "for { r <- T } yield count r";
     "for { r <- T, r.n > 2 } yield sum r.n" |]

let value_of db q =
  match Vida.query db q with
  | Ok r -> Value.to_json r.Vida.value
  | Error e -> Alcotest.fail (Vida.error_to_string e)

(* fault-free expectations from a cold, state-less instance *)
let cold_expectations csv =
  let db = Vida.create ~domains:1 () in
  Vida.csv db ~name:"T" ~path:csv ();
  Array.map (value_of db) queries

let sreport db = Option.get (Vida.state_report db)

(* --- artifacts: publish / load / quarantine --------------------------- *)

let test_artifact_roundtrip () =
  let d = tmp_dir () in
  let sd = SD.open_dir d in
  check_bool "missing artifact absent" true (SD.load_artifact sd ~name:"plans" = None);
  SD.save_artifact sd ~name:"plans" [ "v1"; "payload-bytes" ];
  SD.close sd;
  let sd2 = SD.open_dir d in
  check_bool "roundtrip" true
    (SD.load_artifact sd2 ~name:"plans" = Some [ "v1"; "payload-bytes" ]);
  check_int "warm load counted" 1 (SD.report sd2).SD.r_warm_loads;
  check_bool "no reclaim on a clean close" true
    (not (SD.report sd2).SD.r_lock_reclaimed);
  SD.close sd2;
  rm_rf d

let test_corrupt_artifact_quarantined () =
  let d = tmp_dir () in
  let sd = SD.open_dir d in
  SD.save_artifact sd ~name:"plans" [ "v1"; "payload-bytes" ];
  SD.close sd;
  corrupt_tail (Filename.concat d "plans.bin");
  let sd2 = SD.open_dir d in
  check_bool "corrupt artifact never trusted" true
    (SD.load_artifact sd2 ~name:"plans" = None);
  check_int "quarantine counted" 1 (SD.report sd2).SD.r_corrupt_quarantined;
  check_bool "moved aside for diagnosis" true
    (Sys.file_exists (Filename.concat d "plans.bin.corrupt"));
  check_bool "original gone" true (not (Sys.file_exists (Filename.concat d "plans.bin")));
  (* the slot is reusable: a fresh publish loads cleanly *)
  SD.save_artifact sd2 ~name:"plans" [ "v2" ];
  check_bool "republished" true (SD.load_artifact sd2 ~name:"plans" = Some [ "v2" ]);
  SD.close sd2;
  rm_rf d

let test_corrupt_manifest_rebuilt () =
  let d = tmp_dir () in
  let sd = SD.open_dir d in
  SD.save_artifact sd ~name:"plans" [ "v1" ];
  SD.close sd;
  let manifest = Filename.concat d "MANIFEST" in
  truncate_file manifest (String.length (read_file manifest) / 2);
  let sd2 = SD.open_dir d in
  check_bool "torn manifest quarantined" true
    ((SD.report sd2).SD.r_corrupt_quarantined >= 1
    && Sys.file_exists (manifest ^ ".corrupt"));
  (* the manifest is a journal, not an authority: the artifact's own
     framing still validates it *)
  check_bool "artifact survives manifest loss" true
    (SD.load_artifact sd2 ~name:"plans" = Some [ "v1" ]);
  SD.close sd2;
  rm_rf d

(* --- lockfile: single instance, liveness-probed ----------------------- *)

let test_lock_self_reopen () =
  let d = tmp_dir () in
  let sd1 = SD.open_dir d in
  (* the same process reopening (cold + warm instance in one test) is not
     a conflict and not a reclaim *)
  let sd2 = SD.open_dir d in
  check_bool "self reopen is silent" true
    (not (SD.report sd2).SD.r_lock_reclaimed);
  SD.close sd2;
  SD.close sd1;
  rm_rf d

let test_lock_stale_reclaimed () =
  let d = tmp_dir () in
  let sd = SD.open_dir d in
  SD.close sd;
  (* a pid that is certainly dead: a forked child that already exited *)
  let dead_pid =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
      ignore (Unix.waitpid [] pid);
      pid
  in
  write_file (Filename.concat d "lock") (Printf.sprintf "%d:1\n" dead_pid);
  let sd2 = SD.open_dir d in
  check_bool "dead holder reclaimed" true (SD.report sd2).SD.r_lock_reclaimed;
  SD.close sd2;
  (* an empty lockfile — a torn write — is also stale *)
  write_file (Filename.concat d "lock") "";
  let sd3 = SD.open_dir d in
  check_bool "torn lockfile reclaimed" true (SD.report sd3).SD.r_lock_reclaimed;
  SD.close sd3;
  rm_rf d

let test_lock_zombie_reclaimed () =
  let d = tmp_dir () in
  let sd = SD.open_dir d in
  SD.close sd;
  (* a SIGKILLed-but-unreaped holder: kill(pid, 0) still succeeds and its
     starttime is still readable, yet it can never release the lock — the
     probe must call it stale, not live *)
  flush stdout;
  flush stderr;
  (match Unix.fork () with
  | 0 ->
    (try
       let sd = SD.open_dir d in
       ignore sd
     with _ -> ());
    Unix._exit 0
  | pid ->
    (* wait for the child to die without reaping it: /proc state goes Z *)
    let rec zombie_yet tries =
      let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
      let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
      let is_z =
        match String.rindex_opt line ')' with
        | None -> false
        | Some i -> (
          match String.trim (String.sub line (i + 1) 2) with
          | "Z" | "X" -> true
          | _ -> false)
      in
      if is_z || tries = 0 then is_z
      else (
        Unix.sleepf 0.01;
        zombie_yet (tries - 1))
    in
    check_bool "child became a zombie" true (zombie_yet 500);
    let sd2 = SD.open_dir d in
    check_bool "zombie holder reclaimed" true
      (SD.report sd2).SD.r_lock_reclaimed;
    SD.close sd2;
    ignore (Unix.waitpid [] pid));
  rm_rf d

let test_lock_live_holder_refused () =
  let d = tmp_dir () in
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       let sd = SD.open_dir d in
       ignore sd;
       ignore (Unix.write w (Bytes.of_string "R") 0 1);
       Unix.close w;
       (* hold the lock until the parent kills us *)
       while true do
         Unix.sleep 3600
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close w;
    let b = Bytes.create 1 in
    ignore (Unix.read r b 0 1);
    Unix.close r;
    check_bool "live holder refused, typed" true
      (match SD.open_dir d with
      | exception Vida_error.Error (Vida_error.State_failure _ as e) ->
        Vida_error.exit_code e = 80
      | sd ->
        SD.close sd;
        false);
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    (* the kill left a stale lock: reopening reclaims it *)
    let sd = SD.open_dir d in
    check_bool "reclaimed after the holder died" true
      (SD.report sd).SD.r_lock_reclaimed;
    SD.close sd;
    rm_rf d

(* --- quarantine retention --------------------------------------------- *)

let mk_corrupt ?(age_s = 0.) path =
  write_file path "corpse";
  if age_s > 0. then (
    let t = Unix.gettimeofday () -. age_s in
    Unix.utimes path t t)

let test_quarantine_gc_on_open () =
  let d = tmp_dir () in
  let sd = SD.open_dir d in
  SD.close sd;
  let day = 24. *. 3600. in
  mk_corrupt ~age_s:(30. *. day) (Filename.concat d "old1.bin.corrupt");
  mk_corrupt ~age_s:(30. *. day)
    (Filename.concat (Filename.concat d "structures") "old2.vidx.corrupt");
  mk_corrupt (Filename.concat d "fresh1.corrupt");
  mk_corrupt (Filename.concat d "fresh2.corrupt");
  mk_corrupt (Filename.concat d "fresh3.corrupt");
  (* age bound removes the two old ones, the count bound trims the fresh
     set down to 2 *)
  let sd2 = SD.open_dir ~quarantine_max_age_s:day ~quarantine_max_count:2 d in
  check_int "gc removed aged + excess" 3 (SD.report sd2).SD.r_quarantine_removed;
  check_bool "old corpses gone" true
    (not (Sys.file_exists (Filename.concat d "old1.bin.corrupt")));
  SD.close sd2;
  rm_rf d

let test_quarantine_clean () =
  let d = tmp_dir () in
  let sd = SD.open_dir d in
  mk_corrupt (Filename.concat d "a.corrupt");
  mk_corrupt (Filename.concat d "b.corrupt");
  check_int "clean purges everything" 2 (SD.clean_quarantine sd);
  check_int "idempotent" 0 (SD.clean_quarantine sd);
  SD.close sd;
  (* the instance-level wrapper: backs the CLI's [.quarantine clean] *)
  mk_corrupt (Filename.concat d "c.corrupt");
  let db = Vida.create ~domains:1 ~state_dir:d () in
  check_int "instance clean" 1 (Vida.clean_quarantine db);
  Vida.close_state db;
  rm_rf d

(* --- injected OS write failures --------------------------------------- *)

let errnos = [ `Enospc; `Emfile; `Eio ]

let test_save_failure_typed () =
  let d = tmp_dir () in
  let sd = SD.open_dir d in
  List.iter
    (fun errno ->
      List.iter
        (fun plan ->
          FP.with_plan [ plan ] (fun () ->
              match SD.save_artifact sd ~name:"x" [ "frame" ] with
              | () -> Alcotest.fail "injected OS failure must raise"
              | exception Vida_error.Error (Vida_error.State_failure _ as e) ->
                check_string "typed kind" "state" (Vida_error.kind_name e);
                check_int "exit code" 80 (Vida_error.exit_code e)))
        [ FP.Open { fail = 1; errno; only = None };
          FP.Write { fail = 1; errno; only = None };
          FP.Rename { fail = 1; errno; only = None } ])
    errnos;
  (* no residue: the next publish is clean and no temp files linger *)
  SD.save_artifact sd ~name:"x" [ "frame" ];
  check_bool "publishes after the storm" true
    (SD.load_artifact sd ~name:"x" = Some [ "frame" ]);
  check_bool "no tmp residue" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (Sys.readdir d));
  SD.close sd;
  (* disk full while taking the lock: open_dir itself is typed *)
  let d2 = tmp_dir () in
  check_bool "open under ENOSPC is typed" true
    (FP.with_plan [ FP.Write { fail = 1; errno = `Enospc; only = None } ]
       (fun () ->
         match SD.open_dir d2 with
         | exception Vida_error.Error (Vida_error.State_failure _) -> true
         | sd ->
           SD.close sd;
           false));
  rm_rf d;
  rm_rf d2

let test_persist_degrades_and_resets () =
  let d = tmp_dir () in
  let sd = SD.open_dir d in
  check_bool "clean persist" true (SD.persist sd ~name:"p" [ "a" ]);
  FP.with_plan [ FP.Write { fail = 1; errno = `Enospc; only = None } ]
    (fun () ->
      check_bool "failure returns false, never raises" true
        (not (SD.persist sd ~name:"p" [ "b" ])));
  check_bool "degraded mode entered" true (SD.degraded sd);
  (* suspended: no further writes are attempted until the operator acts *)
  check_bool "persistence suspended" true (not (SD.persist sd ~name:"p" [ "c" ]));
  let r = SD.report sd in
  check_int "failure counted once" 1 r.SD.r_persist_failures;
  check_bool "failure recorded" true (r.SD.r_last_failure <> None);
  (* the suspended writes left the last good artifact intact *)
  check_bool "last good generation intact" true
    (SD.load_artifact sd ~name:"p" = Some [ "a" ]);
  SD.reset_degraded sd;
  check_bool "resumed after reset" true (SD.persist sd ~name:"p" [ "d" ]);
  SD.close sd;
  rm_rf d

(* ENOSPC / EMFILE / EIO on EVERY persist path of a live instance: the
   plan spill, the breaker table, the quarantine ledger, the manifest and
   the positional-map sidecar. Each must flip degraded mode — and queries
   must keep answering throughout. *)
let test_instance_fault_sweep () =
  let csv = numbers_csv () in
  let d = tmp_dir () in
  let db = Vida.create ~domains:1 ~state_dir:d () in
  Vida.csv db ~name:"T" ~path:csv ();
  check_string "baseline" "10" (value_of db queries.(0));
  let src = Option.get (Vida.describe db "T") in
  let targets =
    [ "plans.bin"; "breakers.bin"; "ledger.bin"; "MANIFEST";
      Structures.sidecar_digest src ^ ".vidx" ]
  in
  let legs = ref 0 in
  List.iter
    (fun target ->
      List.iter
        (fun errno ->
          incr legs;
          FP.with_plan
            [ FP.Write { fail = 1; errno; only = Some target } ]
            (fun () ->
              check_bool (target ^ " persist fails closed") true
                (not (Vida.persist_state db)));
          let sr = sreport db in
          check_bool (target ^ " flips degraded") true sr.Vida.sr_degraded;
          (* the whole point: a full disk never touches answers *)
          check_string (target ^ " queries still answer") "10"
            (value_of db queries.(0));
          Vida.reset_state_degraded db)
        errnos)
    targets;
  check_int "every path swept under every errno" 15 !legs;
  let sr = sreport db in
  check_int "every failure counted" 15 sr.Vida.sr_persist_failures;
  check_bool "clean persist after the storm" true (Vida.persist_state db);
  check_bool "recovered, not degraded" true (not (sreport db).Vida.sr_degraded);
  Vida.close_state db;
  rm csv;
  rm_rf d

(* --- warm boot: reuse, revalidation ------------------------------------ *)

let test_warm_boot_reuse () =
  let csv = numbers_csv () in
  let d = tmp_dir () in
  let expected = cold_expectations csv in
  let db1 = Vida.create ~domains:1 ~state_dir:d () in
  Vida.csv db1 ~name:"T" ~path:csv ();
  Array.iter (fun q -> ignore (value_of db1 q)) queries;
  check_bool "persisted" true (Vida.persist_state db1);
  Vida.close_state db1;
  let db2 = Vida.create ~domains:1 ~state_dir:d () in
  Vida.csv db2 ~name:"T" ~path:csv ();
  Array.iteri
    (fun i q -> check_string "warm equals cold" expected.(i) (value_of db2 q))
    queries;
  let sr = sreport db2 in
  check_bool "artifacts loaded from disk" true (sr.Vida.sr_warm_loads >= 1);
  check_bool "a plan was served from the state dir" true
    (sr.Vida.sr_plan_warm_hits >= 1);
  check_bool "a positional map was restored, not rebuilt" true
    (sr.Vida.sr_structure_restores >= 1);
  check_bool "nothing rebuilt on a faithful warm boot" true
    (sr.Vida.sr_structure_rebuilds = 0);
  check_bool "nothing quarantined on a clean restart" true
    (sr.Vida.sr_corrupt_quarantined = 0);
  Vida.close_state db2;
  rm csv;
  rm_rf d

let test_warm_boot_stale_rebuilt () =
  let csv = numbers_csv () in
  let d = tmp_dir () in
  let db1 = Vida.create ~domains:1 ~state_dir:d () in
  Vida.csv db1 ~name:"T" ~path:csv ();
  Array.iter (fun q -> ignore (value_of db1 q)) queries;
  check_bool "persisted" true (Vida.persist_state db1);
  Vida.close_state db1;
  (* the raw file changes under the state dir: every persisted artifact
     is now stale and must be silently rebuilt, never served *)
  write_file csv "n\n1\n2\n3\n4\n5\n6\n";
  let db2 = Vida.create ~domains:1 ~state_dir:d () in
  Vida.csv db2 ~name:"T" ~path:csv ();
  check_string "answers reflect the new file" "21" (value_of db2 queries.(0));
  check_string "count too" "6" (value_of db2 queries.(1));
  let sr = sreport db2 in
  check_int "no stale plan served" 0 sr.Vida.sr_plan_warm_hits;
  check_bool "positional map rebuilt from raw" true
    (sr.Vida.sr_structure_rebuilds >= 1);
  Vida.close_state db2;
  rm csv;
  rm_rf d

let test_breaker_restored () =
  let d = tmp_dir () in
  let saved = G.Breaker.config () in
  G.Breaker.reset ();
  G.Breaker.set_config { G.Breaker.failure_threshold = 2; cooldown_ms = 60_000. };
  Fun.protect
    ~finally:(fun () ->
      G.Breaker.set_config saved;
      G.Breaker.reset ())
    (fun () ->
      let source = "/dead/warm.csv" in
      let db1 = Vida.create ~domains:1 ~state_dir:d () in
      G.Breaker.failure ~source ~reason:"boom 1";
      G.Breaker.failure ~source ~reason:"boom 2";
      check_bool "tripped open" true (G.Breaker.state ~source = `Open);
      check_bool "persisted" true (Vida.persist_state db1);
      Vida.close_state db1;
      (* simulate the restart: the process-global table is wiped *)
      G.Breaker.reset ();
      check_bool "gone after reset" true (G.Breaker.state ~source = `Closed);
      let db2 = Vida.create ~domains:1 ~state_dir:d () in
      check_bool "open state survived the restart" true
        (G.Breaker.state ~source = `Open);
      let snap =
        List.find
          (fun s -> s.G.Breaker.b_source = source)
          (G.Breaker.snapshot ())
      in
      check_bool "trip history survived" true (snap.G.Breaker.b_trips >= 1);
      Vida.close_state db2);
  rm_rf d

let test_ledger_restored () =
  let dirty = tmp_file "id,age,city\n1,34,geneva\n2,oops,zurich\n3,52,genva\n4,28,basel\n" in
  let d = tmp_dir () in
  let schema =
    Schema.of_pairs [ ("id", Ty.Int); ("age", Ty.Int); ("city", Ty.String) ]
  in
  let db1 = Vida.create ~domains:1 ~state_dir:d () in
  Vida.csv db1 ~name:"P" ~path:dirty ~schema ();
  Vida.set_cleaning db1 ~source:"P" (Policy.make ~on_error:Policy.Quarantine ());
  check_string "bad row quarantined" "114"
    (value_of db1 "for { p <- P } yield sum p.age");
  let q1 = Vida.quarantine_report db1 ~source:"P" in
  check_bool "something to persist" true (List.length q1 >= 1);
  check_bool "persisted" true (Vida.persist_state db1);
  Vida.close_state db1;
  let db2 = Vida.create ~domains:1 ~state_dir:d () in
  Vida.csv db2 ~name:"P" ~path:dirty ~schema ();
  Vida.set_cleaning db2 ~source:"P" (Policy.make ~on_error:Policy.Quarantine ());
  check_string "warm answer agrees" "114"
    (value_of db2 "for { p <- P } yield sum p.age");
  let q2 = Vida.quarantine_report db2 ~source:"P" in
  let spans entries =
    List.sort compare
      (List.map (fun e -> (e.Policy.q_offset, e.Policy.q_length)) entries)
  in
  (* the restored ledger pre-marks the bad rows, so the warm scan skips
     them instead of re-quarantining: the report must carry the SAME
     spans, once — restored entries and rediscovered ones never double *)
  check_bool "same spans, not doubled" true (spans q1 = spans q2);
  Vida.close_state db2;
  rm dirty;
  rm_rf d

(* --- the kill -9 recovery harness -------------------------------------- *)

(* Fork a child that boots on the state directory, arms a seeded SIGKILL
   at a publish point via the environment hook ([VIDA_STATE_CRASH], the
   same path a crashed [vida serve] exercises), then loops queries and
   persists until the kill fires. Returns true when the child died of
   SIGKILL. *)
let crash_cycle ~dir ~csv spec =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       Unix.putenv "VIDA_STATE_CRASH" spec;
       let db = Vida.create ~domains:1 ~state_dir:dir () in
       Vida.csv db ~name:"T" ~path:csv ();
       for _ = 1 to 6 do
         Array.iter (fun q -> ignore (Vida.query db q)) queries;
         ignore (Vida.persist_state db)
       done;
       Vida.close_state db
     with _ -> ());
    Unix._exit 0
  | pid ->
    let _, status = Unix.waitpid [] pid in
    status = Unix.WSIGNALED Sys.sigkill

(* Restart on the surviving directory and hold it to the cold standard:
   every answer bit-identical, nothing degraded, corrupt files quarantined
   (never trusted). Returns the boot's state report. *)
let verify_recovery ~dir ~csv ~expected spec =
  let db = Vida.create ~domains:1 ~state_dir:dir () in
  Vida.csv db ~name:"T" ~path:csv ();
  Array.iteri
    (fun i q ->
      check_string
        (Printf.sprintf "%s: warm answer %d is bit-identical" spec i)
        expected.(i) (value_of db q))
    queries;
  let sr = sreport db in
  check_bool (spec ^ ": recovery is never degraded") true
    (not sr.Vida.sr_degraded);
  Vida.close_state db;
  sr

let crash_specs ats =
  List.concat_map
    (fun at ->
      List.concat_map
        (fun point ->
          (* the manifest publish has no post-phase: nothing follows it *)
          let phases =
            if point = "manifest" then [ "pre"; "torn" ]
            else [ "pre"; "torn"; "post" ]
          in
          List.map (fun ph -> Printf.sprintf "%s:%d:%s" point at ph) phases)
        [ "plans"; "breakers"; "ledger"; "manifest" ])
    ats

let run_crash_harness ~specs () =
  let csv = numbers_csv () in
  let dir = tmp_dir () in
  let expected = cold_expectations csv in
  let kills = ref 0 and quarantined = ref 0 and warm_loads = ref 0 in
  List.iter
    (fun spec ->
      if crash_cycle ~dir ~csv spec then incr kills
      else Alcotest.failf "%s: armed crash never fired" spec;
      let sr = verify_recovery ~dir ~csv ~expected spec in
      quarantined := !quarantined + sr.Vida.sr_corrupt_quarantined;
      warm_loads := !warm_loads + sr.Vida.sr_warm_loads)
    specs;
  check_int "every armed kill fired" (List.length specs) !kills;
  (* the torn phases really produced corrupt files — and every one was
     quarantined instead of loaded *)
  check_bool "torn publishes were quarantined, never trusted" true
    (!quarantined >= 1);
  check_bool "recovery served surviving artifacts warm" true (!warm_loads >= 1);
  rm csv;
  rm_rf dir

(* one kill per (point, phase): the quick regression *)
let test_crash_matrix () = run_crash_harness ~specs:(crash_specs [ 1 ]) ()

(* the full soak: 55 seeded kills across occurrence indices 1..5 *)
let test_crash_soak () =
  let specs = crash_specs [ 1; 2; 3; 4; 5 ] in
  check_bool "soak covers at least 50 seeded kill points" true
    (List.length specs >= 50);
  run_crash_harness ~specs ()

let tests =
  [ ("artifacts",
     [ Alcotest.test_case "publish / load roundtrip" `Quick test_artifact_roundtrip;
       Alcotest.test_case "corrupt artifact quarantined" `Quick
         test_corrupt_artifact_quarantined;
       Alcotest.test_case "corrupt manifest rebuilt" `Quick
         test_corrupt_manifest_rebuilt ]);
    ("lockfile",
     [ Alcotest.test_case "self reopen" `Quick test_lock_self_reopen;
       Alcotest.test_case "stale holder reclaimed" `Quick test_lock_stale_reclaimed;
       Alcotest.test_case "zombie holder reclaimed" `Quick test_lock_zombie_reclaimed;
       Alcotest.test_case "live holder refused" `Quick
         test_lock_live_holder_refused ]);
    ("quarantine",
     [ Alcotest.test_case "retention gc on open" `Quick test_quarantine_gc_on_open;
       Alcotest.test_case "clean purges" `Quick test_quarantine_clean ]);
    ("os-faults",
     [ Alcotest.test_case "save failures typed" `Quick test_save_failure_typed;
       Alcotest.test_case "persist degrades + resets" `Quick
         test_persist_degrades_and_resets;
       Alcotest.test_case "every path, every errno" `Quick
         test_instance_fault_sweep ]);
    ("warm-boot",
     [ Alcotest.test_case "plans + posmaps reused" `Quick test_warm_boot_reuse;
       Alcotest.test_case "stale state rebuilt" `Quick test_warm_boot_stale_rebuilt;
       Alcotest.test_case "breakers survive restart" `Quick test_breaker_restored;
       Alcotest.test_case "quarantine ledger survives restart" `Quick
         test_ledger_restored ]);
    ("crash",
     [ Alcotest.test_case "kill matrix" `Quick test_crash_matrix;
       Alcotest.test_case "50-kill soak" `Slow test_crash_soak ]) ]

let () = Alcotest.run "durability" tests
