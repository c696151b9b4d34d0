(* Governor suite: every query runs under a deadline / cancellation token /
   memory budget, and resource violations or engine failures surface as
   structured outcomes — never a hang, never an unbounded allocation, never
   a silently wrong answer (see DESIGN.md §7). *)

open Vida_data
module G = Vida_governor.Governor
module FP = Vida_raw.Fault_plan

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp_csv ?(rows = 2000) () =
  let path = Filename.temp_file "vida_gov" ".csv" in
  let oc = open_out_bin path in
  output_string oc "id,age,v\n";
  for i = 1 to rows do
    Printf.fprintf oc "%d,%d,%.3f\n" i (18 + (i mod 80)) (float_of_int (i mod 97) /. 9.7)
  done;
  close_out oc;
  path

let mk_db ?limits path =
  let db = Vida.create ?limits () in
  Vida.csv db ~name:"P" ~path ();
  db

let value_of db q =
  match Vida.query ~reuse:false db q with
  | Ok r -> r.Vida.value
  | Error e -> Alcotest.failf "unexpected error: %s" (Vida.error_to_string e)

(* --- deadline --- *)

(* An already-expired deadline must fire from inside the scan loop (the
   stride-th cooperative poll), not only at query end. *)
let test_deadline_fires_mid_scan () =
  let path = tmp_csv () in
  let limits = { G.unlimited with G.deadline_ms = Some 0.; poll_stride = 8 } in
  let db = mk_db ~limits path in
  (match Vida.query db "for { p <- P } yield count p" with
  | Error (Vida.Data_error (Vida_error.Deadline_exceeded { deadline_ms; _ })) ->
    check_bool "deadline carried" true (deadline_ms = 0.)
  | Ok _ -> Alcotest.fail "expired deadline did not fire"
  | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e));
  (* lifting the limits makes the same query succeed on the same instance *)
  Vida.set_limits db G.unlimited;
  check_bool "recovers without limits" true
    (Value.to_int (value_of db "for { p <- P } yield count p") = 2000)

(* Injected per-load latency makes a generous-looking deadline
   deterministically unreachable: the violation must be the structured
   deadline error, not a hang or an IO error. *)
let test_deadline_under_injected_latency () =
  let path = tmp_csv ~rows:50 () in
  let limits = { G.unlimited with G.deadline_ms = Some 5. } in
  let db = mk_db ~limits path in
  FP.with_plan [ FP.Load { fail = 0; latency_ms = 30.; only = None } ] (fun () ->
      match Vida.query db "for { p <- P } yield count p" with
      | Error (Vida.Data_error (Vida_error.Deadline_exceeded _)) -> ()
      | Ok _ -> Alcotest.fail "latency-injected query beat a 5 ms deadline"
      | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e))

(* --- cooperative cancellation --- *)

let test_cancellation_leaves_caches_consistent () =
  let path = tmp_csv () in
  let db = mk_db path in
  let q = "for { p <- P, p.age > 40 } yield count p" in
  let expected = value_of (mk_db (tmp_csv ())) q in
  (* the token trips at the 50th poll — mid-scan, while auxiliary
     structures and caches are half-built *)
  let s = G.start ~name:"cancel-test" () in
  G.cancel_after_polls s ~polls:50;
  (match G.with_session s (fun () -> Vida.query ~reuse:false db q) with
  | Error (Vida.Data_error (Vida_error.Cancelled _)) -> ()
  | Ok _ -> Alcotest.fail "tripped token did not cancel the query"
  | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e));
  (* whatever the aborted run left behind must not poison the re-run *)
  check_bool "re-query correct after cancellation" true
    (Value.equal expected (value_of db q));
  (* and an out-of-band cancel is observed at the next poll too *)
  let s2 = G.start () in
  G.cancel s2 ~reason:"user hit ^C";
  match G.with_session s2 (fun () -> Vida.query ~reuse:false db q) with
  | Error (Vida.Data_error (Vida_error.Cancelled { reason; _ })) ->
    check_bool "reason carried" true (reason = "user hit ^C")
  | Ok _ -> Alcotest.fail "external cancel ignored"
  | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e)

(* --- memory budget --- *)

(* Materialized operator state (join build side) is hard-charged: a
   self-join over 2000 rows cannot fit a 256-byte budget. *)
let test_budget_exceeded_on_join () =
  let path = tmp_csv () in
  let limits = { G.unlimited with G.memory_budget = Some 256 } in
  let db = mk_db ~limits path in
  match Vida.query db "for { a <- P, b <- P, a.id = b.id } yield count a" with
  | Error (Vida.Data_error (Vida_error.Budget_exceeded { budget; _ })) ->
    check_int "budget carried" 256 budget
  | Ok _ -> Alcotest.fail "self-join fit a 256-byte budget"
  | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e)

(* Cache admissions degrade gracefully under a budget — own-LRU eviction,
   then refusal — and must never serve stale data afterwards. *)
let test_budget_cache_eviction_never_stale () =
  let path = tmp_csv ~rows:200 () in
  (* big enough to admit single columns, too small to keep them all *)
  let limits = { G.unlimited with G.memory_budget = Some 4096 } in
  let db = mk_db ~limits path in
  let q_sum = "for { p <- P } yield sum p.id" in
  let q_avg = "for { p <- P } yield avg p.v" in
  let q_cnt = "for { p <- P, p.age > 40 } yield count p" in
  (* several queries over different columns force admissions past the
     budget; results must stay correct throughout *)
  check_int "sum ids" (200 * 201 / 2) (Value.to_int (value_of db q_sum));
  ignore (value_of db q_avg);
  ignore (value_of db q_cnt);
  ignore (value_of db q_sum);
  let cache = (Vida.stats db).Vida.cache in
  check_bool "budget pressure observed" true
    (cache.Vida_storage.Cache.budget_evictions
     + cache.Vida_storage.Cache.budget_refusals
    > 0);
  (* rewrite the file: whatever survived eviction must not be served *)
  let oc = open_out_bin path in
  output_string oc "id,age,v\n";
  for i = 1 to 50 do
    Printf.fprintf oc "%d,%d,%.3f\n" (1000 + i) 30 1.0
  done;
  close_out oc;
  check_int "fresh data after rewrite" (List.init 50 (fun i -> 1001 + i) |> List.fold_left ( + ) 0)
    (Value.to_int (value_of db q_sum))

(* --- transient IO retries --- *)

let test_transient_io_retried () =
  let path = tmp_csv ~rows:100 () in
  let db = mk_db path in
  FP.with_plan [ FP.Load { fail = 2; latency_ms = 0.; only = None } ] (fun () ->
      match Vida.query ~reuse:false db "for { p <- P } yield count p" with
      | Ok r ->
        check_int "correct despite two transient failures" 100
          (Value.to_int r.Vida.value);
        check_int "both retries recorded" 2 r.Vida.governor.G.retries
      | Error e -> Alcotest.failf "transient failures not retried: %s"
                     (Vida.error_to_string e))

let test_transient_io_exhausts () =
  let path = tmp_csv ~rows:100 () in
  let db = mk_db path in
  (* more consecutive failures than max_retries: the structured IO error
     must surface (bounded retrying, no infinite loop) *)
  FP.with_plan [ FP.Load { fail = 10; latency_ms = 0.; only = None } ] (fun () ->
      match Vida.query ~reuse:false db "for { p <- P } yield count p" with
      | Error (Vida.Data_error (Vida_error.Io_failure _)) -> ()
      | Ok _ -> Alcotest.fail "10 consecutive failures still succeeded"
      | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e))

(* --- JIT -> Generic degradation --- *)

(* Differential check: with JIT compilation failing, the engine must
   degrade to Generic and produce byte-identical results to a clean
   Generic run — graceful degradation may cost time, never correctness. *)
let test_jit_fallback_differential () =
  let path = tmp_csv ~rows:300 () in
  let db = mk_db path in
  let clean = mk_db (tmp_csv ~rows:300 ()) in
  let queries =
    [ "for { p <- P, p.age > 40 } yield count p";
      "for { p <- P } yield sum p.id";
      "for { a <- P, b <- P, a.id = b.id, a.age > 60 } yield count a";
      "for { p <- P, p.age > 30 } yield avg p.v"
    ]
  in
  List.iter
    (fun q ->
      let expected =
        match Vida.query ~engine:Vida.Generic ~reuse:false clean q with
        | Ok r -> r.Vida.value
        | Error e -> Alcotest.failf "clean generic run failed: %s" (Vida.error_to_string e)
      in
      match
        FP.with_plan [ FP.Jit_compile { fail = 1 } ] (fun () ->
            Vida.query ~reuse:false db q)
      with
      | Ok r ->
        check_bool "degraded run noted the fallback" true
          (List.exists (fun f -> f.G.stage = "jit->generic") r.Vida.governor.G.fallbacks);
        check_bool
          (Printf.sprintf "degraded result equals clean Generic for %s" q)
          true
          (Value.equal expected r.Vida.value)
      | Error e ->
        Alcotest.failf "JIT failure was not degraded: %s" (Vida.error_to_string e))
    queries

(* --- report plumbing --- *)

let test_report_surfaces_polls () =
  let path = tmp_csv ~rows:500 () in
  let db = mk_db path in
  match Vida.query ~reuse:false db "for { p <- P } yield count p" with
  | Ok r ->
    check_bool "scan polled cooperatively" true (r.Vida.governor.G.polls > 0);
    check_bool "wall time measured" true (r.Vida.governor.G.wall_ms >= 0.)
  | Error e -> Alcotest.failf "unexpected error: %s" (Vida.error_to_string e)

let () =
  Alcotest.run "governor"
    [
      ( "deadline",
        [
          Alcotest.test_case "fires mid-scan" `Quick test_deadline_fires_mid_scan;
          Alcotest.test_case "under injected latency" `Quick
            test_deadline_under_injected_latency;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "caches consistent" `Quick
            test_cancellation_leaves_caches_consistent;
        ] );
      ( "budget",
        [
          Alcotest.test_case "join exceeds" `Quick test_budget_exceeded_on_join;
          Alcotest.test_case "cache eviction never stale" `Quick
            test_budget_cache_eviction_never_stale;
        ] );
      ( "retries",
        [
          Alcotest.test_case "transient retried" `Quick test_transient_io_retried;
          Alcotest.test_case "bounded exhaustion" `Quick test_transient_io_exhausts;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "jit->generic differential" `Quick
            test_jit_fallback_differential;
        ] );
      ( "report",
        [ Alcotest.test_case "polls surfaced" `Quick test_report_surfaces_polls ] );
    ]
