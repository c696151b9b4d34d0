(* Resilience suite: per-source circuit breakers (unit + end-to-end over
   injected IO faults), connection deadlines (idle reaping, slowloris,
   slow readers), heartbeat/health control frames, graceful drain,
   stale-socket recovery, frame fuzzing (seeded mutations must always
   yield typed errors, never an escaping exception), the self-healing
   client, and a seeded network-chaos soak through the fault-injecting
   proxy with a differential check against fault-free clients. *)

open Vida_data
module Server = Vida_server.Server
module Frame = Vida_server.Frame
module Chaos = Vida_server.Chaos
module Fault = Vida_raw.Fault_inject
module FP = Vida_raw.Fault_plan
module G = Vida_governor.Governor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp_file contents =
  let path = Filename.temp_file "vida_res" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let rm path = try Sys.remove path with Sys_error _ -> ()

let sock_path () =
  let path = Filename.temp_file "vida_res" ".sock" in
  Sys.remove path;
  path

let fld reply name =
  match Value.field_opt reply name with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (Value.to_json reply)

let fld_str reply name =
  match fld reply name with
  | Value.String s -> s
  | v -> Alcotest.failf "field %S not a string: %s" name (Value.to_json v)

(* Every test leaves the process-global breaker registry and config as it
   found them — other suites in this binary must not inherit open
   breakers. *)
let with_breakers ?(config = G.Breaker.default_config) f =
  let saved = G.Breaker.config () in
  G.Breaker.reset ();
  G.Breaker.set_config config;
  Fun.protect
    ~finally:(fun () ->
      G.Breaker.set_config saved;
      G.Breaker.reset ())
    f

let with_server ?config db f =
  let srv = Server.create ?config db in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let with_client srv f =
  let c = Server.Client.connect (Server.address srv) in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let numbers_db () =
  let path = tmp_file "n\n1\n2\n3\n4\n" in
  let db = Vida.create () in
  Vida.csv db ~name:"Nums" ~path ();
  (db, path)

let gated_db gate =
  let db = Vida.create () in
  Vida.external_source db ~name:"SlowSrc" ~element:(Ty.Record [ ("x", Ty.Int) ])
    ~count:(fun () -> 1)
    ~produce:(fun consumer ->
      while not (Atomic.get gate) do
        G.poll ();
        Thread.delay 0.002
      done;
      consumer (Value.Record [ ("x", Value.Int 7) ]));
  db

let raw_connect address =
  match address with
  | Server.Tcp { host; port } ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    fd
  | Server.Unix_socket path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd

let wait_for ?(timeout_s = 5.) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else (
      Thread.delay 0.01;
      go ())
  in
  go ()

(* --- circuit breaker: state machine ---------------------------------- *)

let test_breaker_states () =
  with_breakers
    ~config:{ G.Breaker.failure_threshold = 3; cooldown_ms = 120. }
    (fun () ->
      let source = "/fake/breaker/unit.csv" in
      check_bool "starts closed" true (G.Breaker.state ~source = `Closed);
      G.Breaker.failure ~source ~reason:"boom 1";
      G.Breaker.failure ~source ~reason:"boom 2";
      check_bool "below threshold stays closed" true
        (G.Breaker.state ~source = `Closed);
      (* a success resets the consecutive count *)
      G.Breaker.success ~source;
      G.Breaker.failure ~source ~reason:"boom 3";
      check_bool "reset by success" true (G.Breaker.state ~source = `Closed);
      G.Breaker.failure ~source ~reason:"boom 4";
      G.Breaker.failure ~source ~reason:"boom 5";
      check_bool "trips at threshold" true (G.Breaker.state ~source = `Open);
      (* open: queries shed with a typed, retry-hinted error *)
      (match G.Breaker.check ~source with
      | () -> Alcotest.fail "open breaker must shed"
      | exception
          Vida_error.Error
            (Vida_error.Source_unavailable { retry_after_ms; source = s; _ })
        ->
        check_string "shed names the source" source s;
        check_bool "retry hint positive" true (retry_after_ms > 0.));
      (* after the cooldown one probe passes (half-open)... *)
      G.sleep_ms 130.;
      G.Breaker.check ~source;
      check_bool "half-open after cooldown" true
        (G.Breaker.state ~source = `Half_open);
      (* ...a failed probe re-opens... *)
      G.Breaker.failure ~source ~reason:"probe failed";
      check_bool "probe failure re-opens" true (G.Breaker.state ~source = `Open);
      (* ...and a successful probe closes for good *)
      G.sleep_ms 130.;
      G.Breaker.check ~source;
      G.Breaker.success ~source;
      check_bool "probe success closes" true (G.Breaker.state ~source = `Closed);
      let snap =
        List.find
          (fun s -> s.G.Breaker.b_source = source)
          (G.Breaker.snapshot ())
      in
      check_string "snapshot state" "closed" snap.G.Breaker.b_state;
      check_int "snapshot trips" 2 snap.G.Breaker.b_trips;
      check_bool "snapshot counted sheds" true (snap.G.Breaker.b_shed >= 1))

(* --- circuit breaker: end-to-end over injected IO faults -------------- *)

let test_breaker_end_to_end () =
  with_breakers
    ~config:{ G.Breaker.failure_threshold = 3; cooldown_ms = 150. }
    (fun () ->
      let db, path = numbers_db () in
      let q = "for { n <- Nums } yield sum n.n" in
      let run () = Vida.query db q in
      (* every load of this source fails until the plan is cleared *)
      FP.with_plan
        [ FP.Load { fail = 1_000_000; latency_ms = 0.; only = Some (Filename.basename path) } ]
        (fun () ->
          (* one query can observe the failing source more than once
             (refresh + scan both force the buffer), so drive queries
             until the consecutive-failure count trips the breaker *)
          let attempts = ref 0 in
          while G.Breaker.state ~source:path <> `Open && !attempts < 10 do
            incr attempts;
            match run () with
            | Ok _ ->
              Alcotest.failf "query %d must fail under the IO plan" !attempts
            | Error (Vida.Data_error e) ->
              check_string
                (Printf.sprintf "failure %d is transport-typed" !attempts)
                "io" (Vida_error.kind_name e)
            | Error e -> Alcotest.fail (Vida.error_to_string e)
          done;
          check_bool "breaker tripped after repeated failures" true
            (G.Breaker.state ~source:path = `Open);
          (* while open, queries shed instantly: the typed refusal arrives
             without touching the failing source (the injected-failure
             count stays put) *)
          let before = FP.injected `Load in
          (match run () with
          | Error (Vida.Data_error (Vida_error.Source_unavailable _)) -> ()
          | r ->
            Alcotest.failf "open breaker must shed, got %s"
              (match r with
              | Ok _ -> "ok"
              | Error e -> Vida.error_to_string e));
          check_int "shed without touching the failing source" before
            (FP.injected `Load));
      (* source healed: after the cooldown, the half-open probe closes the
         breaker and queries flow again *)
      G.sleep_ms 170.;
      (match Vida.query db q with
      | Ok r -> check_string "healed answer" "10" (Value.to_json r.Vida.value)
      | Error e -> Alcotest.failf "probe should heal: %s" (Vida.error_to_string e));
      check_bool "breaker closed by successful probe" true
        (G.Breaker.state ~source:path = `Closed);
      rm path)

(* --- connection deadlines --------------------------------------------- *)

let test_idle_reaping () =
  let db, path = numbers_db () in
  let config =
    { Server.default_config with Server.idle_timeout_ms = Some 80. }
  in
  with_server ~config db (fun srv ->
      let c = Server.Client.connect (Server.address srv) in
      (* an active client survives several idle windows via heartbeats *)
      let keeper = Server.Client.connect (Server.address srv) in
      let alive = ref true in
      let keeper_thread =
        Thread.create
          (fun () ->
            for _ = 1 to 8 do
              if !alive then (
                (try ignore (Server.Client.ping keeper) with _ -> alive := false);
                Thread.delay 0.03)
            done)
          ()
      in
      (* the quiet client is reaped *)
      check_bool "idle connection reaped" true
        (wait_for (fun () -> (Server.stats srv).Server.idle_reaped >= 1));
      check_bool "reaped client sees EOF" true
        (match Server.Client.query c "for { n <- Nums } yield count n" with
        | exception Vida_error.Error (Vida_error.Io_failure _) -> true
        | exception Unix.Unix_error _ -> true
        | _ -> false);
      Server.Client.close c;
      Thread.join keeper_thread;
      check_bool "heartbeats kept the active client alive" true !alive;
      let r = Server.Client.query keeper "for { n <- Nums } yield count n" in
      check_string "kept-alive client still served" "ok" (fld_str r "status");
      Server.Client.close keeper;
      check_bool "pings counted" true ((Server.stats srv).Server.pings >= 1));
  rm path

let test_slowloris_drop () =
  let db, path = numbers_db () in
  let config =
    { Server.default_config with Server.frame_timeout_ms = Some 80. }
  in
  with_server ~config db (fun srv ->
      (* a frame that starts and stalls: 2 of 4 header bytes, then nothing *)
      let fd = raw_connect (Server.address srv) in
      ignore (Unix.write fd (Bytes.make 2 '\000') 0 2);
      check_bool "stalled frame dropped" true
        (wait_for (fun () -> (Server.stats srv).Server.slow_frame_drops >= 1));
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* healthy clients are untouched by the drop *)
      with_client srv (fun c ->
          let r = Server.Client.query c "for { n <- Nums } yield sum n.n" in
          check_string "healthy client unaffected" "ok" (fld_str r "status")));
  rm path

let test_deadline_propagation () =
  let gate = Atomic.make false in
  let db = gated_db gate in
  with_server db (fun srv ->
      (* the client's total budget rides the request and bounds the
         server-side query: the gated scan never opens, so only the
         propagated deadline can end it *)
      let rc =
        Server.Client.connect_resilient
          ~retry:
            { Server.Client.default_retry with
              Server.Client.max_attempts = 1; deadline_ms = Some 250. }
          (Server.address srv)
      in
      let reply = Server.Client.rquery rc "for { s <- SlowSrc } yield count s" in
      check_string "propagated deadline fired server-side" "deadline"
        (fld_str reply "kind");
      Server.Client.close_resilient rc;
      Atomic.set gate true);
  ()

(* --- control frames --------------------------------------------------- *)

let test_ping_health () =
  let db, path = numbers_db () in
  with_server db (fun srv ->
      with_client srv (fun c ->
          check_bool "pong" true (Server.Client.ping c);
          let r = Server.Client.query c "for { n <- Nums } yield sum n.n" in
          check_string "queries interleave with pings" "ok" (fld_str r "status");
          let h = Server.Client.health c in
          check_string "health ok" "ok" (fld_str h "status");
          let body = fld h "health" in
          check_bool "gauges present" true
            (match Value.field_opt body "running" with
            | Some (Value.Int _) -> true
            | _ -> false);
          check_bool "served counted" true
            (match Value.field_opt body "served" with
            | Some (Value.Int n) -> n >= 1
            | _ -> false);
          check_bool "breaker list present" true
            (match Value.field_opt body "breakers" with
            | Some (Value.List _) -> true
            | _ -> false)));
  rm path

(* --- stale Unix sockets ----------------------------------------------- *)

let test_stale_socket_recovery () =
  let path = sock_path () in
  (* simulate an unclean crash: a bound socket file with no listener *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  check_bool "stale file left behind" true (Sys.file_exists path);
  let db, csv = numbers_db () in
  let config =
    { Server.default_config with Server.address = Server.Unix_socket path }
  in
  (* a naive bind would fail EADDRINUSE here; the probe unlinks the corpse *)
  with_server ~config db (fun srv ->
      with_client srv (fun c ->
          let r = Server.Client.query c "for { n <- Nums } yield count n" in
          check_string "serving over the reclaimed socket" "ok"
            (fld_str r "status")));
  rm csv;
  rm path

let test_live_socket_not_stolen () =
  let path = sock_path () in
  let db, csv = numbers_db () in
  let config =
    { Server.default_config with Server.address = Server.Unix_socket path }
  in
  with_server ~config db (fun _srv ->
      (* a second server on the same path must refuse, not steal *)
      let db2 = Vida.create () in
      check_bool "live socket refused with EADDRINUSE" true
        (match Server.create ~config db2 with
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> true
        | srv2 ->
          Server.stop srv2;
          false));
  rm csv;
  rm path

(* --- graceful drain ---------------------------------------------------- *)

let test_graceful_drain () =
  let gate = Atomic.make false in
  let db = gated_db gate in
  let config = { Server.default_config with Server.drain_ms = 3000. } in
  let srv = Server.create ~config db in
  let c = Server.Client.connect (Server.address srv) in
  let answer = ref None in
  let client_thread =
    Thread.create
      (fun () ->
        try answer := Some (Server.Client.query c "for { s <- SlowSrc } yield count s")
        with e -> answer := Some (Value.String (Printexc.to_string e)))
      ()
  in
  check_bool "query running" true
    (wait_for (fun () ->
         (Server.stats srv).Server.admission.G.Admission.running = 1));
  (* open the gate shortly after the drain begins: a graceful stop must
     let this query finish and its reply reach the client *)
  let opener =
    Thread.create
      (fun () ->
        Thread.delay 0.1;
        Atomic.set gate true)
      ()
  in
  Server.stop srv;
  Thread.join opener;
  Thread.join client_thread;
  Server.Client.close c;
  (match !answer with
  | Some reply -> (
    match Value.field_opt reply "status" with
    | Some (Value.String "ok") -> ()
    | _ ->
      Alcotest.failf "drained query must be answered ok, got %s"
        (Value.to_json reply))
  | None -> Alcotest.fail "no reply reached the client")

(* --- frame fuzzing ----------------------------------------------------- *)

(* Seeded mutations of a valid request frame — bit flips, truncations,
   oversize length prefixes — must always yield a typed protocol error or
   a dropped connection, never an escaping exception or a wedged server. *)
let test_frame_fuzzing () =
  let db, path = numbers_db () in
  let config =
    { Server.default_config with
      Server.max_frame_bytes = 1 lsl 20; frame_timeout_ms = Some 200. }
  in
  with_server ~config db (fun srv ->
      let valid_payload =
        {|{"id": 1, "query": "for { n <- Nums } yield sum n.n", "syntax": "comp"}|}
      in
      let frame_of payload =
        let len = String.length payload in
        let b = Bytes.create (4 + len) in
        Bytes.set_int32_be b 0 (Int32.of_int len);
        Bytes.blit_string payload 0 b 4 len;
        Bytes.unsafe_to_string b
      in
      let valid_frame = frame_of valid_payload in
      let mutate seed =
        match seed mod 4 with
        | 0 -> Fault.apply ~seed [ Fault.Random_bit_flips (1 + (seed mod 5)) ] valid_frame
        | 1 -> Fault.apply ~seed [ Fault.Truncate_at (1 + (seed mod (String.length valid_frame - 1))) ] valid_frame
        | 2 ->
          (* oversize length prefix: promises up to 2 GiB *)
          Fault.apply ~seed
            [ Fault.Overwrite { offset = 0; bytes = "\x7f\xff\xff\xff" } ]
            valid_frame
        | _ ->
          (* garbage appended after a valid frame: the tail is read as the
             next frame's header *)
          Fault.apply ~seed [ Fault.Garbage_append (4 + (seed mod 16)) ] valid_frame
      in
      for seed = 1 to 60 do
        let fuzzed = mutate seed in
        let fd = raw_connect (Server.address srv) in
        (try
           let b = Bytes.of_string fuzzed in
           ignore (Unix.write fd b 0 (Bytes.length b));
           Unix.shutdown fd Unix.SHUTDOWN_SEND;
           (* drain whatever the server answers: every reply frame must be
              a typed error or a valid answer; a dropped connection (EOF,
              reset) is equally acceptable — what is NOT acceptable is a
              crash, which the healthy-client check below would expose *)
           let rec drain () =
             match Frame.read ~idle_timeout_ms:500. fd with
             | Some reply ->
               (match Vida_raw.Json.parse ~source:"fuzz-reply" reply with
               | Value.Record _ as v ->
                 check_bool
                   (Printf.sprintf "seed %d: reply is typed" seed)
                   true
                   (match Value.field_opt v "status" with
                   | Some (Value.String ("ok" | "error")) -> true
                   | _ -> false)
               | _ -> Alcotest.failf "seed %d: non-record reply" seed
               | exception Vida_error.Error _ ->
                 Alcotest.failf "seed %d: unparseable reply frame" seed);
               drain ()
             | None -> ()
           in
           drain ()
         with
        | Vida_error.Error _ | Frame.Timeout _ -> ()
        | Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
      done;
      (* the server survived the whole campaign: gauges drained, healthy
         queries still answered *)
      check_bool "admission drained after fuzzing" true
        (wait_for (fun () ->
             let st = Server.stats srv in
             st.Server.admission.G.Admission.running = 0
             && st.Server.admission.G.Admission.queued = 0));
      with_client srv (fun c ->
          let r = Server.Client.query c "for { n <- Nums } yield sum n.n" in
          check_string "healthy after fuzzing" "ok" (fld_str r "status");
          check_string "correct after fuzzing" "10"
            (Value.to_json (fld r "value"))));
  rm path

(* --- the self-healing client ------------------------------------------ *)

let test_resilient_client_reconnects () =
  let db, path = numbers_db () in
  with_server db (fun srv ->
      (* resets and stalls, but no corruption: every logical query must
         eventually be answered correctly via reconnect-and-resubmit *)
      let proxy =
        Chaos.start ~seed:42
          ~config:
            { Chaos.calm with
              Chaos.reset_p = 0.2; stall_p = 0.1; stall_ms = 20. }
          (Server.address srv)
      in
      Fun.protect ~finally:(fun () -> Chaos.stop proxy) (fun () ->
          let rc =
            Server.Client.connect_resilient
              ~retry:
                { Server.Client.default_retry with
                  Server.Client.max_attempts = 12; base_backoff_ms = 5.;
                  seed = 7 }
              (Chaos.address proxy)
          in
          Fun.protect
            ~finally:(fun () -> Server.Client.close_resilient rc)
            (fun () ->
              let ok = ref 0 in
              for _ = 1 to 25 do
                let reply =
                  Server.Client.rquery rc "for { n <- Nums } yield sum n.n"
                in
                match Value.field_opt reply "status" with
                | Some (Value.String "ok") ->
                  check_string "value correct through chaos" "10"
                    (Value.to_json (fld reply "value"));
                  incr ok
                | _ ->
                  Alcotest.failf "non-ok reply through lossy proxy: %s"
                    (Value.to_json reply)
              done;
              check_int "every logical query answered" 25 !ok;
              let st = Chaos.stats proxy in
              check_bool "the proxy actually misbehaved" true
                (st.Chaos.resets >= 1);
              check_bool "the client actually reconnected" true
                (Server.Client.reconnects rc >= 1))));
  rm path

let test_resilient_client_backoff () =
  let gate = Atomic.make false in
  let db = gated_db gate in
  (* one slot, no queue: the second query is shed with Overloaded and a
     retry-after hint; the resilient client must back off and win the
     slot once the gate opens *)
  let config =
    { Server.default_config with
      Server.admission =
        { G.Admission.default_config with
          G.Admission.max_concurrent = 1; max_queue = 0;
          queue_timeout_ms = 1.; retry_after_ms = 30. } }
  in
  with_server ~config db (fun srv ->
      let blocker = Server.Client.connect (Server.address srv) in
      let blocker_thread =
        Thread.create
          (fun () ->
            ignore (Server.Client.query blocker "for { s <- SlowSrc } yield count s"))
          ()
      in
      check_bool "slot occupied" true
        (wait_for (fun () ->
             (Server.stats srv).Server.admission.G.Admission.running = 1));
      let rc =
        Server.Client.connect_resilient
          ~retry:
            { Server.Client.default_retry with
              Server.Client.max_attempts = 40; base_backoff_ms = 10.;
              max_backoff_ms = 50.; seed = 3 }
          (Server.address srv)
      in
      (* open the gate mid-backoff: a retry then gets the slot *)
      let opener =
        Thread.create
          (fun () ->
            Thread.delay 0.15;
            Atomic.set gate true)
          ()
      in
      let reply = Server.Client.rquery rc "for { s <- SlowSrc } yield count s" in
      check_string "shed query eventually admitted" "ok" (fld_str reply "status");
      check_bool "client backed off on typed sheds" true
        (Server.Client.backoffs rc >= 1);
      Thread.join opener;
      Thread.join blocker_thread;
      Server.Client.close blocker;
      Server.Client.close_resilient rc)

(* --- kill -9 + warm restart ------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> rm path
  | exception Unix.Unix_error _ -> ()

(* A real server process is SIGKILLed with a client's query in flight; a
   replacement boots WARM on the same socket and state directory (stale
   socket file and stale state lock both reclaimed). The self-healing
   client must reconnect and complete the same logical query under its
   original stable request id. *)
let test_kill9_warm_restart () =
  let csv = tmp_file "n\n1\n2\n3\n4\n" in
  let state_dir =
    let p = Filename.temp_file "vida_res_state" "" in
    Sys.remove p;
    p
  in
  let sock = sock_path () in
  (* fork a server holding the socket and the state directory; the pipe
     byte signals it is accepting *)
  let spawn_server () =
    let r, w = Unix.pipe () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Unix.close r;
      (try
         let db = Vida.create ~state_dir ~domains:1 () in
         Vida.csv db ~name:"Nums" ~path:csv ();
         Vida.external_source db ~name:"Slow"
           ~element:(Ty.Record [ ("x", Ty.Int) ])
           ~count:(fun () -> 1)
           ~produce:(fun consumer ->
             Thread.delay 0.4;
             consumer (Value.Record [ ("x", Value.Int 7) ]));
         let config =
           { Server.default_config with Server.address = Server.Unix_socket sock }
         in
         let _srv = Server.create ~config db in
         ignore (Unix.write w (Bytes.of_string "R") 0 1);
         Unix.close w;
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
      pid
  in
  let pid1 = spawn_server () in
  let rc =
    Server.Client.connect_resilient
      ~retry:
        { Server.Client.default_retry with
          Server.Client.max_attempts = 60; base_backoff_ms = 25.;
          max_backoff_ms = 200.; seed = 11 }
      (Server.Unix_socket sock)
  in
  (* request id 1 warms the connection (and the server's state dir) *)
  let r1 = Server.Client.rquery rc "for { n <- Nums } yield sum n.n" in
  check_string "pre-crash query answered" "ok" (fld_str r1 "status");
  (* request id 2 is in flight when the server dies *)
  let reply = ref None in
  let querier =
    Thread.create
      (fun () -> reply := Some (Server.Client.rquery rc "for { s <- Slow } yield sum s.x"))
      ()
  in
  Thread.delay 0.1;
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  let pid2 = spawn_server () in
  Thread.join querier;
  (match !reply with
  | None -> Alcotest.fail "no reply after the restart"
  | Some reply ->
    check_string "completed across the kill" "ok" (fld_str reply "status");
    check_string "value correct after restart" "7"
      (Value.to_json (fld reply "value"));
    (* the resubmissions rode the SAME stable request id assigned before
       the kill: the second logical query of this client *)
    check_bool "stable request id" true
      (fld reply "id"
      = Value.String (Printf.sprintf "rq-%d-2" (Unix.getpid ()))));
  check_bool "the client actually reconnected" true
    (Server.Client.reconnects rc >= 1);
  (* the replacement booted warm: the state directory's artifacts were
     served from disk, visible in the health report *)
  let c = Server.Client.connect (Server.Unix_socket sock) in
  let h = Server.Client.health c in
  let state = fld (fld h "health") "state" in
  check_bool "state dir enabled" true
    (Value.field_opt state "enabled" = Some (Value.Bool true));
  check_bool "warm boot served artifacts from disk" true
    (match Value.field_opt state "warm_loads" with
    | Some (Value.Int n) -> n >= 1
    | _ -> false);
  check_bool "never degraded" true
    (Value.field_opt state "degraded" = Some (Value.Bool false));
  Server.Client.close c;
  Server.Client.close_resilient rc;
  Unix.kill pid2 Sys.sigkill;
  ignore (Unix.waitpid [] pid2);
  rm csv;
  rm sock;
  rm_rf state_dir

(* --- seeded network-chaos soak (`Slow; CI runs with -e) ---------------- *)

let test_network_chaos_soak () =
  let db, path = numbers_db () in
  let config =
    { Server.default_config with
      Server.admission =
        { G.Admission.default_config with
          G.Admission.max_concurrent = 8; max_queue = 64; per_tenant = 64;
          queue_timeout_ms = 5000. } }
  in
  with_server ~config db (fun srv ->
      let proxy =
        Chaos.start ~seed:1234
          ~config:
            { Chaos.corrupt_p = 0.05; stall_p = 0.05; stall_ms = 25.;
              reset_p = 0.06; tear_p = 0.04; delay_ms = 1. }
          (Server.address srv)
      in
      Fun.protect ~finally:(fun () -> Chaos.stop proxy) (fun () ->
          let queries =
            [| "for { n <- Nums } yield sum n.n";
               "for { n <- Nums } yield count n";
               "for { n <- Nums, n.n > 2 } yield sum n.n" |]
          in
          (* fault-free expectations from a cold instance *)
          let cold = Vida.create () in
          Vida.csv cold ~name:"Nums" ~path ();
          let expected =
            Array.map
              (fun q ->
                match Vida.query cold q with
                | Ok r -> Value.to_json r.Vida.value
                | Error e -> Alcotest.fail (Vida.error_to_string e))
              queries
          in
          let clients = 32 and rounds = 8 in
          let anomalies = Atomic.make 0 in
          let note fmt =
            Printf.ksprintf
              (fun msg ->
                Atomic.incr anomalies;
                prerr_endline ("soak anomaly: " ^ msg))
              fmt
          in
          let chaotic i () =
            let rc =
              Server.Client.connect_resilient
                ~retry:
                  { Server.Client.max_attempts = 8; base_backoff_ms = 5.;
                    max_backoff_ms = 100.; deadline_ms = Some 20_000.;
                    seed = i }
                (Chaos.address proxy)
            in
            for r = 0 to rounds - 1 do
              let qi = (i + r) mod Array.length queries in
              match Server.Client.rquery rc queries.(qi) with
              | reply -> (
                match Value.field_opt reply "status" with
                | Some (Value.String "ok") ->
                  (* a successful answer must be byte-identical to the
                     fault-free expectation *)
                  if Value.to_json (fld reply "value") <> expected.(qi) then
                    note "client %d round %d: wrong value %s" i r
                      (Value.to_json reply)
                | Some (Value.String "error") ->
                  (* typed: kind and message always present *)
                  if fld_str reply "kind" = "" then
                    note "client %d round %d: untyped error" i r
                | _ -> note "client %d round %d: malformed reply" i r)
              | exception Vida_error.Error _ ->
                (* attempts exhausted against an unlucky fault schedule:
                   acceptable, still typed *)
                ()
              | exception e ->
                note "client %d round %d: escaped %s" i r (Printexc.to_string e)
            done;
            Server.Client.close_resilient rc
          in
          (* healthy clients bypass the proxy: they must see NOTHING *)
          let healthy i () =
            let c = Server.Client.connect (Server.address srv) in
            for r = 0 to (rounds * 2) - 1 do
              let qi = (i + r) mod Array.length queries in
              match Server.Client.query c queries.(qi) with
              | reply ->
                if fld_str reply "status" <> "ok" then
                  note "healthy %d round %d: %s" i r (Value.to_json reply)
                else if Value.to_json (fld reply "value") <> expected.(qi) then
                  note "healthy %d round %d: wrong value" i r
              | exception e ->
                note "healthy %d round %d: escaped %s" i r
                  (Printexc.to_string e)
            done;
            Server.Client.close c
          in
          let threads =
            List.init clients (fun i -> Thread.create (chaotic i) ())
            @ List.init 4 (fun i -> Thread.create (healthy i) ())
          in
          List.iter Thread.join threads;
          check_int "zero anomalies" 0 (Atomic.get anomalies);
          (* the server survived: gauges drain to zero and fresh direct
             traffic is served correctly *)
          check_bool "admission drained" true
            (wait_for ~timeout_s:10. (fun () ->
                 let st = Server.stats srv in
                 st.Server.admission.G.Admission.running = 0
                 && st.Server.admission.G.Admission.queued = 0));
          with_client srv (fun c ->
              let r = Server.Client.query c queries.(0) in
              check_string "alive after the storm" "ok" (fld_str r "status");
              check_string "correct after the storm" expected.(0)
                (Value.to_json (fld r "value")));
          let st = Chaos.stats proxy in
          check_bool "the storm was real" true
            (st.Chaos.resets + st.Chaos.tears + st.Chaos.corruptions >= 10)));
  rm path

let tests =
  (* "restart" must run first: it forks server processes, and Unix.fork
     is only legal while this process has spawned no domains — every
     in-process Server.create below leaves pool domains running *)
  [ ("restart",
     [ Alcotest.test_case "kill -9 + warm restart" `Quick test_kill9_warm_restart ]);
    ("breaker",
     [ Alcotest.test_case "state machine" `Quick test_breaker_states;
       Alcotest.test_case "end to end" `Quick test_breaker_end_to_end ]);
    ("deadlines",
     [ Alcotest.test_case "idle reaping + heartbeats" `Quick test_idle_reaping;
       Alcotest.test_case "slowloris drop" `Quick test_slowloris_drop;
       Alcotest.test_case "deadline propagation" `Quick test_deadline_propagation ]);
    ("control",
     [ Alcotest.test_case "ping + health" `Quick test_ping_health ]);
    ("sockets",
     [ Alcotest.test_case "stale socket reclaimed" `Quick test_stale_socket_recovery;
       Alcotest.test_case "live socket not stolen" `Quick test_live_socket_not_stolen ]);
    ("drain",
     [ Alcotest.test_case "graceful drain" `Quick test_graceful_drain ]);
    ("fuzz",
     [ Alcotest.test_case "frame fuzzing" `Quick test_frame_fuzzing ]);
    ("client",
     [ Alcotest.test_case "reconnect and resubmit" `Quick test_resilient_client_reconnects;
       Alcotest.test_case "backoff on shed" `Quick test_resilient_client_backoff ]);
    ("soak",
     [ Alcotest.test_case "network chaos" `Slow test_network_chaos_soak ]) ]

let () = Alcotest.run "resilience" tests
