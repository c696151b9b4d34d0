(* Serving-layer suite: the framed protocol, the multi-session front end,
   admission control and overload shedding, plan-cache correctness under
   catalog churn, disconnect cancellation, session fault isolation, and a
   seeded many-client chaos soak with a differential check against a cold
   instance. *)

open Vida_data
module Server = Vida_server.Server
module Frame = Vida_server.Frame
module G = Vida_governor.Governor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp_file contents =
  let path = Filename.temp_file "vida_srv" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let append_file path contents =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc contents;
  close_out oc

let rm path = try Sys.remove path with Sys_error _ -> ()

let sock_path () =
  let path = Filename.temp_file "vida_srv" ".sock" in
  Sys.remove path;
  path

(* JSON record field access on a parsed reply *)
let fld reply name =
  match Value.field_opt reply name with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (Value.to_json reply)

let fld_str reply name =
  match fld reply name with
  | Value.String s -> s
  | v -> Alcotest.failf "field %S not a string: %s" name (Value.to_json v)

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

(* A source whose scan blocks until [gate] opens, polling the governor so
   cancellation/deadlines are observed promptly. *)
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

(* --- frame layer ----------------------------------------------------- *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Frame.write a "hello";
  Frame.write a "";
  Frame.write a (String.make 70_000 'x');
  check_string "first frame" "hello" (Option.get (Frame.read b));
  check_string "empty frame" "" (Option.get (Frame.read b));
  check_int "large frame" 70_000 (String.length (Option.get (Frame.read b)));
  Unix.close a;
  check_bool "clean EOF" true (Frame.read b = None);
  Unix.close b

let test_frame_guards () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* mid-frame EOF: header promises 10 bytes, peer sends 3 then closes *)
  let buf = Bytes.create 7 in
  Bytes.set_int32_be buf 0 10l;
  Bytes.blit_string "abc" 0 buf 4 3;
  ignore (Unix.write a buf 0 7);
  Unix.close a;
  check_bool "truncated frame" true
    (match Frame.read b with
    | exception Vida_error.Error (Vida_error.Truncated _) -> true
    | _ -> false);
  Unix.close b;
  (* oversize length prefix is refused before allocation *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 0x40000000l;
  ignore (Unix.write a hdr 0 4);
  check_bool "oversize frame" true
    (match Frame.read ~max_bytes:1024 b with
    | exception Vida_error.Error (Vida_error.Resource_limit _) -> true
    | _ -> false);
  Unix.close a;
  Unix.close b

(* --- serve / roundtrip ----------------------------------------------- *)

let test_serve_roundtrip () =
  let db, path = numbers_db () in
  with_server db (fun srv ->
      with_client srv (fun c ->
          let r = Server.Client.query c "for { n <- Nums } yield sum n.n" in
          check_string "status" "ok" (fld_str r "status");
          check_string "value" "10" (Value.to_json (fld r "value"));
          check_bool "id echoed" true (fld r "id" = Value.Int 1);
          let r = Server.Client.query ~syntax:`Sql c "SELECT COUNT( * ) FROM Nums x" in
          check_string "sql status" "ok" (fld_str r "status");
          check_bool "sql id" true (fld r "id" = Value.Int 2);
          (* typed failure stays on the same connection *)
          let r = Server.Client.query c "for { n <- Nums } yield sum n.nope" in
          check_string "error status" "error" (fld_str r "status");
          check_string "error kind" "type" (fld_str r "kind");
          let r = Server.Client.query c "for { n <- Nums } yield count n" in
          check_string "alive after error" "ok" (fld_str r "status"));
      let st = Server.stats srv in
      check_int "served" 4 st.Server.served;
      check_int "shed" 0 st.Server.shed);
  rm path

(* A cached framed round trip is no raw access: the request and reply
   frames are parsed without charging [objects_parsed], and revalidating
   the warm sources reads no bytes. The spliced ok frame is exactly the
   canonical encoding of the reply record. *)
let test_cached_roundtrip_reads_nothing () =
  let db, path = numbers_db () in
  let regions = tmp_file "{\"id\": 1, \"v\": 2.5}\n{\"id\": 2, \"v\": 4.0}\n" in
  Vida.json db ~name:"Regions" ~path:regions ();
  let q = "for { n <- Nums, r <- Regions, n.n = r.id } yield sum r.v" in
  with_server db (fun srv ->
      with_client srv (fun c ->
          let first = Server.Client.query c q in
          check_string "first status" "ok" (fld_str first "status");
          let before = Vida_raw.Io_stats.current () in
          let reply = Server.Client.query c q in
          let io = Vida_raw.Io_stats.diff (Vida_raw.Io_stats.current ()) before in
          check_string "result-cache hit" "hit" (fld_str reply "result_cache");
          check_string "value" "6.5" (Value.to_json (fld reply "value"));
          check_int "bytes_read" 0 io.Vida_raw.Io_stats.bytes_read;
          check_int "objects_parsed" 0 io.Vida_raw.Io_stats.objects_parsed;
          let raw =
            Server.Client.roundtrip c
              (Value.to_json
                 (Value.Record
                    [ ("id", Value.Int 9); ("query", Value.String q);
                      ("syntax", Value.String "comp") ]))
          in
          check_string "canonical frame" (Value.to_json (Vida_raw.Json.parse raw)) raw));
  rm path;
  rm regions

let test_serve_unix_socket () =
  let db, path = numbers_db () in
  let sock = sock_path () in
  let config =
    { Server.default_config with
      Server.address = Server.Unix_socket sock }
  in
  with_server ~config db (fun srv ->
      with_client srv (fun c ->
          let r = Server.Client.query c "for { n <- Nums } yield count n" in
          check_string "status" "ok" (fld_str r "status");
          check_string "value" "4" (Value.to_json (fld r "value"))));
  check_bool "socket unlinked after stop" false (Sys.file_exists sock);
  rm path

let test_bad_request () =
  let db, path = numbers_db () in
  with_server db (fun srv ->
      with_client srv (fun c ->
          let r =
            Vida_raw.Json.parse ~source:"reply"
              (Server.Client.roundtrip c "{\"no_query\": 1}")
          in
          check_string "status" "error" (fld_str r "status");
          check_string "kind" "invalid" (fld_str r "kind");
          let r =
            Vida_raw.Json.parse ~source:"reply"
              (Server.Client.roundtrip c "not json at all")
          in
          check_string "unparsable" "error" (fld_str r "status");
          (* connection survives garbage *)
          let r = Server.Client.query c "for { n <- Nums } yield count n" in
          check_string "alive" "ok" (fld_str r "status")));
  rm path

(* --- plan cache ------------------------------------------------------ *)

let test_plan_cache_markers () =
  let db, path = numbers_db () in
  with_server db (fun srv ->
      with_client srv (fun c ->
          let q = "for { n <- Nums } yield sum n.n" in
          let r1 = Server.Client.query c q in
          check_string "first is a miss" "miss" (fld_str r1 "cache");
          let r2 = Server.Client.query c q in
          check_string "second hits" "hit" (fld_str r2 "cache");
          check_string "hit answer" "10" (Value.to_json (fld r2 "value"));
          (* the result cache answered too: same instance, same epoch *)
          check_string "result cache" "hit" (fld_str r2 "result_cache");
          (* a second connection shares the plan cache *)
          with_client srv (fun c2 ->
              let r3 = Server.Client.query c2 q in
              check_string "cross-session hit" "hit" (fld_str r3 "cache"));
          (* appending invalidates: fingerprints went stale *)
          append_file path "5\n";
          let r4 = Server.Client.query c q in
          check_string "stale plan dropped" "miss" (fld_str r4 "cache");
          check_string "fresh answer" "15" (Value.to_json (fld r4 "value"));
          (* r4 re-derived its plan inside its own epoch, after its
             refresh bumped the catalog revision, and stored it under the
             post-append revision and fingerprints: r5 hits at once *)
          let r5 = Server.Client.query c q in
          check_string "re-primed" "hit" (fld_str r5 "cache");
          let r6 = Server.Client.query c q in
          check_string "re-cached" "hit" (fld_str r6 "cache")));
  let st = Vida.stats db in
  check_bool "hits counted" true (st.Vida.plan_cache_hits >= 3);
  check_bool "misses counted" true (st.Vida.plan_cache_misses >= 2);
  rm path

let test_plan_cache_catalog_rev () =
  (* registration and parameter binds bump the catalog revision, so a
     cached plan can never leak across a schema-affecting change *)
  let db, path = numbers_db () in
  let q = "for { n <- Nums } yield count n" in
  let miss_then_hit label =
    match (Vida.query db q, Vida.query db q) with
    | Ok a, Ok b ->
      check_bool (label ^ ": first miss") false a.Vida.plan_from_cache;
      check_bool (label ^ ": then hit") true b.Vida.plan_from_cache
    | _ -> Alcotest.failf "%s: query failed" label
  in
  miss_then_hit "initial";
  Vida.inline db ~name:"Other" (Value.List [ Value.Int 1 ]);
  miss_then_hit "after registration";
  Vida.bind_param db "p" (Value.Int 1);
  miss_then_hit "after bind_param";
  rm path

(* --- admission: shedding, tenants, degradation ----------------------- *)

let shed_config =
  { G.Admission.default_config with
    G.Admission.max_concurrent = 1; max_queue = 0; per_tenant = 1;
    queue_timeout_ms = 50.; retry_after_ms = 25. }

let test_overload_shed () =
  let gate = Atomic.make false in
  let db = gated_db gate in
  let config =
    { Server.default_config with Server.admission = shed_config }
  in
  with_server ~config db (fun srv ->
      with_client srv (fun c1 ->
          with_client srv (fun c2 ->
              (* c1 occupies the only admission slot… *)
              let slow = Thread.create (fun () ->
                  ignore (Server.Client.query c1 "for { s <- SlowSrc } yield count s")) ()
              in
              Thread.delay 0.1;
              (* …so c2 is shed with the full typed refusal *)
              let r = Server.Client.query c2 "for { s <- SlowSrc } yield count s" in
              check_string "status" "error" (fld_str r "status");
              check_string "kind" "overloaded" (fld_str r "kind");
              check_bool "exit code 77" true (fld r "code" = Value.Int 77);
              check_bool "retry-after hint" true
                (match fld r "retry_after_ms" with
                | Value.Float f -> f > 0.
                | _ -> false);
              Atomic.set gate true;
              Thread.join slow));
      let st = Server.stats srv in
      check_int "one shed" 1 st.Server.shed;
      check_int "one served" 1 st.Server.served;
      check_int "no admitted residue" 0 st.Server.admission.G.Admission.running;
      check_int "no queued residue" 0 st.Server.admission.G.Admission.queued)

let test_per_tenant_cap () =
  let gate = Atomic.make false in
  let db = gated_db gate in
  let config =
    { Server.default_config with
      Server.admission =
        { G.Admission.default_config with
          G.Admission.max_concurrent = 4; max_queue = 0; per_tenant = 1;
          queue_timeout_ms = 50.; retry_after_ms = 25. } }
  in
  with_server ~config db (fun srv ->
      with_client srv (fun c1 ->
          with_client srv (fun c2 ->
              with_client srv (fun c3 ->
                  let ra = ref Value.Null and rb = ref Value.Null in
                  let slow = Thread.create (fun () ->
                      ra :=
                        Server.Client.query ~tenant:"acme" c1
                          "for { s <- SlowSrc } yield count s") ()
                  in
                  Thread.delay 0.1;
                  (* same tenant: capped out; different tenant: admitted *)
                  let r2 =
                    Server.Client.query ~tenant:"acme" c2
                      "for { s <- SlowSrc } yield count s"
                  in
                  check_string "same tenant shed" "overloaded"
                    (fld_str r2 "kind");
                  let other = Thread.create (fun () ->
                      rb :=
                        Server.Client.query ~tenant:"globex" c3
                          "for { s <- SlowSrc } yield count s") ()
                  in
                  Thread.delay 0.05;
                  Atomic.set gate true;
                  Thread.join slow;
                  Thread.join other;
                  check_string "acme ok" "ok" (fld_str !ra "status");
                  check_string "globex ok" "ok" (fld_str !rb "status")))))

(* --- disconnect cancellation ----------------------------------------- *)

(* a raw socket we can slam shut mid-query, unlike the polite Client *)
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

let describe_stats (st : Server.stats) =
  let a = st.Server.admission in
  Printf.sprintf
    "running=%d queued=%d admitted=%d shed=%d active_connections=%d served=%d \
     disconnect_cancels=%d pool_active_regions=%d pool_inflight=%d"
    a.G.Admission.running a.G.Admission.queued a.G.Admission.admitted_total
    a.G.Admission.shed_total st.Server.active_connections st.Server.served
    st.Server.disconnect_cancels st.Server.pool.Vida_raw.Morsel.Pool.active_regions
    st.Server.pool.Vida_raw.Morsel.Pool.inflight

(* A test-local watchdog over one step: a step still running after
   [limit_s] prints its name and a [Server.stats] snapshot (given a few
   seconds of its own, since the snapshot may block on the stuck lock),
   then ends the process with a failure. A hang fails the run; nothing is
   retried or skipped. *)
let watched ?(limit_s = 60.) srv step f =
  let finished = Atomic.make false in
  let deadline = Unix.gettimeofday () +. limit_s in
  let _dog : Thread.t =
    Thread.create
      (fun () ->
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        if not (Atomic.get finished) then (
          Printf.eprintf "watchdog: step %S still running after %.0f s\n%!" step limit_s;
          let _snapshot : Thread.t =
            Thread.create
              (fun () ->
                Printf.eprintf "watchdog: Server.stats: %s\n%!"
                  (describe_stats (Server.stats srv)))
              ()
          in
          Thread.delay 5.;
          Printf.eprintf "watchdog: failing the test run\n%!";
          Unix._exit 70))
      ()
  in
  Fun.protect ~finally:(fun () -> Atomic.set finished true) f

let test_disconnect_cancels () =
  let gate = Atomic.make false in
  let db = gated_db gate in
  let srv = Server.create db in
  Fun.protect
    ~finally:(fun () -> watched srv "Server.stop" (fun () -> Server.stop srv))
    (fun () ->
      let fd = raw_connect (Server.address srv) in
      Frame.write fd "{\"id\": 9, \"query\": \"for { s <- SlowSrc } yield count s\"}";
      (* let the query reach the gated scan, then vanish *)
      check_bool "query admitted" true
        (wait_for (fun () ->
             (Server.stats srv).Server.admission.G.Admission.running = 1));
      Unix.close fd;
      check_bool "disconnect noticed and cancelled" true
        (wait_for (fun () ->
             (Server.stats srv).Server.disconnect_cancels = 1));
      (* the cancelled query's slot and session drain without the gate
         ever opening: cancellation interrupted the scan *)
      check_bool "slot released" true
        (wait_for (fun () ->
             let st = Server.stats srv in
             st.Server.admission.G.Admission.running = 0
             && st.Server.active_connections = 0));
      (* each step from here on runs under the watchdog *)
      let st = watched srv "Server.stats" (fun () -> Server.stats srv) in
      check_int "no queue residue" 0 st.Server.admission.G.Admission.queued;
      check_int "pool regions drained" 0
        st.Server.pool.Vida_raw.Morsel.Pool.active_regions;
      (* untouched clients keep working afterwards *)
      Atomic.set gate true;
      watched srv "post-cancel query" (fun () ->
          with_client srv (fun c ->
              let r = Server.Client.query c "for { s <- SlowSrc } yield count s" in
              check_string "post-cancel query ok" "ok" (fld_str r "status"))))

(* A request pipelined behind one still running leaves the socket
   readable with a live peer: the connection thread must neither mistake
   it for a disconnect nor lose it, and answers both in order. *)
let test_pipelined_requests () =
  let gate = Atomic.make false in
  let db = gated_db gate in
  with_server db (fun srv ->
      let fd = raw_connect (Server.address srv) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Frame.write fd {|{"id": 1, "query": "for { s <- SlowSrc } yield count s"}|};
          Frame.write fd {|{"id": 2, "query": "for { s <- SlowSrc } yield sum s.x"}|};
          check_bool "first admitted" true
            (wait_for (fun () ->
                 (Server.stats srv).Server.admission.G.Admission.running = 1));
          (* long enough for the waiting thread to see the buffered frame *)
          Thread.delay 0.1;
          Atomic.set gate true;
          let reply () =
            match Frame.read fd with
            | Some raw -> Vida_raw.Json.parse ~source:"reply" raw
            | None -> Alcotest.fail "connection closed"
          in
          let r1 = reply () in
          let r2 = reply () in
          check_bool "first id" true (fld r1 "id" = Value.Int 1);
          check_string "first value" "1" (Value.to_json (fld r1 "value"));
          check_bool "second id" true (fld r2 "id" = Value.Int 2);
          check_string "second value" "7" (Value.to_json (fld r2 "value")));
      check_int "no false disconnect" 0 (Server.stats srv).Server.disconnect_cancels)

(* --- revalidation cost and reply encoding ---------------------------- *)

let probe_config =
  { Vida_workload.Hbp_data.patients_rows = 60; patients_attrs = 12;
    genetics_rows = 80; genetics_attrs = 16; regions_objects = 40;
    regions_per_object = 2; seed = 5 }

(* A cached answer to the three-source join revalidates each source with
   exactly one file probe: the delta check's probe is the fingerprint the
   query pins, and the cached plan and result validate against the pins. *)
let test_cached_probes_per_source () =
  let dir = Filename.temp_file "vida_srv_probes" "" in
  Sys.remove dir;
  let paths = Vida_workload.Hbp_data.generate probe_config ~dir in
  let db = Vida.create ~domains:1 () in
  Vida.csv db ~name:"Patients" ~path:paths.Vida_workload.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:paths.Vida_workload.Hbp_data.genetics ();
  Vida.json db ~name:"BrainRegions" ~path:paths.Vida_workload.Hbp_data.regions ();
  let q =
    "for { p <- Patients, g <- Genetics, b <- BrainRegions, p.id = g.id, \
     g.id = b.id, p.age > 40 } yield count p"
  in
  let probed text =
    let before = Vida_raw.Fingerprint.probes () in
    match Vida.query db text with
    | Ok r -> (r, Vida_raw.Fingerprint.probes () - before)
    | Error e -> Alcotest.failf "query failed: %s" (Vida.error_to_string e)
  in
  let first, _ = probed q in
  let hit, n = probed q in
  check_bool "plan-cache hit" true hit.Vida.plan_from_cache;
  check_bool "result-cache hit" true hit.Vida.from_result_cache;
  check_int "one probe per source on a cached answer" 3 n;
  (* another text for the same plan: a plan-cache miss answered from the
     result cache, which also probes each source once (twice before) *)
  let miss, n = probed (q ^ " ") in
  check_bool "plan-cache miss" false miss.Vida.plan_from_cache;
  check_bool "same cached result" true miss.Vida.from_result_cache;
  check_int "one probe per source on a plan-cache miss" 3 n;
  check_bool "same answer" true (Value.equal first.Vida.value miss.Vida.value);
  List.iter rm
    [ paths.Vida_workload.Hbp_data.patients; paths.Vida_workload.Hbp_data.genetics;
      paths.Vida_workload.Hbp_data.regions ];
  try Sys.rmdir dir with Sys_error _ -> ()

(* After an append, the next reply carries the new value under a tag that
   is right for it: the encoding memoized for the old cached result is
   discarded with that result, never spliced into a frame. *)
let test_append_reply_encoding () =
  let db, path = numbers_db () in
  let q = "for { n <- Nums } yield sum n.n" in
  let raw_query c id =
    Server.Client.roundtrip c
      (Value.to_json
         (Value.Record [ ("id", Value.Int id); ("query", Value.String q) ]))
  in
  let tag raw =
    match fld (Vida_raw.Json.parse raw) "v_crc" with
    | Value.Int crc -> crc
    | v -> Alcotest.failf "v_crc not an int: %s" (Value.to_json v)
  in
  with_server db (fun srv ->
      with_client srv (fun c ->
          ignore (raw_query c 1);
          let cached = raw_query c 2 in
          check_string "cached" "hit" (fld_str (Vida_raw.Json.parse cached) "result_cache");
          check_int "cached tag" (Value.fnv64 "10") (tag cached);
          append_file path "5\n";
          let fresh = raw_query c 3 in
          let reply = Vida_raw.Json.parse fresh in
          check_string "recomputed" "miss" (fld_str reply "result_cache");
          check_string "new value" "15" (Value.to_json (fld reply "value"));
          check_int "tag of the new value" (Value.fnv64 "15") (tag fresh);
          check_string "canonical frame" (Value.to_json reply) fresh;
          let again = raw_query c 4 in
          check_string "new value cached" "15"
            (Value.to_json (fld (Vida_raw.Json.parse again) "value"));
          check_int "cached tag of the new value" (Value.fnv64 "15") (tag again)));
  rm path

(* --- session fault isolation ----------------------------------------- *)

let test_fault_isolation () =
  let db, path = numbers_db () in
  with_server db (fun srv ->
      with_client srv (fun bad ->
          with_client srv (fun good ->
              for i = 1 to 5 do
                let r = Server.Client.query bad "for { x <- NoSuch } yield count x" in
                check_string "bad fails" "error" (fld_str r "status");
                let r =
                  Server.Client.query good "for { n <- Nums } yield count n"
                in
                check_string
                  (Printf.sprintf "good round %d unaffected" i)
                  "ok" (fld_str r "status")
              done)));
  rm path

(* --- shared-cache stress (satellite): sessions hammering overlapping
   sources while one appends and one is cancelled mid-scan --------------- *)

let test_shared_cache_stress () =
  let pa = tmp_file "v\n1\n2\n3\n" in
  let pb = tmp_file "w\n10\n20\n" in
  let db = Vida.create () in
  Vida.csv db ~name:"A" ~path:pa ();
  Vida.csv db ~name:"B" ~path:pb ();
  let gate = Atomic.make false in
  Vida.external_source db ~name:"Gated" ~element:(Ty.Record [ ("x", Ty.Int) ])
    ~count:(fun () -> 1)
    ~produce:(fun consumer ->
      while not (Atomic.get gate) do
        G.poll ();
        Thread.delay 0.002
      done;
      consumer (Value.Record [ ("x", Value.Int 1) ]));
  let queries =
    [| "for { a <- A } yield sum a.v"; "for { a <- A, a.v > 1 } yield count a";
       "for { b <- B } yield sum b.w"; "for { a <- A, b <- B } yield sum a.v + b.w" |]
  in
  let ok = Atomic.make 0 and failed = Atomic.make 0 in
  (* four reader sessions on their own domains, sharing every cache *)
  let readers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let s = Vida.open_session db ~name:(Printf.sprintf "reader-%d" d) in
            for i = 0 to 19 do
              match Vida.submit s queries.((d + i) mod 4) with
              | Ok _ -> Atomic.incr ok
              | Error _ -> Atomic.incr failed
            done;
            Vida.close_session s))
  in
  (* one session is cancelled mid-scan on the gated source *)
  let victim = Vida.open_session db ~name:"victim" in
  let victim_d =
    Domain.spawn (fun () -> Vida.submit victim "for { g <- Gated } yield count g")
  in
  (* one appender mutating a shared source under the readers *)
  for _ = 1 to 5 do
    Thread.delay 0.01;
    append_file pa "9\n"
  done;
  Thread.delay 0.05;
  Vida.cancel victim ~reason:"stress: mid-scan cancel";
  let victim_result = Domain.join victim_d in
  check_bool "victim cancelled, not hung" true
    (match victim_result with
    | Error (Vida.Data_error (Vida_error.Cancelled _)) -> true
    | Error _ -> true (* raced to another typed error: still not a hang *)
    | Ok _ -> false);
  List.iter Domain.join readers;
  Vida.close_session victim;
  check_int "all reader queries accounted for" 80
    (Atomic.get ok + Atomic.get failed);
  check_int "no reader failed" 0 (Atomic.get failed);
  (* no stale serves: a fresh read sees every appended row *)
  (match Vida.query db "for { a <- A } yield count a" with
  | Ok r -> check_string "final count fresh" "8" (Value.to_json r.Vida.value)
  | Error e -> Alcotest.failf "final read: %s" (Vida.error_to_string e));
  Atomic.set gate true;
  rm pa;
  rm pb

(* --- chaos soak (Slow; CI's server-soak job runs it with [-e]) -------- *)

let test_chaos_soak () =
  let seed = try int_of_string (Sys.getenv "VIDA_SOAK_SEED") with _ -> 0xC1DA in
  let path = tmp_file "v\n1\n2\n3\n" in
  let db = Vida.create () in
  Vida.csv db ~name:"S" ~path ();
  let config =
    { Server.default_config with
      Server.admission =
        { G.Admission.default_config with
          G.Admission.max_concurrent = 4; max_queue = 8;
          queue_timeout_ms = 2000. } }
  in
  let queries =
    [| "for { s <- S } yield sum s.v"; "for { s <- S } yield count s";
       "for { s <- S, s.v > 1 } yield count s"; "for { s <- S } yield max s.v" |]
  in
  let appends = Atomic.make 0 in
  with_server ~config db (fun srv ->
      let results = Array.make 32 [] in
      let clients =
        List.init 32 (fun i ->
            (* per-client generator: the run is replayable from one seed
               even though clients interleave freely *)
            let rng = Random.State.make [| seed; i |] in
            let kill_round =
              (* a third of the clients die abruptly mid-run *)
              if i mod 3 = 0 then 2 + Random.State.int rng 4 else max_int
            in
            Thread.create
              (fun () ->
                let c = Server.Client.connect (Server.address srv) in
                (try
                   for round = 0 to 7 do
                     if round = kill_round then (
                       Server.Client.close c;
                       raise Exit);
                     let q = queries.(Random.State.int rng 4) in
                     let r =
                       Server.Client.query
                         ~tenant:(Printf.sprintf "t%d" (i mod 5))
                         c q
                     in
                     (match fld_str r "status" with
                     | "ok" ->
                       results.(i) <-
                         (q, Value.to_json (fld r "value")) :: results.(i)
                     | _ ->
                       check_string "only typed refusals" "overloaded"
                         (fld_str r "kind"));
                     Thread.delay (float_of_int (Random.State.int rng 5) /. 500.)
                   done;
                   Server.Client.close c
                 with Exit | Vida_error.Error _ | Unix.Unix_error _ -> ()))
              ())
      in
      (* source mutations under load *)
      let mutator =
        Thread.create
          (fun () ->
            for _ = 1 to 6 do
              Thread.delay 0.05;
              append_file path (Printf.sprintf "%d\n" (4 + Atomic.get appends));
              Atomic.incr appends
            done)
          ()
      in
      List.iter Thread.join clients;
      Thread.join mutator;
      (* leak check: all occupancy gauges return to zero *)
      check_bool "admission drained" true
        (wait_for (fun () ->
             let g = (Server.stats srv).Server.admission in
             g.G.Admission.running = 0 && g.G.Admission.queued = 0));
      check_bool "pool drained" true
        (wait_for (fun () ->
             (Server.stats srv).Server.pool.Vida_raw.Morsel.Pool.active_regions
             = 0));
      (* differential: every surviving final answer must match a cold
         instance reading today's file generation *)
      let cold = Vida.create () in
      Vida.csv cold ~name:"S" ~path ();
      let expect q =
        match Vida.query cold q with
        | Ok r -> Value.to_json r.Vida.value
        | Error e -> Alcotest.failf "cold %s: %s" q (Vida.error_to_string e)
      in
      (* answers observed after the last append must equal the cold run *)
      let last_gen = Array.map expect queries in
      Array.iteri
        (fun qi q ->
          (* re-ask through a fresh connection: served from shared caches *)
          with_client srv (fun c ->
              let r = Server.Client.query c q in
              check_string "post-soak status ok" "ok" (fld_str r "status");
              check_string
                (Printf.sprintf "differential %s" q)
                last_gen.(qi)
                (Value.to_json (fld r "value"))))
        queries;
      (* historical answers must be internally consistent: monotone counts
         under pure appends *)
      Array.iter
        (fun per_client ->
          let counts =
            List.filter_map
              (fun (q, v) ->
                if q = "for { s <- S } yield count s" then int_of_string_opt v else None)
              per_client
          in
          (* results were prepended, so the list is newest-first *)
          ignore
            (List.fold_left
               (fun newer older ->
                 check_bool "counts monotone under appends" true
                   (older <= newer);
                 older)
               max_int counts))
        results);
  rm path

(* Domain sizing is snapshotted at startup: a mid-run environment
   mutation must never re-size a shared pool between sessions. *)
let test_env_snapshot () =
  let module Morsel = Vida_raw.Morsel in
  let before_resolve = Morsel.resolve () in
  let before_override = Morsel.override () in
  Unix.putenv "VIDA_DOMAINS" "63";
  check_int "resolution immune to mid-run env mutation" before_resolve
    (Morsel.resolve ());
  check_bool "override snapshot stable" true
    (Morsel.override () = before_override)

let tests =
  [ ("config",
     [ Alcotest.test_case "VIDA_DOMAINS snapshot" `Quick test_env_snapshot ]);
    ("frame",
     [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
       Alcotest.test_case "guards" `Quick test_frame_guards ]);
    ("serve",
     [ Alcotest.test_case "roundtrip" `Quick test_serve_roundtrip;
       Alcotest.test_case "cached roundtrip reads nothing" `Quick
         test_cached_roundtrip_reads_nothing;
       Alcotest.test_case "unix socket" `Quick test_serve_unix_socket;
       Alcotest.test_case "bad request" `Quick test_bad_request ]);
    ("plan cache",
     [ Alcotest.test_case "markers" `Quick test_plan_cache_markers;
       Alcotest.test_case "catalog rev" `Quick test_plan_cache_catalog_rev;
       Alcotest.test_case "probes per source" `Quick test_cached_probes_per_source;
       Alcotest.test_case "append re-encodes reply" `Quick test_append_reply_encoding ]);
    ("admission",
     [ Alcotest.test_case "overload shed" `Quick test_overload_shed;
       Alcotest.test_case "per-tenant cap" `Quick test_per_tenant_cap ]);
    ("cancel",
     [ Alcotest.test_case "disconnect cancels" `Quick test_disconnect_cancels;
       Alcotest.test_case "pipelined requests" `Quick test_pipelined_requests ]);
    ("isolation",
     [ Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
       Alcotest.test_case "shared-cache stress" `Quick test_shared_cache_stress ]);
    ("soak", [ Alcotest.test_case "chaos soak" `Slow test_chaos_soak ]) ]

let () = Alcotest.run "server" tests
