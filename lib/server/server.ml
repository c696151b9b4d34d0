open Vida_data
module G = Vida_governor.Governor
module Morsel = Vida_raw.Morsel

type address = Tcp of { host : string; port : int } | Unix_socket of string

type config = {
  address : address;
  admission : G.Admission.config;
  pool_domains : int option;
  executors : int option;
  max_frame_bytes : int;
  idle_timeout_ms : float option;
  frame_timeout_ms : float option;
  write_timeout_ms : float option;
  drain_ms : float;
}

let default_config =
  { address = Tcp { host = "127.0.0.1"; port = 0 };
    admission = G.Admission.default_config; pool_domains = None;
    executors = None; max_frame_bytes = Frame.default_max_bytes;
    idle_timeout_ms = None; frame_timeout_ms = Some 10_000.;
    write_timeout_ms = Some 10_000.; drain_ms = 0. }

(* A parsed query request frame. *)
type request = {
  req_id : Value.t;  (* echoed verbatim in the response *)
  query : string;
  syntax : [ `Comp | `Sql ];
  tenant : string option;  (* admission accounting; connection default else *)
  deadline_ms : float option;
      (* the client's remaining budget across its retries; caps the
         queue wait and the query deadline (never widens them) *)
}

(* One admitted query travelling from a connection thread to an executor
   domain and back. Queries must run on a domain of their own — the
   governor session and epoch are ambient per {e domain}, while every
   connection thread shares domain 0 — so connection threads only do
   socket IO and hand the work to the executor pool. The executor wakes
   the waiting connection thread through [wake], the write end of that
   connection's wake pipe. *)
type job = {
  run : unit -> string;
  mutable reply : string option;
  j_lock : Vida_sync.Lock.t;
  wake : Unix.file_descr;
}

type conn = { c_fd : Unix.file_descr; c_thread : Thread.t }

type t = {
  db : Vida.t;
  config : config;
  adm : G.Admission.t;
  pool : Morsel.Pool.t;
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  queue : job Queue.t;
  lock : Vida_sync.Lock.t;
  work : Condition.t;
  mutable stopping : bool;
  mutable execs : unit Domain.t list;
  mutable acceptor : Thread.t option;
  mutable conns : conn list;
  mutable served : int;
  mutable shed : int;
  mutable disconnect_cancels : int;
  mutable idle_reaped : int;
  mutable slow_frame_drops : int;
  mutable write_timeouts : int;
  mutable pings : int;
}

type stats = {
  admission : G.Admission.gauges;
  pool : Morsel.Pool.stats;
  active_connections : int;
  served : int;
  shed : int;
  disconnect_cancels : int;
  idle_reaped : int;
  slow_frame_drops : int;
  write_timeouts : int;
  pings : int;
  breakers : G.Breaker.snapshot list;
}

(* SIGPIPE would kill the whole process when a peer closes mid-write;
   ignoring it turns the condition into [EPIPE], which {!Frame} reports
   as a typed disconnect. Idempotent; a no-op on platforms without it. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* --- response payloads --- *)

let field name v rest = (name, v) :: rest

let respond fields = Value.to_json (Value.Record fields)

(* End-to-end integrity tags ({!Value.fnv64}) for the payloads that
   matter: a request carries the tag of its query text ([q_crc]) and an ok
   reply the tag of its value ([v_crc]). TCP's own checksum is per-hop; a
   fault-injecting proxy (or a flaky middlebox) can flip bits that still
   parse as valid JSON, and without these tags a corrupted-but-parseable
   answer would be silently accepted. *)

(* The value's encoding and tag come from the result's memo, so a
   result-cache hit splices bytes already encoded for an earlier reply; a
   repaired result is a new value, reported as a miss.
   The tag covers exactly the text spliced in as the last field, so the
   payload is byte-identical to [respond] over the whole record. *)
let ok_payload req_id (r : Vida.result) =
  let { Value.json = value; crc } = Vida.encoded r in
  let head =
    respond
      (field "id" req_id
      @@ field "status" (Value.String "ok")
      @@ field "cache"
           (Value.String (if r.Vida.plan_from_cache then "hit" else "miss"))
      @@ field "result_cache"
           (Value.String
              (if r.Vida.from_result_cache && not r.Vida.repaired then "hit" else "miss"))
      @@ field "compile_ms" (Value.Float r.Vida.compile_ms)
      @@ field "exec_ms" (Value.Float r.Vida.exec_ms)
      @@ field "v_crc" (Value.Int crc) [])
  in
  String.concat "" [ String.sub head 0 (String.length head - 1); {|,"value":|}; value; "}" ]

let data_error_payload req_id (e : Vida_error.t) =
  let base tail =
    field "id" req_id
    @@ field "status" (Value.String "error")
    @@ field "kind" (Value.String (Vida_error.kind_name e))
    @@ field "code" (Value.Int (Vida_error.exit_code e))
    @@ field "message" (Value.String (Vida_error.to_string e)) tail
  in
  match e with
  | Vida_error.Overloaded { retry_after_ms; _ }
  | Vida_error.Source_unavailable { retry_after_ms; _ } ->
    (* the protocol's Retry-After: clients back off this long before
       resubmitting a shed query (admission shed or open breaker) *)
    respond (base @@ field "retry_after_ms" (Value.Float retry_after_ms) [])
  | _ -> respond (base [])

let error_payload req_id (e : Vida.error) =
  match e with
  | Vida.Data_error de -> data_error_payload req_id de
  | Vida.Parse_error _ | Vida.Type_error _ | Vida.Engine_error _ ->
    let kind, code =
      match e with
      | Vida.Parse_error _ -> ("parse", 65)
      | Vida.Type_error _ -> ("type", 74)
      | _ -> ("engine", 70)
    in
    respond
      (field "id" req_id
      @@ field "status" (Value.String "error")
      @@ field "kind" (Value.String kind)
      @@ field "code" (Value.Int code)
      @@ field "message" (Value.String (Vida.error_to_string e)) [])

let bad_request_payload msg =
  respond
    (field "id" Value.Null
    @@ field "status" (Value.String "error")
    @@ field "kind" (Value.String "invalid")
    @@ field "code" (Value.Int 70)
    @@ field "message" (Value.String msg) [])

(* the request arrived parseable but its integrity tag does not match:
   bits flipped in transit. A distinct kind so a self-healing client
   knows to resubmit, where plain "invalid" means the sender is buggy. *)
let corrupt_request_payload req_id =
  respond
    (field "id" req_id
    @@ field "status" (Value.String "error")
    @@ field "kind" (Value.String "corrupt")
    @@ field "code" (Value.Int 65)
    @@ field "message"
         (Value.String "request corrupted in transit (checksum mismatch)") [])

let pong_payload req_id =
  respond (field "id" req_id @@ field "status" (Value.String "pong") [])

(* --- request parsing --- *)

let parse_request payload =
  match Vida_raw.Json.parse ~source:"request" payload with
  | exception Vida_error.Error e -> `Bad (Vida_error.to_string e)
  | Value.Record _ as v -> (
    let req_id = Option.value (Value.field_opt v "id") ~default:Value.Null in
    match Value.field_opt v "op" with
    | Some (Value.String "ping") -> `Ping req_id
    | Some (Value.String "health") -> `Health req_id
    | Some other ->
      `Bad
        (Printf.sprintf "unknown op %s (want \"ping\" or \"health\")"
           (Value.to_json other))
    | None -> (
      match Value.field_opt v "query" with
      | Some (Value.String query) -> (
        let syntax =
          match Value.field_opt v "syntax" with
          | Some (Value.String "sql") -> Ok `Sql
          | Some (Value.String "comp") | None -> Ok `Comp
          | Some other ->
            Error
              (Printf.sprintf "unknown syntax %s (want \"comp\" or \"sql\")"
                 (Value.to_json other))
        in
        match syntax with
        | Error msg -> `Bad msg
        | Ok _
          when match Value.field_opt v "q_crc" with
               | Some (Value.Int crc) -> crc <> Value.fnv64 query
               | _ -> false -> `Corrupt req_id
        | Ok syntax ->
          `Query
            { req_id; query; syntax;
              tenant =
                (match Value.field_opt v "tenant" with
                | Some (Value.String s) -> Some s
                | _ -> None);
              deadline_ms =
                (match Value.field_opt v "deadline_ms" with
                | Some (Value.Float f) when f > 0. -> Some f
                | Some (Value.Int i) when i > 0 -> Some (float_of_int i)
                | _ -> None) })
      | Some _ -> `Bad "request field \"query\" must be a string"
      | None -> `Bad "request lacks a \"query\" field"))
  | _ -> `Bad "request frame must be a JSON object"

(* --- health report (op: "health") --- *)

let health_payload srv req_id =
  let adm = G.Admission.gauges srv.adm in
  let served, shed, disconnect_cancels, idle_reaped, slow_frames, wto, pings,
      active =
    Vida_sync.Lock.protect srv.lock (fun () ->
        ( srv.served, srv.shed, srv.disconnect_cancels, srv.idle_reaped,
          srv.slow_frame_drops, srv.write_timeouts, srv.pings,
          List.length srv.conns ))
  in
  let breakers =
    Value.List
      (List.map
         (fun (b : G.Breaker.snapshot) ->
           Value.Record
             [ ("source", Value.String b.G.Breaker.b_source);
               ("state", Value.String b.G.Breaker.b_state);
               ("trips", Value.Int b.G.Breaker.b_trips);
               ("shed", Value.Int b.G.Breaker.b_shed) ])
         (G.Breaker.snapshot ()))
  in
  let vectorized =
    let vs = Vida.vector_stats () in
    Value.Record
      [ ("kernels", Value.Int vs.Vida_engine.Vector.kernels);
        ("batches_executed", Value.Int vs.Vida_engine.Vector.batches);
        ("rows", Value.Int vs.Vida_engine.Vector.rows);
        ("rows_per_batch_p50", Value.Int vs.Vida_engine.Vector.batch_rows_p50);
        ("vector_fallbacks", Value.Int vs.Vida_engine.Vector.fallbacks);
        ("fallback_reasons",
         Value.List
           (List.map
              (fun r -> Value.String r)
              vs.Vida_engine.Vector.last_fallbacks)) ]
  in
  let sync =
    let sc = Vida_sync.counters () in
    Value.Record
      [ ("mode",
         Value.String
           (match Vida_sync.mode () with
           | Vida_sync.Off -> "off"
           | Vida_sync.Warn -> "warn"
           | Vida_sync.Strict -> "strict"));
        ("locks", Value.Int sc.Vida_sync.locks);
        ("cells", Value.Int sc.Vida_sync.cells);
        ("race_allowed", Value.Int sc.Vida_sync.race_allowed);
        ("kernel_checks", Value.Int sc.Vida_sync.kernel_checks);
        ("rank_inversions", Value.Int sc.Vida_sync.rank_inversions);
        ("reentries", Value.Int sc.Vida_sync.reentries);
        ("lock_cycles", Value.Int sc.Vida_sync.lock_cycles);
        ("unlocked_accesses", Value.Int sc.Vida_sync.unlocked_accesses);
        ("unheld_locks", Value.Int sc.Vida_sync.unheld_locks);
        ("kernel_failures", Value.Int sc.Vida_sync.kernel_failures);
        ("findings_total", Value.Int sc.Vida_sync.total) ]
  in
  (* durable-state health: operators watch [degraded] (persistence
     suspended on a full disk — queries unaffected) and the counters that
     prove warm boots are actually reusing state *)
  let state =
    match Vida.state_report srv.db with
    | None -> Value.Record [ ("enabled", Value.Bool false) ]
    | Some sr ->
      Value.Record
        [ ("enabled", Value.Bool true);
          ("dir", Value.String sr.Vida.sr_dir);
          ("degraded", Value.Bool sr.Vida.sr_degraded);
          ("persists", Value.Int sr.Vida.sr_persists);
          ("persist_failures", Value.Int sr.Vida.sr_persist_failures);
          ("warm_loads", Value.Int sr.Vida.sr_warm_loads);
          ("corrupt_quarantined", Value.Int sr.Vida.sr_corrupt_quarantined);
          ("plan_warm_hits", Value.Int sr.Vida.sr_plan_warm_hits);
          ("structure_restores", Value.Int sr.Vida.sr_structure_restores);
          ("structure_rebuilds", Value.Int sr.Vida.sr_structure_rebuilds) ]
  in
  respond
    (field "id" req_id
    @@ field "status" (Value.String "ok")
    @@ field "health"
         (Value.Record
            [ ("running", Value.Int adm.G.Admission.running);
              ("queued", Value.Int adm.G.Admission.queued);
              ("reserved_bytes", Value.Int adm.G.Admission.reserved_bytes);
              ("admitted_total", Value.Int adm.G.Admission.admitted_total);
              ("shed_total", Value.Int adm.G.Admission.shed_total);
              ("active_connections", Value.Int active);
              ("served", Value.Int served);
              ("shed", Value.Int shed);
              ("disconnect_cancels", Value.Int disconnect_cancels);
              ("idle_reaped", Value.Int idle_reaped);
              ("slow_frame_drops", Value.Int slow_frames);
              ("write_timeouts", Value.Int wto);
              ("pings", Value.Int pings);
              ("breakers", breakers);
              ("vectorized", vectorized);
              ("state", state);
              ("sync", sync) ])
         [])

(* --- the query path (runs on an executor domain, post-admission) --- *)

let execute srv session req =
  (* degradation ladder: under elevated pressure every query runs
     sequentially — no shared-pool fan-out — so the worker domains serve
     admitted queries instead of amplifying the backlog *)
  let domains =
    match G.Admission.pressure srv.adm with
    | `Normal -> None
    | `Elevated -> Some 1
  in
  let outcome =
    Vida.submit ?domains ?deadline_ms:req.deadline_ms ~syntax:req.syntax
      session req.query
  in
  Vida_sync.Lock.protect srv.lock (fun () -> srv.served <- srv.served + 1);
  (* durable warm state rides the query path, debounced: newly derived
     plans / breaker verdicts / ledgers reach the state directory within
     a second of being learned, so a kill -9 at any later instant boots
     warm. No-op without a state directory; a persist failure degrades to
     no-persist mode inside and never surfaces to this client *)
  ignore (Vida.maybe_persist srv.db);
  match outcome with
  | Ok r -> ok_payload req.req_id r
  | Error e -> error_payload req.req_id e

(* --- executor domains --- *)

(* One byte on a connection's wake pipe per completed job. The write end
   is non-blocking, so the executor never blocks on it under the job
   lock: a pipe too full to take the byte already holds unread wakes. *)
let wake_conn fd =
  let rec go () =
    match Unix.write_substring fd "!" 0 1 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let exec_loop srv () =
  let rec next () =
    Vida_sync.Lock.lock srv.lock;
    (* drain-before-exit: a job enqueued before [stopping] flipped must
       still get a reply, or its connection thread would await forever *)
    let rec claim () =
      match Queue.take_opt srv.queue with
      | Some job ->
        Vida_sync.Lock.unlock srv.lock;
        Some job
      | None ->
        if srv.stopping then (
          Vida_sync.Lock.unlock srv.lock;
          None)
        else (
          Vida_sync.Lock.wait srv.work srv.lock;
          claim ())
    in
    match claim () with
    | None -> ()
    | Some job ->
      let reply =
        try job.run ()
        with e ->
          (* a worker exception must never take the executor domain down:
             the session that submitted the query gets a typed report and
             every other session is untouched *)
          bad_request_payload ("internal error: " ^ Printexc.to_string e)
      in
      (* the wake is written under the same lock as the reply: a
         connection thread that sees the reply knows the write is done,
         so it may close the pipe without this write landing on a
         descriptor number reused meanwhile *)
      Vida_sync.Lock.protect job.j_lock (fun () ->
          job.reply <- Some reply;
          wake_conn job.wake);
      next ()
  in
  next ()

let submit_job srv ~wake run =
  let job =
    { run; reply = None;
      j_lock = Vida_sync.Lock.create ~rank:30 ~name:"server.job" (); wake }
  in
  Vida_sync.Lock.protect srv.lock (fun () ->
      if srv.stopping then
        (* refused, answered inline: after [stopping] no executor is
           guaranteed to ever claim the queue again *)
        job.reply <- Some (bad_request_payload "server shutting down")
      else (
        Queue.add job srv.queue;
        Condition.signal srv.work));
  job

(* The peer closed its end iff the socket selects readable and a MSG_PEEK
   recv returns 0 bytes. Data arriving mid-query (an eager pipelined
   request) selects readable too and simply stays buffered. *)
let peer_gone fd =
  match Unix.select [ fd ] [] [] 0. with
  | [], _, _ -> false
  | _ -> (
    let b = Bytes.create 1 in
    match Unix.recv fd b 0 1 [ Unix.MSG_PEEK ] with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    | exception Unix.Unix_error _ -> true)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* --- connection handling (systhreads: socket IO and cancellation only) --- *)

(* How often a connection thread whose peer has a pipelined request
   buffered re-checks that the peer is still there. The buffered bytes
   keep the socket readable, so it cannot wait on the socket itself. *)
let peer_check_s = 0.05

let drain_wakes fd =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read fd b 0 (Bytes.length b) with
    | n when n = Bytes.length b -> go ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Wait for [job]'s reply without polling: the executor writes the wake
   pipe on completion, and the client socket is watched meanwhile, so a
   client that dies mid-query cancels its work instead of occupying an
   admission slot until completion. Once the socket turns readable with a
   live peer (a pipelined request), it stays readable: from then on it is
   re-checked every [peer_check_s] instead. [None] when the query was
   cancelled for a gone client. *)
let await_reply srv session fd ~wake_r job =
  let cancel () =
    Vida.cancel session ~reason:"client disconnected";
    Vida_sync.Lock.protect srv.lock (fun () ->
        srv.disconnect_cancels <- srv.disconnect_cancels + 1)
  in
  (* [watch]: [`Socket] selects on the socket, [`Poll] re-checks the peer
     on a timeout, [`Cancelled] only waits for the wake *)
  let rec wait watch =
    match Vida_sync.Lock.protect job.j_lock (fun () -> job.reply) with
    | Some r -> if watch = `Cancelled then None else Some r
    | None -> (
      let fds, timeout =
        match watch with
        | `Socket -> ([ wake_r; fd ], -1.)
        | `Poll -> ([ wake_r ], peer_check_s)
        | `Cancelled -> ([ wake_r ], -1.)
      in
      match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait watch
      | ready, _, _ ->
        let woken = List.mem wake_r ready in
        if woken then drain_wakes wake_r;
        (* a reply that is ready wins over a peer check *)
        let check_peer =
          match watch with
          | `Socket -> List.mem fd ready && not woken
          | `Poll -> ready = []
          | `Cancelled -> false
        in
        if check_peer && peer_gone fd then (
          cancel ();
          wait `Cancelled)
        else wait (if check_peer then `Poll else watch))
  in
  wait `Socket

let handle_conn srv fd ~wake_r ~wake_w =
  let session =
    Vida.open_session srv.db
      ~name:(Printf.sprintf "conn-%d" (Thread.id (Thread.self ())))
  in
  let cfg = srv.config in
  let bump f = Vida_sync.Lock.protect srv.lock f in
  let rec serve () =
    match
      Frame.read ~max_bytes:cfg.max_frame_bytes
        ?idle_timeout_ms:cfg.idle_timeout_ms
        ?frame_timeout_ms:cfg.frame_timeout_ms fd
    with
    | exception Frame.Timeout `Idle ->
      (* idle-session reaping: quiet past the policy bound — drop it and
         free the connection thread (clients reconnect transparently) *)
      bump (fun () -> srv.idle_reaped <- srv.idle_reaped + 1)
    | exception Frame.Timeout (`Stalled_frame | `Write) ->
      (* slowloris: a frame started and stalled mid-way *)
      bump (fun () -> srv.slow_frame_drops <- srv.slow_frame_drops + 1)
    | None -> ()
    | Some payload ->
      let reply =
        match parse_request payload with
        | `Bad msg -> Some (bad_request_payload msg)
        | `Corrupt req_id -> Some (corrupt_request_payload req_id)
        | `Ping req_id ->
          bump (fun () -> srv.pings <- srv.pings + 1);
          Some (pong_payload req_id)
        | `Health req_id -> Some (health_payload srv req_id)
        | `Query req -> (
          (* admission happens HERE, on the connection thread: the
             bounded front door must see the whole offered load, so shed
             decisions cannot hide behind a busy executor. With
             [executors >= max_concurrent], an admitted query never waits
             for an executor either. *)
          let tenant =
            Option.value req.tenant ~default:(Vida.session_tenant session)
          in
          let limits = Vida.limits srv.db in
          (* the queue wait is bounded by the sooner of the configured
             deadline and the client's remaining budget *)
          let adm_deadline =
            match (req.deadline_ms, limits.G.deadline_ms) with
            | Some a, Some b -> Some (Float.min a b)
            | (Some _ as d), None | None, d -> d
          in
          match
            G.Admission.admit ?deadline_ms:adm_deadline srv.adm ~tenant
              ~reserve:(Option.value limits.G.memory_budget ~default:0)
          with
          | exception Vida_error.Error (Vida_error.Overloaded _ as e) ->
            Vida_sync.Lock.protect srv.lock (fun () -> srv.shed <- srv.shed + 1);
            Some (data_error_payload req.req_id e)
          | ticket ->
          let job =
            submit_job srv ~wake:wake_w (fun () ->
                (* the slot is returned on every completion path — a
                   failing query, a cancelled one, a dead client *)
                Fun.protect
                  ~finally:(fun () -> G.Admission.release srv.adm ticket)
                  (fun () -> execute srv session req))
          in
          await_reply srv session fd ~wake_r job)
      in
      (match reply with
      | Some r -> (
        match Frame.write ?timeout_ms:cfg.write_timeout_ms fd r with
        | () -> serve ()
        | exception Frame.Timeout `Write ->
          (* a reader too slow to drain its own reply would pin this
             thread (and its buffers) forever: drop it *)
          bump (fun () -> srv.write_timeouts <- srv.write_timeouts + 1)
        | exception Frame.Timeout (`Idle | `Stalled_frame) -> ())
      | None -> (* client gone; its query was cancelled *) ())
  in
  (try serve () with
  | Vida_error.Error _ -> () (* framing violation: drop the connection *)
  | Unix.Unix_error _ -> ());
  Vida.close_session session

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Each connection owns a wake pipe for the lifetime of the connection;
   both ends close with it. Without descriptors for the pipe (EMFILE,
   ENFILE) the connection is dropped, as the acceptor drops what it cannot
   accept, and the client reconnects later. *)
let serve_conn srv fd =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> close_quietly fd
  | wake_r, wake_w ->
    Fun.protect
      ~finally:(fun () -> List.iter close_quietly [ wake_r; wake_w; fd ])
      (fun () ->
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        handle_conn srv fd ~wake_r ~wake_w)

(* Each connection thread registers itself (so [stop] can force it to
   EOF and join it) and prunes itself on exit (so [active_connections] is
   a live gauge, not a high-water mark). Registration is refused once
   [stopping] is set: [stop] snapshots the registry after joining the
   acceptor, and a late connection that raced the shutdown must not slip
   past that snapshot unjoinable. *)
let conn_main srv fd () =
  let me = { c_fd = fd; c_thread = Thread.self () } in
  let registered =
    Vida_sync.Lock.protect srv.lock (fun () ->
        if srv.stopping then false
        else (
          srv.conns <- me :: srv.conns;
          true))
  in
  if not registered then close_quietly fd
  else (
    serve_conn srv fd;
    Vida_sync.Lock.protect srv.lock (fun () ->
        srv.conns <- List.filter (fun c -> c != me) srv.conns))

let accept_loop srv () =
  let rec loop () =
    match Unix.accept srv.listen_fd with
    | fd, _ ->
      ignore (Thread.create (conn_main srv fd) ());
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* a signal (SIGCHLD, a profiler tick) interrupted accept: not a
         shutdown *)
      loop ()
    | exception
        Unix.Unix_error
          ((Unix.EMFILE | Unix.ENFILE | Unix.ECONNABORTED | Unix.ENOMEM), _, _)
      ->
      (* transient resource exhaustion (fd table full, client hung up
         mid-handshake). Exiting here would silently kill the acceptor —
         the server would look alive while refusing everyone forever.
         Back off briefly; connections draining frees fds *)
      if
        Vida_sync.Lock.protect srv.lock (fun () -> srv.stopping)
      then ()
      else (
        Thread.delay 0.05;
        loop ())
    | exception Unix.Unix_error _ -> () (* listener closed: shutting down *)
  in
  loop ()

(* --- lifecycle --- *)

(* A Unix socket file left by an uncleanly-killed server makes a naive
   bind fail with EADDRINUSE forever. Probe it: connection refused means
   nobody is accepting — a stale file from a crash, safe to unlink; a
   successful connect means a live server owns it, and replacing it
   underneath would silently steal its clients. *)
let remove_stale_unix_socket path =
  if Sys.file_exists path then (
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> `Live
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
          | exception Unix.Unix_error (e, _, _) -> `Error e)
    in
    match verdict with
    | `Stale -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | `Gone -> ()
    | `Live -> raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
    | `Error e -> raise (Unix.Unix_error (e, "connect", path)))

let bind_address address =
  match address with
  | Tcp { host; port } ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    fd
  | Unix_socket path ->
    remove_stale_unix_socket path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    fd

let create ?(config = default_config) db =
  ignore_sigpipe ();
  let pool = Morsel.Pool.create ?domains:config.pool_domains () in
  Morsel.set_shared_pool (Some pool);
  let adm = G.Admission.create ~config:config.admission () in
  let listen_fd = bind_address config.address in
  Unix.listen listen_fd 64;
  let srv =
    { db; config; adm; pool; listen_fd; bound = Unix.getsockname listen_fd;
      queue = Queue.create ();
      lock = Vida_sync.Lock.create ~rank:20 ~name:"server.instance" ();
      work = Condition.create (); stopping = false; execs = []; acceptor = None;
      conns = []; served = 0; shed = 0; disconnect_cancels = 0;
      idle_reaped = 0; slow_frame_drops = 0; write_timeouts = 0; pings = 0 }
  in
  let executors =
    match config.executors with
    | Some n -> max 1 n
    | None -> max 1 config.admission.G.Admission.max_concurrent
  in
  srv.execs <- List.init executors (fun _ -> Domain.spawn (exec_loop srv));
  srv.acceptor <- Some (Thread.create (accept_loop srv) ());
  srv

let address srv =
  match srv.bound with
  | Unix.ADDR_INET (host, port) ->
    Tcp { host = Unix.string_of_inet_addr host; port }
  | Unix.ADDR_UNIX path -> Unix_socket path

let stats srv =
  let ( active_connections, served, shed, disconnect_cancels, idle_reaped,
        slow_frame_drops, write_timeouts, pings ) =
    Vida_sync.Lock.protect srv.lock (fun () ->
        ( List.length srv.conns, srv.served, srv.shed, srv.disconnect_cancels,
          srv.idle_reaped, srv.slow_frame_drops, srv.write_timeouts, srv.pings ))
  in
  { admission = G.Admission.gauges srv.adm; pool = Morsel.Pool.stats srv.pool;
    active_connections; served; shed; disconnect_cancels; idle_reaped;
    slow_frame_drops; write_timeouts; pings;
    breakers = G.Breaker.snapshot () }

let stop ?drain_ms srv =
  Vida_sync.Lock.protect srv.lock (fun () ->
      srv.stopping <- true;
      Condition.broadcast srv.work);
  (* wake the acceptor first: no NEW connections during the drain. Then
     [shutdown] before [close]: closing an fd does NOT interrupt a thread
     already blocked in [accept]/[read] on Linux — shutting it down does *)
  (try Unix.shutdown srv.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  (match srv.acceptor with Some t -> Thread.join t | None -> ());
  (* graceful drain: in-flight queries (already enqueued jobs are still
     claimed and answered — [stopping] only refuses NEW submissions) may
     finish and have their replies written, up to the drain deadline;
     whatever is still running after it is cancelled cooperatively by the
     forced-EOF path below *)
  let drain =
    match drain_ms with Some d -> d | None -> srv.config.drain_ms
  in
  if drain > 0. then (
    let t0 = G.now_ms () in
    let busy () =
      let g = G.Admission.gauges srv.adm in
      g.G.Admission.running > 0 || g.G.Admission.queued > 0
      || Vida_sync.Lock.protect srv.lock (fun () -> not (Queue.is_empty srv.queue))
    in
    while busy () && G.now_ms () -. t0 < drain do
      Thread.delay 0.005
    done;
    (* the admission slot releases on query completion, slightly before
       the connection thread writes the reply: one beat for the flush *)
    Thread.delay 0.02);
  (* force every live connection to EOF so its thread unblocks from
     Frame.read and exits; a query still running past the drain deadline
     is cancelled cooperatively via the disconnect path *)
  let conns = Vida_sync.Lock.protect srv.lock (fun () -> srv.conns) in
  List.iter
    (fun c ->
      try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun c -> Thread.join c.c_thread) conns;
  Vida_sync.Lock.protect srv.lock (fun () ->
      srv.conns <- [];
      Condition.broadcast srv.work);
  List.iter Domain.join srv.execs;
  srv.execs <- [];
  (match Morsel.shared_pool () with
  | Some p when p == srv.pool -> Morsel.set_shared_pool None
  | _ -> ());
  Morsel.Pool.shutdown srv.pool;
  match srv.config.address with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* --- client --- *)

module Client = struct
  type client = { fd : Unix.file_descr; mutable next_id : int }

  let rec connect_fd address =
    match address with
    | Tcp { host; port } -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
      with
      | () -> fd
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        connect_fd address
      | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e)
    | Unix_socket path -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        connect_fd address
      | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e)

  let connect address =
    ignore_sigpipe ();
    { fd = connect_fd address; next_id = 1 }

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let roundtrip c payload =
    Frame.write c.fd payload;
    match Frame.read c.fd with
    | Some reply -> reply
    | None ->
      Vida_error.io_failure ~source:"client" "server closed the connection"

  let request_fields ?tenant ?deadline_ms ~syntax ~id text =
    field "id" id
    @@ field "query" (Value.String text)
    @@ field "q_crc" (Value.Int (Value.fnv64 text))
    @@ field "syntax"
         (Value.String (match syntax with `Comp -> "comp" | `Sql -> "sql"))
         ((match deadline_ms with
          | Some ms -> field "deadline_ms" (Value.Float ms)
          | None -> Fun.id)
            (match tenant with
            | Some t -> field "tenant" (Value.String t) []
            | None -> []))

  let query ?tenant ?(syntax = `Comp) c text =
    let id = c.next_id in
    c.next_id <- id + 1;
    Vida_raw.Json.parse ~source:"response"
      (roundtrip c
         (respond (request_fields ?tenant ~syntax ~id:(Value.Int id) text)))

  (* heartbeat: a cheap liveness probe that also counts as activity
     against the server's idle reaper *)
  let ping c =
    let reply =
      Vida_raw.Json.parse ~source:"response"
        (roundtrip c (respond (field "op" (Value.String "ping") [])))
    in
    match Value.field_opt reply "status" with
    | Some (Value.String "pong") -> true
    | _ -> false

  let health c =
    Vida_raw.Json.parse ~source:"response"
      (roundtrip c (respond (field "op" (Value.String "health") [])))

  (* --- self-healing client ------------------------------------------- *)

  type retry_config = {
    max_attempts : int;  (* total tries per logical query *)
    base_backoff_ms : float;  (* doubled per retry *)
    max_backoff_ms : float;  (* cap on one backoff sleep *)
    deadline_ms : float option;  (* total budget across ALL attempts *)
    seed : int;  (* jitter determinism *)
  }

  let default_retry =
    { max_attempts = 5; base_backoff_ms = 50.; max_backoff_ms = 2000.;
      deadline_ms = None; seed = 0 }

  type resilient = {
    r_address : address;
    r_retry : retry_config;
    mutable r_conn : client option;
    mutable r_rng : int64;
    mutable r_next : int;
    mutable r_reconnects : int;
    mutable r_backoffs : int;
  }

  let connect_resilient ?(retry = default_retry) address =
    ignore_sigpipe ();
    { r_address = address; r_retry = retry; r_conn = None;
      r_rng = Int64.of_int ((retry.seed lxor 0x5eed) lor 1); r_next = 1;
      r_reconnects = 0; r_backoffs = 0 }

  let reconnects rc = rc.r_reconnects
  let backoffs rc = rc.r_backoffs

  let close_resilient rc =
    (match rc.r_conn with Some c -> close c | None -> ());
    rc.r_conn <- None

  (* splitmix64 step — seeded jitter, reproducible in tests *)
  let jitter rc =
    let open Int64 in
    rc.r_rng <- add rc.r_rng 0x9E3779B97F4A7C15L;
    let z = rc.r_rng in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = logxor z (shift_right_logical z 31) in
    Int64.to_float (shift_right_logical z 11) /. 9007199254740992.

  let drop_conn rc =
    (match rc.r_conn with Some c -> close c | None -> ());
    rc.r_conn <- None

  let conn rc =
    match rc.r_conn with
    | Some c -> c
    | None ->
      let c = connect rc.r_address in
      rc.r_conn <- Some c;
      c

  (* [rquery rc text] — the resilient submit path. One stable request id
     per LOGICAL query (idempotent resubmission key: queries are
     read-only, so a resend after a torn reply is safe, and the id lets
     the server's logs correlate the attempts). Transport failures
     (connection refused/reset, torn frame, server gone) reconnect and
     resubmit; [Overloaded]/[Source_unavailable] refusals back off by
     max(retry_after_ms hint, bounded exponential backoff) with seeded
     jitter; the optional total deadline bounds the WHOLE attempt
     sequence, and the remaining budget rides every request frame as
     [deadline_ms] so the server never works past the client's patience. *)
  let rquery ?tenant ?(syntax = `Comp) rc text =
    let id =
      Value.String (Printf.sprintf "rq-%d-%d" (Unix.getpid ()) rc.r_next)
    in
    rc.r_next <- rc.r_next + 1;
    let t0 = G.now_ms () in
    let remaining () =
      Option.map
        (fun d -> d -. (G.now_ms () -. t0))
        rc.r_retry.deadline_ms
    in
    let out_of_budget () =
      match remaining () with Some r -> r <= 0. | None -> false
    in
    let backoff_for k hint =
      let exp =
        Float.min rc.r_retry.max_backoff_ms
          (rc.r_retry.base_backoff_ms *. (2. ** float_of_int k))
      in
      let base = Float.max exp hint in
      (* full jitter on the top half: desynchronizes a retrying herd *)
      let ms = base *. (0.5 +. (0.5 *. jitter rc)) in
      match remaining () with Some r -> Float.min ms (Float.max 0. r) | None -> ms
    in
    let give_up last_err =
      match last_err with
      | Some reply -> reply
      | None ->
        Vida_error.io_failure ~source:"client"
          "no reply after %d attempts%s" rc.r_retry.max_attempts
          (match rc.r_retry.deadline_ms with
          | Some d -> Printf.sprintf " within the %.0f ms budget" d
          | None -> "")
    in
    (* A reply is intact when its shape survived the wire: an ok reply
       must echo OUR id and carry a value whose integrity tag matches; an
       error reply must be typed. Kind ["corrupt"]/["invalid"] on a
       request WE built correctly means the request was mangled in
       transit. Anything non-intact is treated as a transport failure:
       reconnect (the stream may be desynchronized) and resubmit. *)
    let intact reply =
      match Value.field_opt reply "status" with
      | Some (Value.String "ok") -> (
        match
          ( Value.field_opt reply "id", Value.field_opt reply "value",
            Value.field_opt reply "v_crc" )
        with
        | Some rid, Some v, Some (Value.Int crc) ->
          rid = id && crc = Value.fnv64 (Value.to_json v)
        | Some rid, Some _, None -> rid = id (* untagged: trust it *)
        | _ -> false)
      | Some (Value.String "error") -> (
        match Value.field_opt reply "kind" with
        | Some (Value.String ("corrupt" | "invalid")) -> false
        | Some (Value.String _) -> true
        | _ -> false)
      | _ -> false
    in
    let rec attempt k last_err =
      if k >= rc.r_retry.max_attempts || out_of_budget () then give_up last_err
      else
        match
          let c = conn rc in
          Vida_raw.Json.parse ~source:"response"
            (roundtrip c
               (respond
                  (request_fields ?tenant ?deadline_ms:(remaining ()) ~syntax
                     ~id text)))
        with
        | exception (Vida_error.Error _ | Unix.Unix_error _ | Frame.Timeout _)
          ->
          (* transport failure: reconnect and resubmit the SAME id *)
          drop_conn rc;
          rc.r_reconnects <- rc.r_reconnects + 1;
          if k + 1 < rc.r_retry.max_attempts && not (out_of_budget ()) then
            G.sleep_ms (backoff_for k 0.);
          attempt (k + 1) last_err
        | reply when not (intact reply) ->
          drop_conn rc;
          rc.r_reconnects <- rc.r_reconnects + 1;
          if k + 1 < rc.r_retry.max_attempts && not (out_of_budget ()) then
            G.sleep_ms (backoff_for k 0.);
          attempt (k + 1) last_err
        | reply -> (
          let retryable =
            match Value.field_opt reply "kind" with
            | Some (Value.String ("overloaded" | "unavailable")) -> true
            | _ -> false
          in
          match retryable with
          | false -> reply
          | true ->
            if k + 1 >= rc.r_retry.max_attempts || out_of_budget () then reply
            else (
              let hint =
                match Value.field_opt reply "retry_after_ms" with
                | Some (Value.Float f) -> f
                | Some (Value.Int i) -> float_of_int i
                | _ -> 0.
              in
              rc.r_backoffs <- rc.r_backoffs + 1;
              G.sleep_ms (backoff_for k hint);
              attempt (k + 1) (Some reply)))
    in
    attempt 0 None
end
