(** Concurrent query serving: the multi-session front end.

    One {!Vida.t} instance serves many clients over TCP or a Unix-domain
    socket. Each message is a length-prefixed JSON frame ({!Frame}):

    - request: [{"id": any, "query": "...", "syntax": "comp"|"sql",
      "tenant": "...", "deadline_ms": float, "q_crc": int}] — [id] is
      echoed verbatim; [syntax] defaults to comprehension; [tenant]
      defaults per connection and scopes the admission controller's
      per-tenant cap; [deadline_ms] is the client's remaining budget and
      caps (never widens) the queue wait and the query deadline; [q_crc]
      is an optional FNV-1a integrity tag over the query text — a
      mismatch (bits flipped in transit that still parse as JSON) is
      refused with [kind = "corrupt"], which a self-healing client treats
      as a transport failure and resubmits;
    - control: [{"id", "op": "ping"}] → [{"id", "status": "pong"}]
      (heartbeat; counts as activity against the idle reaper), and
      [{"id", "op": "health"}] → a ["health"] record of admission gauges,
      lifetime counters, per-source circuit-breaker states and a
      ["state"] sub-record for the durable state directory (enabled flag,
      [degraded] = persistence suspended after an OS failure while
      queries keep answering, persist/warm-reuse counters);
    - success: [{"id", "status": "ok", "cache": "hit"|"miss",
      "result_cache": "hit"|"miss", "compile_ms", "exec_ms", "v_crc",
      "value"}] — [cache] marks whether the optimized plan was served by
      the plan cache; [v_crc] is the FNV-1a tag ({!Vida_data.Value.fnv64})
      over the value's JSON, so a client can detect a
      corrupted-but-parseable answer end-to-end. The value text and its
      tag come from the result's [encoded] memo ({!Vida.encoded}): a
      result-cache hit splices bytes encoded for an earlier reply, and
      the frame is byte-identical to encoding the whole record; a cached
      result repaired over appended rows is a new value and reports
      ["result_cache": "miss"];
    - failure: [{"id", "status": "error", "kind", "code", "message"}] with
      [kind]/[code] from {!Vida_error.kind_name}/{!Vida_error.exit_code};
      a shed query ([kind = "overloaded"], code 77, or
      [kind = "unavailable"], code 78, when a source's circuit breaker is
      open) additionally carries ["retry_after_ms"], the protocol's
      Retry-After hint.

    Architecture: connection {e threads} only do socket IO — the governor
    session and epoch are ambient per {e domain}, so queries execute on a
    pool of dedicated executor domains, and their morsel regions fan out
    over one shared long-lived worker pool ({!Vida_raw.Morsel.Pool})
    scheduling all concurrent queries fair-share. The front door is
    {!Vida_governor.Governor.Admission}: a query is admitted, queued
    (bounded, deadline-aware) or shed; under elevated pressure admitted
    queries run sequentially instead of fanning out (degradation ladder).
    A connection thread waiting for its query's reply sleeps in [select]
    on the client socket and a per-connection wake pipe that the executor
    writes on completion — no polling. A client that disconnects
    mid-query has its query cancelled cooperatively — budget charges,
    epoch pins and its admission slot are all released; a killed client
    can never leak a pool slot.

    Resilience: per-connection IO is deadline-bounded — an idle session is
    reaped after [idle_timeout_ms], a frame that starts and stalls
    (slowloris) is dropped after [frame_timeout_ms], and a reader too slow
    to drain its reply is dropped after [write_timeout_ms]; each drop is a
    counter in {!stats} and the health report. SIGPIPE is ignored (peer
    resets surface as typed disconnects) and all blocking socket calls
    retry on [EINTR]. {!stop} drains gracefully: accepting stops first,
    running queries get up to the drain deadline to finish, then whatever
    remains is cancelled cooperatively. *)

type address = Tcp of { host : string; port : int } | Unix_socket of string

type config = {
  address : address;  (** where to listen; TCP port 0 picks a free port *)
  admission : Vida_governor.Governor.Admission.config;
  pool_domains : int option;
      (** shared morsel-pool sizing; [None] resolves via
          {!Vida_raw.Morsel.resolve} (both snapshotted at startup) *)
  executors : int option;
      (** executor domains running queries; [None] = [admission.max_concurrent] *)
  max_frame_bytes : int;  (** per-frame payload cap *)
  idle_timeout_ms : float option;
      (** reap a connection with no frame for this long; [None] = never *)
  frame_timeout_ms : float option;
      (** a frame that started must complete within this budget
          (slowloris protection); [None] = unbounded *)
  write_timeout_ms : float option;
      (** a reply must drain to the peer within this budget; [None] =
          unbounded *)
  drain_ms : float;
      (** {!stop}'s grace period for in-flight queries (0 = immediate) *)
}

val default_config : config
(** loopback TCP on a free port, {!Vida_governor.Governor.Admission.default_config},
    resolved pool sizing, 64 MiB frames, no idle reaping, 10 s frame and
    write budgets, no drain grace. *)

type t

val create : ?config:config -> Vida.t -> t
(** [create db] binds, installs the shared morsel pool, spawns the
    executor domains and the acceptor thread, and starts serving. Ignores
    SIGPIPE process-wide. For a Unix-socket address, a stale socket file
    left by a crashed server is probed and unlinked ([ECONNREFUSED] on
    connect = nobody accepting); a file with a {e live} server behind it
    raises [Unix.Unix_error (EADDRINUSE, _, _)] instead of stealing it. *)

val address : t -> address
(** the bound address — for TCP with port 0, the actual port. *)

val stop : ?drain_ms:float -> t -> unit
(** graceful shutdown: stops accepting, then lets in-flight queries finish
    for up to [drain_ms] (default [config.drain_ms]), then forces live
    connections to EOF (cancelling still-running queries cooperatively),
    joins every thread and executor domain, uninstalls and shuts down the
    shared pool. *)

type stats = {
  admission : Vida_governor.Governor.Admission.gauges;
  pool : Vida_raw.Morsel.Pool.stats;
  active_connections : int;
  served : int;  (** admitted queries answered (ok or error) *)
  shed : int;  (** queries refused with [Overloaded] *)
  disconnect_cancels : int;  (** queries cancelled by client disconnect *)
  idle_reaped : int;  (** connections dropped by the idle reaper *)
  slow_frame_drops : int;  (** connections dropped mid-frame (slowloris) *)
  write_timeouts : int;  (** connections dropped for not draining replies *)
  pings : int;  (** heartbeat frames answered *)
  breakers : Vida_governor.Governor.Breaker.snapshot list;
      (** per-source circuit-breaker states, sorted by source *)
}

val stats : t -> stats
(** instantaneous gauges + lifetime counters: the soak asserts admission
    occupancy and pool regions return to zero when traffic stops. *)

(** A minimal blocking client for the framed protocol (tests, the CLI's
    client mode, the bench harness), plus a {e self-healing} wrapper that
    retries, reconnects and backs off. Not thread-safe; one request in
    flight per client. *)
module Client : sig
  type client

  val connect : address -> client
  (** also ignores SIGPIPE process-wide, so a server reset mid-write
      surfaces as a typed error instead of killing the process. *)

  val close : client -> unit

  val roundtrip : client -> string -> string
  (** [roundtrip c payload] sends one raw frame and blocks for the reply
      frame. Raises [Vida_error.Io_failure] if the server closes first. *)

  val query :
    ?tenant:string -> ?syntax:[ `Comp | `Sql ] -> client -> string ->
    Vida_data.Value.t
  (** [query c text] sends a request frame (ids auto-increment) and
      parses the JSON reply into a value — inspect ["status"], ["value"],
      ["cache"], ["kind"], ["retry_after_ms"] as record fields. *)

  val ping : client -> bool
  (** heartbeat roundtrip; [true] iff the server answered ["pong"]. *)

  val health : client -> Vida_data.Value.t
  (** the server's health report (gauges, counters, breaker states). *)

  (** {2 Self-healing client} *)

  type retry_config = {
    max_attempts : int;  (** total tries per logical query *)
    base_backoff_ms : float;  (** first backoff; doubled per retry *)
    max_backoff_ms : float;  (** cap on one backoff sleep *)
    deadline_ms : float option;
        (** total budget across ALL attempts of one query; the remaining
            budget also rides each request as its [deadline_ms] field *)
    seed : int;  (** jitter determinism (tests, bench) *)
  }

  val default_retry : retry_config
  (** 5 attempts, 50 ms base doubling to a 2 s cap, no deadline. *)

  type resilient

  val connect_resilient : ?retry:retry_config -> address -> resilient
  (** lazy: the first {!rquery} dials. *)

  val close_resilient : resilient -> unit

  val rquery :
    ?tenant:string -> ?syntax:[ `Comp | `Sql ] -> resilient -> string ->
    Vida_data.Value.t
  (** [rquery rc text] submits with retries. Transport failures (refused,
      reset, torn frame) reconnect and resubmit under one stable request
      id — queries are read-only, so resubmission is idempotent; typed
      [overloaded]/[unavailable] refusals back off by
      [max(retry_after_ms, exponential)] with seeded full jitter. Returns
      the last reply (possibly a typed error record) once attempts or the
      budget run out; raises [Vida_error.Io_failure] if no attempt got a
      reply at all. *)

  val reconnects : resilient -> int
  (** lifetime count of reconnect-and-resubmit cycles. *)

  val backoffs : resilient -> int
  (** lifetime count of backoff sleeps taken on typed refusals. *)
end
