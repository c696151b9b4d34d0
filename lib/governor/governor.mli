(** Query-lifecycle resource governor (robustness layer).

    ViDa is an always-on engine querying files it does not control, so one
    pathological query — a huge un-indexed scan, a nesting-heavy source, a
    cache-polluting materialization — must not take the service down. Every
    query runs inside a {!session} carrying:

    - a wall-clock {e deadline}, polled cooperatively at record granularity
      in the scan loops and at operator boundaries in both engines;
    - a {e cancellation token}, checked on every poll;
    - a {e memory budget}, hard-charged by operator materializations
      (join/product build sides) and consulted by the shared cache to scope
      one query's admissions (see {!Vida_storage.Cache});
    - the query's {e degradation history}: transient-IO retries and
      fallbacks (JIT→Generic, sidecar→raw scan).

    Violations raise the structured {!Vida_error} cases
    [Deadline_exceeded] / [Budget_exceeded] / [Cancelled] — never a hang,
    never an unbounded allocation, never an untyped exception. *)

(** Policy for a pinned source changing under a running query
    ([Vida_error.Source_changed]): [Retry_fresh n] re-pins a fresh epoch
    and re-runs the whole query up to [n] times (each retry recorded as an
    ["epoch-repin"] fallback); [Fail_fast] surfaces the error to the
    caller. Enacted by the engine facade, which owns the pin/retry loop. *)
type change_policy = Retry_fresh of int | Fail_fast

type limits = {
  deadline_ms : float option;  (** wall-clock budget for the whole query *)
  memory_budget : int option;  (** bytes of materialized/cached working set *)
  max_retries : int;  (** bounded retries for transient IO failures *)
  retry_backoff_ms : float;  (** initial backoff, doubled per retry *)
  poll_stride : int;  (** clock consulted every N polls (cancel: every poll) *)
  on_change : change_policy;  (** reaction to a source changing mid-query *)
}

val unlimited : limits
(** no deadline, no budget, 2 retries with 1 ms initial backoff,
    [Retry_fresh 2] on mid-query source changes. *)

type fallback = { stage : string; reason : string }
(** one rung of the degradation ladder, e.g.
    [{ stage = "jit->generic"; reason = ... }]. *)

type session

type report = {
  wall_ms : float;
  polls : int;
  charged_bytes : int;
  retries : int;
  fallbacks : fallback list;  (** oldest first *)
  batches : int;  (** vectorized batches executed *)
  batch_rows_p50 : int;  (** median rows per batch over recent batches *)
}

(** {1 Session lifecycle} *)

val start : ?limits:limits -> ?name:string -> unit -> session
(** a fresh session; [limits] defaults to {!default_limits}. *)

val with_session : session -> (unit -> 'a) -> 'a
(** install [s] as the ambient session for the duration of [f]
    (exception-safe, restores the previous one — sessions nest). *)

val current : unit -> session option

val set_default_limits : limits -> unit
(** limits used by [start] when none are given — the CLI's [.timeout] /
    [.limit] dot-commands set these. *)

val default_limits : unit -> limits

(** {1 Cooperative control} *)

val cancel : session -> reason:string -> unit
(** trip the cancellation token; the query observes it at its next poll. *)

val cancel_after_polls : session -> polls:int -> unit
(** deterministic test injection: the token trips itself at the [polls]-th
    poll, exactly as an out-of-band {!cancel} landing mid-scan would. *)

val poll : ?source:string -> unit -> unit
(** the per-record check in scan loops: cancellation on every call, the
    wall clock every [poll_stride] calls. No-op without an ambient
    session. Raises [Cancelled] / [Deadline_exceeded]. *)

val poll_batch : ?source:string -> rows:int -> unit -> unit
(** the batch-boundary check of the vectorized path: one call covers
    [rows] records. Advances the poll counter by the whole batch (so
    deadline/cancellation semantics stay record-equivalent — a token
    armed for poll N trips at the first batch boundary at or past N),
    records the batch for the report's batch counters, and always
    consults the clock. *)

val checkpoint : ?source:string -> unit -> unit
(** operator-pipeline-boundary check: like {!poll} but always consults
    the clock. *)

(** {1 Memory budget} *)

val budgeted : unit -> bool
(** whether the ambient session carries a budget — guard for callers that
    would otherwise pay to compute byte sizes nobody accounts. *)

val charge : ?source:string -> int -> unit
(** hard-charge [bytes] of materialized working set against the ambient
    budget; raises [Budget_exceeded] once cumulative charges pass it. *)

val cache_budget : unit -> (int * int) option
(** [(session id, budget bytes)] of the ambient budgeted session, for the
    cache's per-query admission accounting. *)

(** {1 Degradation bookkeeping} *)

val note_fallback : ?session:session -> stage:string -> reason:string -> unit -> unit
val note_retry : unit -> unit

val with_retries : source:string -> (unit -> 'a) -> 'a
(** run [f], retrying transient [Io_failure]s up to [max_retries] times
    with bounded exponential backoff (each sleep capped at 250 ms). The
    deadline and cancellation token are re-checked before every attempt
    and sleep. Other structured errors propagate immediately. *)

(** {1 Clock utilities}

    Shared here so lower layers need no direct [unix] dependency. *)

val now_ms : unit -> float
val sleep_ms : float -> unit

(** {1 Reporting} *)

val elapsed_ms : session -> float

val name : session -> string
(** the label given at {!start} ("query" by default). *)

val session_id : session -> int
(** stable per-process id — the key the shared morsel pool's fair-share
    accounting and the cache's per-query admission scoping use. *)

val report : session -> report
val zero_report : report
val pp_report : Format.formatter -> report -> unit

(** {1 Admission control / overload resilience}

    The serving layer's front door (ISSUE 6). Where {!limits} bound one
    query, admission bounds the {e population}: concurrent queries
    globally and per tenant, queue depth, aggregate reserved memory, and
    queue wait time. A query that cannot be admitted is {e shed} with a
    typed [Vida_error.Overloaded] (exit code 77) carrying a retry-after
    hint — never a hang, never an unbounded queue. *)
module Admission : sig
  type config = {
    max_concurrent : int;  (** queries running at once *)
    max_queue : int;  (** waiters beyond the running set *)
    per_tenant : int;  (** concurrent running queries per tenant *)
    memory_watermark : int option;
        (** aggregate bytes the admitted set may reserve (each query
            reserves its memory budget; un-budgeted queries reserve 0) *)
    queue_timeout_ms : float;  (** max queue wait before shedding *)
    retry_after_ms : float;  (** backoff hint carried by shed errors *)
  }

  val default_config : config
  (** 4 concurrent, 16 queued, 2 per tenant, no watermark, 1 s queue
      timeout, 250 ms retry-after. *)

  type t
  type ticket

  val create : ?config:config -> unit -> t

  val admit : ?deadline_ms:float -> t -> tenant:string -> reserve:int -> ticket
  (** block until the query may run (a waiter occupies one of the
      [max_queue] slots; the wait is bounded by [queue_timeout_ms] and by
      [deadline_ms] when given), or shed it by raising
      [Vida_error.Overloaded]. Pair with {!release} via [Fun.protect]. *)

  val release : t -> ticket -> unit
  (** return the slot (and the memory reservation) — on every completion
      path, including failures and client disconnects. *)

  val pressure : t -> [ `Normal | `Elevated ]
  (** degradation-ladder input: [`Elevated] (waiters present or the
      running set at capacity) tells the server to run queries
      sequentially instead of fanning out over the shared pool. *)

  type gauges = {
    running : int;
    queued : int;
    reserved_bytes : int;
    tenants : (string * int) list;  (** running per tenant, sorted *)
    admitted_total : int;
    shed_total : int;
  }

  val gauges : t -> gauges
  (** instantaneous occupancy — the soak's leak check asserts these
      return to zero when traffic stops. *)

  val config : t -> config
end

(** {1 Per-source circuit breakers}

    Where {!with_retries} bounds one query's exposure to a transient
    fault, a breaker bounds the {e population}'s exposure to a source
    that keeps failing: after [failure_threshold] consecutive IO/parse
    failures against a source, further queries over it are shed
    immediately with a typed [Vida_error.Source_unavailable] (exit code
    78) carrying the remaining cooldown as a retry hint — a hashtable
    probe instead of a full failing scan plus retry backoffs. After
    [cooldown_ms] the breaker half-opens and lets exactly one caller
    through as a probe; success closes it, failure re-opens it.

    Keyed by the source's backing path; the taps live on the raw-buffer
    load path ({!Vida_raw.Raw_buffer}) and the query facade. State is
    process-global (breakers protect sources, not sessions). A breaker
    opening or shedding is recorded on the ambient session's degradation
    ladder as a ["breaker-open"] fallback. *)
module Breaker : sig
  type config = {
    failure_threshold : int;  (** consecutive failures that trip it *)
    cooldown_ms : float;  (** open → half-open probe delay *)
  }

  val default_config : config
  (** 5 consecutive failures, 2 s cooldown. *)

  val set_config : config -> unit
  val config : unit -> config

  val check : source:string -> unit
  (** the gate on the load path: no-op while closed; raises
      [Source_unavailable] while open (and counts the fast shed); lets
      one caller through as the probe once the cooldown elapses. *)

  val success : source:string -> unit
  (** a successful access: resets the consecutive-failure count and
      closes a half-open breaker (the probe succeeded). *)

  val failure : source:string -> reason:string -> unit
  (** a failed access: advances the consecutive count, trips the breaker
      at the threshold, and re-opens a half-open breaker (probe failed). *)

  val trip : source:string -> reason:string -> unit
  (** force the breaker open (chaos tests, operational shedding). *)

  val state : source:string -> [ `Closed | `Open | `Half_open ]

  type snapshot = {
    b_source : string;
    b_state : string;  (** ["closed"] | ["open"] | ["half-open"] *)
    b_failures : int;  (** consecutive failures while closed *)
    b_trips : int;  (** times the breaker opened *)
    b_shed : int;  (** queries shed while open *)
    b_reason : string;  (** last recorded failure reason *)
  }

  val snapshot : unit -> snapshot list
  (** all known breakers, sorted by source — the serving layer's health
      report embeds this. *)

  val reset : unit -> unit

  (** {2 Durable export/import}

      An open breaker is operational knowledge paid for with failed
      scans; these let the state directory carry it across a restart. *)

  type persisted = {
    p_source : string;
    p_failures : int;  (** consecutive failures while closed *)
    p_open_remaining_ms : float option;
        (** [Some r]: breaker is open with [r] ms of cooldown left — a
            duration, not a timestamp, so it survives a restart.
            Half-open exports as [Some 0.]: the probe died with the
            process. *)
    p_trips : int;
    p_shed : int;
    p_reason : string;
  }

  val export : unit -> persisted list
  (** all known breakers, sorted by source. *)

  val import : persisted list -> unit
  (** Reconstruct breaker entries: closed entries restore their
      consecutive-failure count, open ones are back-dated so exactly the
      persisted cooldown remains (clamped to the current config's
      cooldown). Existing entries for the same source are overwritten. *)
end
