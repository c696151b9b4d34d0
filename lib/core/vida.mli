(** ViDa: just-in-time data virtualization (the paper's public API).

    A session is a "virtual database instance" over raw files: register
    CSV / JSON-lines / binary-array files (and in-memory collections), then
    launch queries in comprehension syntax or SQL. Nothing is loaded at
    registration; auxiliary structures (positional maps, semi-indexes) and
    caches build up as a side effect of the queries you run — you build the
    database by querying it (paper §2).

    {[
      let db = Vida.create () in
      Vida.csv db ~name:"Patients" ~path:"patients.csv";
      Vida.json db ~name:"BrainRegions" ~path:"regions.jsonl";
      match
        Vida.query db
          {|for { p <- Patients, b <- BrainRegions, p.id = b.id,
                  p.age > 60 } yield avg b.quality|}
      with
      | Ok r -> Format.printf "%a@." Vida_data.Value.pp r.value
      | Error e -> prerr_endline (Vida.error_to_string e)
    ]} *)

type t

(** Which executor answers queries: the just-in-time closure-compiling
    engine (default), or the generic interpreted engine kept for the
    paper's static-operator comparison. *)
type engine = Jit | Generic

(** [create ()] — an empty session. [cache_capacity] bounds ViDa's data
    caches in bytes (default 256 MB). [limits] are the per-query resource
    limits (deadline, memory budget, retry policy) every query launched
    from this instance runs under; default {!Vida_governor.Governor.unlimited}.
    [domains] is the worker-domain budget for parallel query regions,
    resolved as {!Vida_raw.Morsel.resolve}: the [VIDA_DOMAINS] environment
    override wins, else the request clamped to the hardware count, else
    the hardware count. With a budget of 1 every query runs on the
    sequential engines.

    [state_dir] opens a durable state directory ({!Vida_raw.State_dir})
    and boots warm from it: positional-map sidecars are routed there,
    spilled plan-cache entries, circuit-breaker state and quarantine
    ledgers are loaded — every artifact fingerprint-revalidated before
    use (stale → silently rebuilt, corrupt → quarantined, never trusted).
    Raises [Vida_error.State_failure] (exit 80) when a live process
    already holds the directory. *)
val create :
  ?cache_capacity:int -> ?domains:int ->
  ?limits:Vida_governor.Governor.limits -> ?state_dir:string -> unit -> t

(** [set_limits t limits] changes the per-query resource limits for
    subsequent queries (the CLI's [.timeout] / [.limit] commands). *)
val set_limits : t -> Vida_governor.Governor.limits -> unit

val limits : t -> Vida_governor.Governor.limits

(** [set_domains t d] sets the domain budget for subsequent queries,
    taking [d] literally (floored at 1, {e not} clamped to the hardware):
    deliberate oversubscription is allowed — differential tests on small
    machines, IO-bound scans. The [VIDA_DOMAINS] environment variable only
    affects budgets resolved at {!create} time, never this setter. *)
val set_domains : t -> int -> unit

(** [domains t] — the current domain budget. *)
val domains : t -> int

(** {1 Vectorized execution}

    Process-global knobs of the vectorized batch engine (the
    vectorized→closure→generic degradation ladder's top rung); see
    {!Vida_engine.Vector}. [set_batch_rows] sets the morsel-local batch
    stride (floored at 1; the [VIDA_BATCH_ROWS] environment variable sets
    the initial value); [set_vectorized false] disables the rung entirely
    ([VIDA_VECTOR=0] does the same at startup). *)

val set_batch_rows : int -> unit
val batch_rows : unit -> int
val set_vectorized : bool -> unit
val vectorized : unit -> bool

(** [vector_stats ()] — process-wide vectorization counters (kernels
    compiled, batches executed, rows, fallbacks with recent reasons), the
    serving layer's health report embeds these. *)
val vector_stats : unit -> Vida_engine.Vector.stats

(** {1 Registering raw sources}

    Registration snapshots the file and (for CSV/JSON without an explicit
    schema) samples it for schema inference; no data is loaded. *)

val csv :
  t -> name:string -> path:string -> ?delim:char -> ?header:bool ->
  ?schema:Vida_data.Schema.t -> unit -> unit

val json : t -> name:string -> path:string -> ?element:Vida_data.Ty.t -> unit -> unit

(** [xml t ~name ~path] registers an XML document; the root's child
    elements form the collection (data-oriented mapping, see
    {!Vida_raw.Xml}). *)
val xml : t -> name:string -> path:string -> ?element:Vida_data.Ty.t -> unit -> unit

val binarray : t -> name:string -> path:string -> unit
val inline : t -> name:string -> Vida_data.Value.t -> unit

(** [external_source t ~name ~element ~count ~produce] wraps a foreign
    system (e.g. a loaded DBMS) as a queryable source — the paper's
    Figure 2 places existing DBMSs under the virtualization layer, and §2.1
    notes their own access paths keep serving the generated code. *)
val external_source :
  t -> name:string -> element:Vida_data.Ty.t -> count:(unit -> int) ->
  produce:((Vida_data.Value.t -> unit) -> unit) -> unit

(** [bind_param t name v] binds a session parameter usable as a free
    variable in queries. *)
val bind_param : t -> string -> Vida_data.Value.t -> unit

val sources : t -> string list
val describe : t -> string -> Vida_catalog.Source.t option

(** {1 Querying} *)

type error =
  | Parse_error of string
  | Type_error of string
  | Engine_error of string
  | Data_error of Vida_error.t
      (** structured raw-data or resource-governance failure: parse error
          with source + offset, truncation, stale auxiliary structure,
          resource limit, I/O failure, deadline exceeded, memory budget
          exceeded, cooperative cancellation (see {!Vida_error}) *)

val error_to_string : error -> string

type result = {
  value : Vida_data.Value.t;
  plan : Vida_algebra.Plan.t;  (** the optimized plan that ran *)
  compile_ms : float;  (** parse + normalize + optimize + generate *)
  exec_ms : float;
  raw_io : Vida_raw.Io_stats.snapshot;
      (** raw-file work this query did, from the refresh of its sources
          (an append repair, a reload) through execution *)
  served_from_cache : bool;  (** no raw bytes were read and no file loaded *)
  from_result_cache : bool;
      (** the whole result was re-used from a previous identical plan
          (paper §5 result re-use), as it was or [repaired]; an
          unrepaired one implies [served_from_cache] *)
  repaired : bool;
      (** the cached result was continued over the rows an append added
          to its source, not recomputed ({!stats}' [result_repairs]) *)
  plan_from_cache : bool;
      (** the optimized plan was served by the instance plan cache —
          parse, typecheck, translation and optimization were skipped.
          Entries are validated against the catalog revision at lookup
          and against every referenced source's fingerprint inside the
          query's epoch, so a schema change or file mutation forces a
          re-plan (in the same epoch), never a stale plan. *)
  governor : Vida_governor.Governor.report;
      (** the query's resource-governance trace: wall time, cooperative
          polls, bytes charged against the memory budget, transient-IO
          retries and degradation fallbacks (JIT→Generic, sidecar→raw,
          epoch-repin) *)
  epochs : (string * string) list;
      (** the query's pinned epoch: for every referenced file-backed
          source, the encoded {!Vida_raw.Fingerprint} of the file version
          every served value was computed from. A source mutating
          mid-query raises [Source_changed] (surfaced as [Data_error])
          rather than ever mixing generations; the instance's
          {!Vida_governor.Governor.change_policy} decides whether the
          query transparently re-pins and retries first. *)
  encoded : Vida_data.Value.encoded option Atomic.t;
      (** memo of [value]'s canonical JSON text and its
          {!Vida_data.Value.fnv64} tag, filled by the first {!encoded}
          call. A result computed with reuse on shares the memo with its
          result-cache entry, so every later hit on that entry gets the
          bytes without encoding again; purging or stale-dropping the
          entry discards the memo with it. *)
}

(** [encoded r] is [Value.encode r.value], computed at most once per
    result-cache entry. Safe under concurrent sessions: racing callers
    compute identical bytes and one memo wins. *)
val encoded : result -> Vida_data.Value.encoded

(** [query t text] runs a comprehension query end to end: parse → validate
    against the catalog → normalize → translate → optimize → generate the
    engine → execute. Stale sources referenced by the query are invalidated
    and re-registered first (paper §2.1). With [reuse] (default), the
    optimized plan is remembered per query text and served on repeats while
    the catalog and the referenced files are unchanged
    ({!result.plan_from_cache}). [domains] overrides the instance domain
    budget for this call only — the serving layer's degradation ladder runs
    queries with [~domains:1] under load. *)
val query :
  ?engine:engine -> ?optimize:bool -> ?reuse:bool -> ?domains:int -> t ->
  string -> (result, error) Result.t

(** [sql t text] is [query] for SQL input. *)
val sql :
  ?engine:engine -> ?optimize:bool -> ?reuse:bool -> ?domains:int -> t ->
  string -> (result, error) Result.t

(** [query_value t text] is [query] keeping only the value, raising
    [Failure] on error — for scripts and examples. *)
val query_value : ?engine:engine -> t -> string -> Vida_data.Value.t

(** [explain t text] shows normalization trace, both plans and cost
    estimates without executing. *)
val explain : t -> string -> (string, error) Result.t

(** [explain_sql t text] is [explain] for SQL input. *)
val explain_sql : t -> string -> (string, error) Result.t

(** {1 Static analysis} (verifier + linter, no execution)

    The plan verifier ({!Vida_analysis.Verifier}) re-derives
    well-typedness of every plan against the catalog; its participation in
    the query pipeline is controlled per session:
    - [Off] — no checking;
    - [Warn] (default) — plans are verified after translation and
      optimization, and every optimizer/parallel rewrite firing is checked
      pre/post; violations are recorded in {!verify_log};
    - [Strict] — a violation aborts the query with
      {!Vida_error.Plan_invalid} (surfaced as [Data_error]), the offending
      stage and rule named. *)

type verify = Off | Warn | Strict

val set_verify : t -> verify -> unit
val verify_mode : t -> verify

(** Verifier violations recorded so far under [Warn] (oldest first). *)
val verify_log : t -> string list

(** What {!analyze} reports for one query, without executing it. *)
type analysis = {
  analyzed_plan : Vida_algebra.Plan.t;  (** the optimized plan *)
  verify_error : Vida_error.t option;  (** [None] when the plan verifies *)
  findings : Vida_analysis.Lint.finding list;  (** most severe first *)
  declines : (string * string) list;
      (** [(position, reason)] for every operator expression the
          effect analysis declines for worker-domain execution — why the
          morsel engine would run (part of) this plan sequentially *)
}

(** [analyze t text] parses, typechecks, translates and optimizes [text],
    then runs the plan verifier and linter over the result — the CLI's
    [.analyze] / [--lint] entry. Nothing is executed and no raw data is
    touched beyond what registration already sampled. *)
val analyze : t -> string -> (analysis, error) Result.t

(** [analyze_sql t text] is [analyze] for SQL input. *)
val analyze_sql : t -> string -> (analysis, error) Result.t

(** Human-readable rendering of an {!analysis}. *)
val analysis_report : analysis -> string

(** [export t query ~format ~path] runs a query and materializes the
    result through an output plugin (paper §4.1: CSV for business reports,
    (binary) JSON for RESTful interfaces, ...). *)
val export :
  t -> string -> format:Vida_engine.Output.format -> path:string ->
  (result, error) Result.t

(** {1 Data cleaning} (paper §7)

    Attach a repair policy to a source: conversion failures and domain-rule
    violations can be nulled, repaired toward a dictionary, or mark the
    entry as problematic so subsequently generated code skips it. *)

val set_cleaning : t -> source:string -> Vida_cleaning.Policy.t -> unit

val cleaning_report : t -> source:string -> Vida_cleaning.Policy.report

(** Problematic entries discovered for a source so far. *)
val problematic_entries : t -> source:string -> int

(** [quarantine_report t ~source] — the raw spans rejected for [source]
    under a [Quarantine] cleaning policy: source name, byte offset and
    length into the raw file, and the rejection reason. Empty under other
    policies. *)
val quarantine_report :
  t -> source:string -> Vida_cleaning.Policy.quarantine_entry list

(** {1 Session introspection} *)

type stats = {
  queries_run : int;
  queries_from_cache : int;  (** answered without touching raw files *)
  result_reuse_hits : int;  (** answered from the result cache outright *)
  result_stale_drops : int;
      (** cached results dropped because a referenced file's fingerprint
          changed since the result was computed *)
  result_repairs : int;
      (** cached folds continued over the rows an append added to their
          source, instead of recomputed (also [from_result_cache]) *)
  plan_cache_hits : int;  (** queries whose optimized plan was reused *)
  plan_cache_misses : int;
      (** lookups that re-planned (no entry, stale entry, or a catalog
          change since the entry was derived) *)
  cache : Vida_storage.Cache.stats;
  io : Vida_raw.Io_stats.snapshot;  (** cumulative for this session *)
  structures_bytes : int;  (** positional maps + semi-indexes *)
}

val stats : t -> stats

(** [checkpoint t] persists the session's built positional maps next to
    their data files ([<path>.vidx]); a later session's first query
    restores them instead of re-scanning — the virtual database outlives
    the process. Returns how many sidecars were written. *)
val checkpoint : t -> int

(** [invalidate t name] drops [name]'s caches and auxiliary structures and
    re-snapshots the file. *)
val invalidate : t -> string -> unit

(** {1 Durable warm state}

    Only meaningful on an instance created with [?state_dir]; without one
    every operation below is a no-op returning its zero. *)

(** [persist_state t] spills the warm state — plan cache with fingerprint
    stamps, circuit-breaker table (remaining cooldowns), per-source
    quarantine ledgers, positional-map sidecars — through the state
    directory's crash-safe publish. Returns [false] (and flips the
    no-persist degraded mode) on an OS failure; never raises, never
    affects query serving. *)
val persist_state : t -> bool

(** Debounced {!persist_state} for post-query hooks: persists at most
    once per [min_interval_ms] (default 1000). *)
val maybe_persist : ?min_interval_ms:float -> t -> bool

type state_report = {
  sr_dir : string;
  sr_degraded : bool;  (** persistence suspended after an OS failure *)
  sr_persists : int;  (** artifact publishes completed *)
  sr_persist_failures : int;
  sr_warm_loads : int;  (** artifacts served CRC-valid from disk *)
  sr_corrupt_quarantined : int;  (** corrupt files moved to [*.corrupt] *)
  sr_quarantine_removed : int;  (** [*.corrupt] files GC'd *)
  sr_lock_reclaimed : bool;  (** a stale holder's lockfile was reclaimed *)
  sr_plan_warm_hits : int;  (** plans served from the state directory *)
  sr_structure_restores : int;  (** posmaps restored from sidecars *)
  sr_structure_rebuilds : int;  (** posmaps rebuilt from raw files *)
  sr_last_failure : string option;
}

(** [None] without a state directory. *)
val state_report : t -> state_report option

val state_dir : t -> string option

(** Re-enable persistence after the operator has made room (the
    degraded flag and failure counters are part of {!state_report} and
    the serving layer's health payload). *)
val reset_state_degraded : t -> unit

(** Remove quarantined [*.corrupt] files from the state directory
    (defaults purge all); returns how many were removed. Backs the CLI's
    [.quarantine clean]. *)
val clean_quarantine : ?max_age_s:float -> ?max_count:int -> t -> int

(** Release the state directory's single-instance lock. *)
val close_state : t -> unit

(** Direct access for benchmarks and tests. *)
val ctx : t -> Vida_engine.Plugins.ctx

(** {1 Concurrent serving sessions}

    One {!t} instance serves many concurrent clients: the catalog, data
    caches, auxiliary structures, result/plan caches and feedback tables
    are all internally lock-guarded. A [session] is one client's handle —
    it carries the tenant identity the admission controller accounts
    against, and makes the in-flight query cancellable from another
    thread (the serving layer cancels on client disconnect). Submissions
    on {e distinct} sessions may run truly concurrently from separate
    domains; a given session runs one query at a time. *)

type session

(** [open_session t] — a new client handle on the shared instance.
    [tenant] (default ["default"]) groups sessions for per-tenant
    admission caps; [name] labels governor reports and error sources. *)
val open_session : ?tenant:string -> ?name:string -> t -> session

val session_tenant : session -> string
val session_name : session -> string

(** [session_id s] — unique per process, for fair-share accounting and
    log correlation. *)
val session_id : session -> int

val session_db : session -> t

(** [submit s text] runs one query on this session (syntax [`Comp] or
    [`Sql], default comprehension). The query runs under a fresh governor
    session started from the instance limits, registered with [s] so a
    concurrent {!cancel} reaches it. On a closed session, returns
    [Cancelled] immediately. [deadline_ms] is the caller's remaining time
    budget (deadline propagation from a resilient client): it can only
    tighten the instance's configured deadline, never widen it. *)
val submit :
  ?engine:engine -> ?optimize:bool -> ?reuse:bool -> ?domains:int ->
  ?deadline_ms:float -> ?syntax:[ `Comp | `Sql ] -> session -> string ->
  (result, error) Result.t

(** [cancel s ~reason] trips the in-flight query's cancellation token (a
    no-op when none is running); the query stops at its next cooperative
    poll, releasing budget charges and epoch pins, and returns
    [Data_error (Cancelled _)] to its submitter. *)
val cancel : session -> reason:string -> unit

(** [close_session s] cancels any in-flight query and refuses future
    submissions. Idempotent. *)
val close_session : session -> unit
