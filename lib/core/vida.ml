open Vida_data
open Vida_calculus
open Vida_catalog
open Vida_engine

module Governor = Vida_governor.Governor

type engine = Jit | Generic

(** How much the plan verifier participates in the query pipeline. *)
type verify = Off | Warn | Strict

(* What continues a cached fold over the rows an append added to its one
   source: the fold's pre-finalize carrier (the value itself where
   finalize is the identity), the source's row count, element type and
   fingerprint when it was computed. *)
type repair = {
  r_source : string;
  r_carrier : Value.t;
  r_rows : int;
  r_element : Ty.t;
  r_fp : Vida_raw.Fingerprint.t;
}

(* A result-cache entry: the value, the sources it was computed from with
   their file fingerprints at computation time, and a memo of the value's
   wire encoding, filled by the first reply that needs it. Concurrent
   sessions may race to fill the memo; both compute the same bytes. The
   memo lives and dies with the entry, so a purge or a stale drop discards
   it too. A repairable entry outlives an append to its source. *)
type cached_result = {
  c_value : Value.t;
  c_sources : string list;
  c_stamps : (string * string) list;
  c_encoded : Value.encoded option Atomic.t;
  c_repair : repair option;
}

type t = {
  registry : Registry.t;
  mutable ctx : Plugins.ctx;
  mutable params : (string * Value.t) list;
  mutable limits : Governor.limits;
  mutable verify : verify;
  mutable verify_log : string list;  (* newest first *)
  mutable queries_run : int;
  mutable queries_from_cache : int;
  mutable session_io : Vida_raw.Io_stats.snapshot;
  (* §5 result re-use, keyed on the optimized plan text *)
  result_cache : (string, cached_result) Hashtbl.t;
  mutable result_hits : int;
  mutable result_stale_drops : int;
  mutable result_repairs : int;
  (* plan cache (serving layer): query text -> optimized plan, stamped
     with the source fingerprints and the catalog revision it was derived
     under; a hit skips parse/typecheck/translate/optimize entirely *)
  plan_cache : (string, Vida_algebra.Plan.t * (string * string) list * int) Hashtbl.t;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable catalog_rev : int;
      (* bumped on any change that can affect planning: registration,
         unregistration, parameter binds, invalidation, cleaning policies,
         source refreshes. Plan-cache entries from older revisions miss. *)
  (* --- durable warm state (ISSUE: crash-safe state directory) ---
     plan-cache entries spilled by an earlier process. Catalog revisions
     do not survive a restart, so spilled entries cannot carry one: a
     spill hit is validated by its source fingerprints alone and promoted
     into the live cache under the CURRENT revision — stale spills cost a
     replan, never a wrong plan. *)
  state : Vida_raw.State_dir.t option;
  plan_spill : (string, Vida_algebra.Plan.t * (string * string) list) Hashtbl.t;
  mutable plan_warm_hits : int;  (* plans served from the state directory *)
  mutable ledger_pending :
    (string * string * int list * bool
    * Vida_cleaning.Policy.quarantine_entry list)
    list;
      (* quarantine ledgers loaded at warm boot, waiting for their source
         to be registered: (source, fingerprint stamp, bad rows,
         structural flag, quarantine entries). Applied on the first query
         after the source appears, only under a matching fingerprint. *)
  mutable last_persist_ms : float;  (* debounce for {!maybe_persist} *)
  lock : Vida_sync.Lock.t;
      (* one instance serves many concurrent sessions: guards the result
         and plan caches, counters, verify log and ctx/params swaps *)
}

(* artifact version tags: Marshal framing is only self-describing within
   one compiler version, so the tag pins both the layout revision and the
   compiler — a mismatch makes the whole artifact read as cold, which is
   always safe *)
let artifact_version kind = Printf.sprintf "%s:1:%s" kind Sys.ocaml_version

let decode_frames : 'a. string -> string list option -> 'a list =
 fun kind frames ->
  match frames with
  | Some (v :: rest) when String.equal v (artifact_version kind) ->
    List.filter_map
      (fun f ->
        (* frames are CRC-validated, so bytes are exactly what a previous
           process wrote; the guard covers layout drift across versions *)
        match (Marshal.from_string f 0 : 'a) with
        | v -> Some v
        | exception _ -> None)
      rest
  | _ -> []

let load_warm_state ctx plan_spill sd =
  Vida_engine.Structures.set_sidecar_dir ctx.Plugins.structures
    (Vida_raw.State_dir.structure_dir sd);
  let breakers : Governor.Breaker.persisted list =
    decode_frames "breakers"
      (Vida_raw.State_dir.load_artifact sd ~name:"breakers")
  in
  Governor.Breaker.import breakers;
  let plans : (string * (string * string) list * Vida_algebra.Plan.t) list =
    decode_frames "plans" (Vida_raw.State_dir.load_artifact sd ~name:"plans")
  in
  List.iter
    (fun (key, stamps, plan) -> Hashtbl.replace plan_spill key (plan, stamps))
    plans;
  (decode_frames "ledger" (Vida_raw.State_dir.load_artifact sd ~name:"ledger")
    : (string * string * int list * bool
      * Vida_cleaning.Policy.quarantine_entry list)
      list)

let create ?cache_capacity ?domains ?(limits = Governor.unlimited) ?state_dir
    () =
  let registry = Registry.create () in
  let ctx = Plugins.create_ctx ?cache_capacity ?domains registry in
  let state =
    Option.map (fun dir -> Vida_raw.State_dir.open_dir dir) state_dir
  in
  let plan_spill = Hashtbl.create 16 in
  let ledger_pending =
    match state with
    | None -> []
    | Some sd -> load_warm_state ctx plan_spill sd
  in
  { registry; ctx; params = []; limits; verify = Warn; verify_log = [];
    queries_run = 0; queries_from_cache = 0;
    session_io = Vida_raw.Io_stats.zero; result_cache = Hashtbl.create 64;
    result_hits = 0; result_stale_drops = 0; result_repairs = 0;
    plan_cache = Hashtbl.create 64;
    plan_hits = 0; plan_misses = 0; catalog_rev = 0;
    state; plan_spill; plan_warm_hits = 0; ledger_pending;
    last_persist_ms = 0.;
    lock = Vida_sync.Lock.create ~rank:10 ~name:"vida.instance" () }

let locked t f = Vida_sync.Lock.protect t.lock f

(* any catalog-affecting change retires every cached plan *)
let bump_rev t = locked t (fun () -> t.catalog_rev <- t.catalog_rev + 1)

let set_verify t v = t.verify <- v
let verify_mode t = t.verify
let verify_log t = List.rev t.verify_log

let set_limits t limits = t.limits <- limits
let limits t = t.limits

(* [set_domains] takes the request literally (only floored at 1): a
   deliberate programmatic choice may oversubscribe the hardware — tests
   exercising the parallel path on small machines, IO-bound scans — while
   [create ?domains] resolves conservatively through {!Vida_raw.Morsel}. *)
let set_domains t d =
  locked t (fun () -> t.ctx <- { t.ctx with Plugins.domains = max 1 d });
  bump_rev t
let domains t = t.ctx.Plugins.domains

let set_batch_rows n = Vida_engine.Vector.set_batch_rows n
let batch_rows () = Vida_engine.Vector.batch_rows ()
let set_vectorized b = Vida_engine.Vector.set_enabled b
let vectorized () = Vida_engine.Vector.enabled ()
let vector_stats () = Vida_engine.Vector.stats ()

let csv t ~name ~path ?delim ?header ?schema () =
  ignore (Registry.register_csv t.registry ~name ~path ?delim ?header ?schema ());
  bump_rev t

let json t ~name ~path ?element () =
  ignore (Registry.register_json t.registry ~name ~path ?element ());
  bump_rev t

let xml t ~name ~path ?element () =
  ignore (Registry.register_xml t.registry ~name ~path ?element ());
  bump_rev t

let binarray t ~name ~path =
  ignore (Registry.register_binarray t.registry ~name ~path);
  bump_rev t

let inline t ~name v =
  ignore (Registry.register_inline t.registry ~name v);
  bump_rev t

let external_source t ~name ~element ~count ~produce =
  ignore (Registry.register_external t.registry ~name ~element ~count ~produce);
  bump_rev t

(* Drops the results computed from [source]; after an append the
   repairable ones stay, to be continued at their next lookup. *)
let purge_results ?(keep_repairable = false) t source =
  locked t (fun () ->
      let victims =
        Hashtbl.fold
          (fun key c acc ->
            if List.mem source c.c_sources && not (keep_repairable && c.c_repair <> None)
            then key :: acc
            else acc)
          t.result_cache []
      in
      List.iter (Hashtbl.remove t.result_cache) victims;
      t.catalog_rev <- t.catalog_rev + 1)

(* Current fingerprints of the file-backed sources among [names]; sources
   with no backing file (inline, external) carry no fingerprint. Inside a
   query the ambient epoch's pin is authoritative — the generation the
   query runs against, not whatever the file mutated to since. *)
let current_fingerprint name path =
  match Vida_raw.Epoch.pinned name with
  | Some fp -> Some fp
  | None -> Vida_raw.Fingerprint.probe path

let source_fingerprints t names =
  List.filter_map
    (fun name ->
      match Registry.find t.registry name with
      | Some { Source.path = Some path; _ } ->
        Option.map
          (fun fp -> (name, Vida_raw.Fingerprint.encode fp))
          (current_fingerprint name path)
      | _ -> None)
    names

(* A cached result is only servable while every file it was computed from
   still has the fingerprint it had then — otherwise serving it would
   return values from bytes that no longer exist. *)
let fingerprints_fresh t stored =
  List.for_all
    (fun (name, stamp) ->
      match Registry.find t.registry name with
      | Some { Source.path = Some path; _ } -> (
        match current_fingerprint name path with
        | Some fp -> String.equal (Vida_raw.Fingerprint.encode fp) stamp
        | None -> false)
      | _ -> true)
    stored

let bind_param t name v =
  locked t (fun () ->
      t.params <- (name, v) :: List.remove_assoc name t.params;
      Hashtbl.reset t.result_cache;
      Hashtbl.reset t.plan_cache;
      t.catalog_rev <- t.catalog_rev + 1;
      t.ctx <- { t.ctx with Plugins.params = t.params })

let sources t = Registry.names t.registry
let describe t name = Registry.find t.registry name

type error =
  | Parse_error of string
  | Type_error of string
  | Engine_error of string
  | Data_error of Vida_error.t

let error_to_string = function
  | Parse_error msg -> "parse error: " ^ msg
  | Type_error msg -> "type error: " ^ msg
  | Engine_error msg -> "engine error: " ^ msg
  | Data_error e -> Vida_error.to_string e

type result = {
  value : Value.t;
  plan : Vida_algebra.Plan.t;
  compile_ms : float;
  exec_ms : float;
  raw_io : Vida_raw.Io_stats.snapshot;
  served_from_cache : bool;
  from_result_cache : bool;
  repaired : bool;
  plan_from_cache : bool;
      (* the optimized plan came from the instance plan cache: parse,
         typecheck, translation and optimization were all skipped *)
  governor : Governor.report;
  epochs : (string * string) list;
      (* the query's pinned generations: source name -> encoded
         fingerprint of the file version every served value came from *)
  encoded : Value.encoded option Atomic.t;
      (* memo of [value]'s wire encoding, shared with its result-cache
         entry; read through {!encoded} *)
}

let encoded r =
  match Atomic.get r.encoded with
  | Some e -> e
  | None ->
    let e = Value.encode r.value in
    if Atomic.compare_and_set r.encoded None (Some e) then e
    else Option.get (Atomic.get r.encoded)

type stats = {
  queries_run : int;
  queries_from_cache : int;
  result_reuse_hits : int;
  result_stale_drops : int;
  result_repairs : int;
  plan_cache_hits : int;
  plan_cache_misses : int;
  cache : Vida_storage.Cache.stats;
  io : Vida_raw.Io_stats.snapshot;
  structures_bytes : int;
}

let invalidate t name =
  Plugins.invalidate t.ctx name;
  purge_results t name

let set_cleaning t ~source policy =
  Plugins.set_cleaning t.ctx ~source policy;
  purge_results t source

let cleaning_report t ~source =
  Vida_cleaning.Policy.report (Plugins.cleaning_policy t.ctx source)

let problematic_entries t ~source = Plugins.bad_row_count t.ctx source

let quarantine_report t ~source = Plugins.quarantine_report t.ctx source

let type_env t =
  Registry.type_env t.registry
  @ List.map (fun (name, v) -> (name, Value.typeof v)) t.params

let typecheck env expr =
  Result.map_error
    (fun e -> Type_error (Format.asprintf "%a" Typecheck.pp_error e))
    (Typecheck.check env expr)

(* Bring sources the expression references up to date (paper §2.1,
   refined): appends extend the derived state incrementally, anything
   else drops it. Either way results computed against the old generation
   are purged. Returns the fingerprints probed for sources found
   unchanged, so pinning does not probe them again. *)
let refresh_referenced t refs =
  List.filter_map
    (fun v ->
      match Registry.find t.registry v with
      | Some source -> (
        match Plugins.refresh_source t.ctx source with
        | `Unchanged, Some fp -> Some (v, fp)
        | `Unchanged, None -> None
        | `Extended, _ ->
          purge_results ~keep_repairable:true t v;
          None
        | `Rebuilt, _ ->
          purge_results t v;
          None)
      | None -> None)
    refs

(* Pin the current generation of every referenced file-backed source:
   the fingerprint the refresh just probed when the source was unchanged,
   a fresh probe otherwise. Each is pinned under both its registry name
   (cache stamping, producer ticks) and its backing path (raw-buffer
   loads, scan loops) — see {!Vida_raw.Epoch.pin}. Returns the pins for
   the query result. *)
let pin_referenced t epoch ~probed refs =
  List.filter_map
    (fun v ->
      match Registry.find t.registry v with
      | Some { Source.name; path = Some path; _ } -> (
        let fp =
          match List.assoc_opt v probed with
          | Some _ as fp -> fp
          | None -> Vida_raw.Fingerprint.probe path
        in
        match fp with
        | Some fp ->
          Vida_raw.Epoch.pin epoch ~source:name ~path fp;
          if not (String.equal name path) then
            Vida_raw.Epoch.pin epoch ~source:path ~path fp;
          Some (name, Vida_raw.Fingerprint.encode fp)
        | None -> None)
      | _ -> None)
    refs

(* wall-clock milliseconds: reported durations must include time spent
   blocked or on worker domains, which CPU time ([Sys.time]) misses *)
let now_ms () = Unix.gettimeofday () *. 1000.

(* Counts one executed query and its raw work since [io_before] in the
   session; returns that work and whether it touched no raw bytes. *)
let note_executed t ~io_before =
  let raw_io = Vida_raw.Io_stats.diff (Vida_raw.Io_stats.current ()) io_before in
  let served_from_cache =
    raw_io.Vida_raw.Io_stats.bytes_read = 0 && raw_io.Vida_raw.Io_stats.file_loads = 0
  in
  locked t (fun () ->
      t.queries_run <- t.queries_run + 1;
      if served_from_cache then t.queries_from_cache <- t.queries_from_cache + 1;
      t.session_io <-
        (let open Vida_raw.Io_stats in
         { bytes_read = t.session_io.bytes_read + raw_io.bytes_read;
           fields_tokenized = t.session_io.fields_tokenized + raw_io.fields_tokenized;
           values_converted = t.session_io.values_converted + raw_io.values_converted;
           objects_parsed = t.session_io.objects_parsed + raw_io.objects_parsed;
           index_probes = t.session_io.index_probes + raw_io.index_probes;
           file_loads = t.session_io.file_loads + raw_io.file_loads }));
  (raw_io, served_from_cache)

(* --- result repair (paper §2.1: derived state follows the raw file) ---

   A cached fold over one source, with a resumable monoid, survives an
   append to that source. Its next lookup folds only the rows the append
   added, from the stored carrier, on one domain ({!Compile.resume}). It
   recomputes instead when the element type changed, under a cleaning
   policy or bad rows, when the old generation ended mid-row, or when the
   current generation does not extend the stored one. *)

(* The repair record of a fold computed in the current epoch, [None]
   when its source's structure does not hold the pinned generation. *)
let fold_repair t ctx ~r_source ~r_carrier ~r_element =
  match (Registry.find t.registry r_source, Vida_raw.Epoch.pinned r_source) with
  | Some source, Some r_fp ->
    Option.map
      (fun r_rows -> { r_source; r_carrier; r_rows; r_element; r_fp })
      (Plugins.item_count ctx source)
  | _ -> None

let repair_result t ctx plan c =
  match c.c_repair with
  | None -> None
  | Some r -> (
    match (Registry.find t.registry r.r_source, plan) with
    | Some source, Vida_algebra.Plan.Reduce { monoid; _ }
      when Ty.equal (Source.element_type source) r.r_element -> (
      match Plugins.items_before ctx source ~old_fp:r.r_fp with
      | Some (from, n) when from = r.r_rows -> (
        match
          Compile.resume ctx (Analysis.neutralize_count plan) ~carrier:r.r_carrier ~from
        with
        | Some (r_carrier, n') when n' = n ->
          Option.map
            (fun r_fp ->
              { c with c_value = Monoid.finalize monoid r_carrier;
                c_stamps = source_fingerprints t c.c_sources;
                c_encoded = Atomic.make None;
                c_repair = Some { r with r_carrier; r_rows = n; r_fp } })
            (Vida_raw.Epoch.pinned r.r_source)
        | Some _ | None -> None
        | exception
            (Plugins.Engine_error _ | Eval.Error _ | Value.Type_error _ | Invalid_argument _)
          ->
          (* the recompute reports it *)
          None)
      | Some _ | None -> None)
    | _ -> None)

(* --- plan-verifier participation (ISSUE: typed-IR invariant checking).

   [Warn] re-derives well-typedness after translation and optimization and
   per rewrite firing, recording violations in [verify_log]; [Strict]
   aborts the query with [Vida_error.Plan_invalid] instead. [Off] skips
   verification entirely. *)

let note_verify t e =
  locked t (fun () -> t.verify_log <- Vida_error.to_string e :: t.verify_log)

let verify_stage t ~memo ~env stage plan =
  match t.verify with
  | Off -> ()
  | Warn -> (
    match Vida_analysis.Verifier.verify ~memo:(Lazy.force memo) ~stage ~env plan with
    | Ok () -> ()
    | Error e -> note_verify t e)
  | Strict -> Vida_analysis.Verifier.verify_exn ~memo:(Lazy.force memo) ~stage ~env plan

(* Per-firing pre/post obligation: passed as the optimizer's rewrite
   check, and called for the JIT's count-head rewrite. [env] and [memo]
   are the query's own, forced only when verification is on: every
   check of one derivation shares the memo, so a firing types only the
   nodes its rule built. *)
let firing_check t ~memo ~env stage ~rule ~before ~after =
  match t.verify with
  | Off -> ()
  | Warn | Strict -> (
    let env = Lazy.force env and memo = Lazy.force memo in
    match
      Vida_analysis.Verifier.check_rewrite ~memo ~stage ~rule ~env ~before ~after ()
    with
    | Ok () -> ()
    | Error e -> if t.verify = Strict then raise (Vida_error.Error e) else note_verify t e)

(* --- plan cache (serving layer) ---

   Keyed on the query text (plus syntax, engine and optimize flag); an
   entry is only served while the catalog revision it was derived under is
   current AND every file-backed source it references still has the
   fingerprint it had then — a changed file can change an inferred schema
   and hence the valid plan. The revision is checked at lookup; the
   fingerprints are checked inside the query's epoch, against the pins the
   query runs under, so validating a cached plan costs no probe of its
   own. Serving a cached plan skips parse, typecheck, translation and
   optimization; execution (epochs, governor, result cache) is identical.
   A cached plan intentionally freezes the optimizer decision:
   runtime-feedback-driven replans only happen on a miss. *)

let plan_cache_key ~syntax ~engine ~optimize text =
  String.concat "|"
    [ syntax; (match engine with Jit -> "jit" | Generic -> "gen");
      (if optimize then "opt" else "raw"); text ]

(* stored under the revision read {e before} the plan was derived: if a
   concurrent catalog change bumped the revision meanwhile, the entry
   self-invalidates on first lookup *)
let plan_cache_store t key ~rev plan =
  let stamps = source_fingerprints t (Vida_algebra.Plan.free_vars plan) in
  locked t (fun () -> Hashtbl.replace t.plan_cache key (plan, stamps, rev))

(* A plan-cache candidate on its way to execution. Its stamps are checked
   inside the epoch; a stale candidate is dropped, counted as a miss, and
   the query re-derives its plan from [reparse] in the same epoch. *)
type cached_plan = {
  key : string;
  plan : Vida_algebra.Plan.t;
  stamps : (string * string) list;
  reparse : unit -> (Expr.t, error) Result.t;
}

(* In-epoch validation of a plan-cache candidate: a hit, or — stamps stale
   against the pins — the re-parsed expression, with the revision read
   after this query's own refresh, under which its new plan is stored. *)
let validate_cached t (cp : cached_plan) =
  if fingerprints_fresh t cp.stamps then (
    locked t (fun () -> t.plan_hits <- t.plan_hits + 1);
    `Hit)
  else
    let rev =
      locked t (fun () ->
          (match Hashtbl.find_opt t.plan_cache cp.key with
          | Some (plan, _, _) when plan == cp.plan ->
            Hashtbl.remove t.plan_cache cp.key
          | _ -> ());
          t.plan_misses <- t.plan_misses + 1;
          t.catalog_rev)
    in
    `Stale rev

(* A unit of execution: a freshly parsed expression going through the
   whole pipeline, or an optimized plan served by the plan cache that
   skips straight to execution once its stamps validate. *)
let rec run_job ?(engine = Jit) ?(optimize = true) ?(reuse = true) ?domains
    ?(note_plan = fun _ -> ()) t
    (job : [ `Expr of Expr.t | `Plan of cached_plan ]) :
    (result, error) Result.t =
  let checked =
    match job with
    | `Plan _ ->
      (* the plan was typechecked when first derived; cache validation
         (catalog revision + source fingerprints) vouches the environment
         has not changed since *)
      Ok ()
    | `Expr expr -> typecheck (type_env t) expr
  in
  match checked with
  | Error e -> Error e
  | Ok () ->
    (* every execution runs inside a governor session: deadline +
       cancellation token + memory budget. An already-ambient session
       (a caller wrapping several queries, or a test driving cancellation)
       is reused; otherwise a fresh one starts from the instance limits. *)
    let session, owned =
      match Governor.current () with
      | Some s -> (s, false)
      | None -> (Governor.start ~limits:t.limits ~name:"query" (), true)
    in
    let body () =
      run_governed ~engine ~optimize ~reuse ~domains ~note_plan ~session t job
    in
    if owned then Governor.with_session session body else body ()

(* Each attempt refreshes the referenced sources (repairing appends
   incrementally), pins a fresh epoch, and runs the whole pipeline inside
   it. A [Source_changed] raised anywhere — a scan-loop probe, a buffer
   reload, a cache validation — aborts the attempt before any value mixing
   two generations can be produced; the instance's change policy decides
   whether to re-pin and retry ([Retry_fresh], each retry recorded as an
   ["epoch-repin"] fallback) or surface the error ([Fail_fast]). The
   governor session (deadline, budget) spans all attempts. *)
and run_governed ~engine ~optimize ~reuse ~domains ~note_plan ~session t job :
    (result, error) Result.t =
  let refs =
    match job with
    | `Expr expr -> Expr.free_vars expr
    | `Plan cp -> Vida_algebra.Plan.free_vars cp.plan
  in
  (* (registry name, backing path) of every file-backed source the query
     touches — the keys of their circuit breakers *)
  let breaker_keys =
    List.filter_map
      (fun v ->
        match Registry.find t.registry v with
        | Some { Source.name; path = Some path; _ } -> Some (name, path)
        | _ -> None)
      refs
  in
  let retry_budget =
    match t.limits.Governor.on_change with
    | Governor.Retry_fresh n -> max 0 n
    | Governor.Fail_fast -> 0
  in
  let rec attempt retries_left =
    let outcome =
      try
        (* shed before any work when a referenced source's breaker is
           open: a hashtable probe instead of refresh + pin + scan *)
        List.iter
          (fun (_, path) -> Governor.Breaker.check ~source:path)
          breaker_keys;
        (* the query's raw-access window opens before its refresh: an
           append repair, a file load or a map build it triggers is its
           own *)
        let io_before = Vida_raw.Io_stats.current () in
        let probed = refresh_referenced t refs in
        let epoch = Vida_raw.Epoch.create () in
        let epochs = pin_referenced t epoch ~probed refs in
        Vida_raw.Epoch.with_epoch epoch (fun () ->
            run_pinned ~engine ~optimize ~reuse ~domains ~note_plan ~session
              ~epochs ~io_before t job)
      with Vida_error.Error e -> Error (Data_error e)
    in
    match outcome with
    | Error (Data_error (Vida_error.Source_changed { source; detail }))
      when retries_left > 0 ->
      Governor.note_fallback ~session ~stage:"epoch-repin"
        ~reason:(source ^ ": " ^ detail) ();
      attempt (retries_left - 1)
    | Error
        (Data_error
           ( Vida_error.Parse_error { source; reason; _ }
           | Vida_error.Truncated { source; expected = reason; _ } ))
      when List.exists
             (fun (name, path) -> source = name || source = path)
             breaker_keys ->
      (* parse-level flapping counts against the breaker too (the IO tap
         lives on the raw-buffer load path); keyed by path, which is what
         the load-path check consults *)
      List.iter
        (fun (name, path) ->
          if source = name || source = path then
            Governor.Breaker.failure ~source:path ~reason)
        breaker_keys;
      outcome
    | Ok _ as r ->
      (* a whole-query success is the breaker's probe success: resets the
         consecutive-failure counts and closes a half-open breaker *)
      List.iter
        (fun (_, path) -> Governor.Breaker.success ~source:path)
        breaker_keys;
      r
    | r -> r
  in
  attempt retry_budget

and run_pinned ~engine ~optimize ~reuse ~domains ~note_plan ~session ~epochs
    ~io_before t job : (result, error) Result.t =
    try
      let t0 = now_ms () in
      (* per-submit domain override (the serving layer's degradation
         ladder runs queries sequentially under load): a copied ctx
         sharing every cache/table, differing only in the budget *)
      let ctx =
        match domains with
        | Some d when d <> t.ctx.Plugins.domains ->
          { t.ctx with Plugins.domains = max 1 d }
        | _ -> t.ctx
      in
      (* only plan derivation and the verifier read the type environment:
         a plan-cache hit whose result is cached never builds it. One
         typing memo serves every check of this query's derivation. *)
      let venv = lazy (type_env t) in
      let memo = lazy (Vida_analysis.Verifier.memo ()) in
      let derive note_plan expr =
        let venv = Lazy.force venv in
        let normalized = Rewrite.normalize expr in
        let plan = Vida_algebra.Translate.plan_of_comp normalized in
        let verify_stage = verify_stage t ~memo ~env:venv in
        verify_stage "translate" plan;
        let plan =
          if optimize then (
            let plan =
              Vida_optimizer.Optimizer.optimize
                ~check:(firing_check t ~memo ~env:(Lazy.from_val venv) "optimize")
                ctx plan
            in
            verify_stage "optimize" plan;
            plan)
          else plan
        in
        note_plan plan;
        plan
      in
      let compiled =
        match job with
        | `Expr expr -> Ok (derive note_plan expr, false)
        | `Plan cp -> (
          match validate_cached t cp with
          | `Hit -> Ok (cp.plan, true)
          | `Stale rev -> (
            match cp.reparse () with
            | Error e -> Error e
            | Ok expr ->
              Result.map
                (fun () -> (derive (plan_cache_store t cp.key ~rev) expr, false))
                (typecheck (Lazy.force venv) expr)))
      in
      match compiled with
      | Error e -> Error e
      | Ok (plan, plan_from_cache) ->
      let cache_key =
        (match engine with Jit -> "jit|" | Generic -> "gen|")
        ^ Vida_algebra.Plan.to_string plan
      in
      let cached =
        (* a hit is only a hit while the underlying files are unchanged;
           a stale entry is continued over its source's appended rows
           when it can be, else dropped and the query recomputed *)
        match
          if reuse then
            locked t (fun () -> Hashtbl.find_opt t.result_cache cache_key)
          else None
        with
        | Some c ->
          if fingerprints_fresh t c.c_stamps then `Hit c
          else (
            let t1 = now_ms () in
            match repair_result t ctx plan c with
            | Some c' ->
              locked t (fun () -> Hashtbl.replace t.result_cache cache_key c');
              `Repaired (c', t1, now_ms ())
            | None ->
              locked t (fun () ->
                  Hashtbl.remove t.result_cache cache_key;
                  t.result_stale_drops <- t.result_stale_drops + 1);
              `Miss)
        | None -> `Miss
      in
      match cached with
      | `Hit c ->
        locked t (fun () ->
            t.queries_run <- t.queries_run + 1;
            t.queries_from_cache <- t.queries_from_cache + 1;
            t.result_hits <- t.result_hits + 1);
        Ok
          { value = c.c_value; plan; compile_ms = now_ms () -. t0; exec_ms = 0.;
            raw_io = Vida_raw.Io_stats.zero; served_from_cache = true;
            from_result_cache = true; repaired = false; plan_from_cache;
            governor = Governor.report session; epochs; encoded = c.c_encoded }
      | `Repaired (c, t1, t2) ->
        (* the refresh that grew the source was this query's raw work *)
        let raw_io, served_from_cache = note_executed t ~io_before in
        locked t (fun () -> t.result_repairs <- t.result_repairs + 1);
        Ok
          { value = c.c_value; plan; compile_ms = t1 -. t0; exec_ms = t2 -. t1; raw_io;
            served_from_cache; from_result_cache = true; repaired = true; plan_from_cache;
            governor = Governor.report session; epochs; encoded = c.c_encoded }
      | `Miss -> (
      (* a fold that may be continued after an append keeps its carrier *)
      let repair_source =
        if not reuse then None
        else
          Option.bind (Compile.resumable ctx plan) (fun name ->
              Option.map
                (fun source -> (name, Source.element_type source))
                (Registry.find t.registry name))
      in
      let carrier = ref None in
      let ctx =
        if repair_source = None then ctx
        else { ctx with Plugins.carrier = Some (fun c -> carrier := Some c) }
      in
      let run_generic () = (Interp.query ctx plan) () in
      (* degradation ladder, rung 1: a JIT code-generation or execution
         failure demotes the query to the Generic engine instead of failing
         it outright (the two engines are semantically equivalent).
         Governor violations — deadline, budget, cancellation — and
         structured data errors are NOT engine bugs and propagate. *)
      let degrade reason =
        Governor.note_fallback ~session ~stage:"jit->generic" ~reason ();
        run_generic ()
      in
      let run () =
        match engine with
        | Generic -> run_generic ()
        | Jit -> (
          match Vida_raw.Fault_plan.jit_failure () with
          | Some reason -> degrade reason
          | None -> (
            (* one count-head rewrite per JIT execution, before the kernels
               classify the plan and before any needs analysis, at every
               domain count; the Generic foil, explain and the result-cache
               key keep the original plan *)
            let jit_plan = Analysis.neutralize_count plan in
            if jit_plan != plan then
              firing_check t ~memo ~env:venv "jit" ~rule:"neutralize-count-head"
                ~before:plan ~after:jit_plan;
            (* one entry at every domain count: the kernels split their
               own rows into morsels, and what they decline runs on the
               closure engine on one domain *)
            match Compile.query ctx jit_plan () with
            | value -> value
            | exception Plugins.Engine_error msg -> degrade msg
            | exception Eval.Error msg -> degrade msg
            | exception Value.Type_error msg -> degrade msg
            | exception Invalid_argument msg -> degrade msg))
      in
      let t1 = now_ms () in
      match run () with
      | value ->
        let t2 = now_ms () in
        let raw_io, served_from_cache = note_executed t ~io_before in
        let encoded = Atomic.make None in
        if reuse then (
          let c_sources = Vida_algebra.Plan.free_vars plan in
          let c_stamps = source_fingerprints t c_sources in
          let c_repair =
            match (repair_source, !carrier) with
            | Some (r_source, r_element), Some r_carrier ->
              fold_repair t ctx ~r_source ~r_carrier ~r_element
            | _ -> None
          in
          locked t (fun () ->
              Hashtbl.replace t.result_cache cache_key
                { c_value = value; c_sources; c_stamps; c_encoded = encoded; c_repair }));
        Ok
          { value; plan; compile_ms = t1 -. t0; exec_ms = t2 -. t1; raw_io;
            served_from_cache; from_result_cache = false; repaired = false; plan_from_cache;
            governor = Governor.report session; epochs; encoded }
      | exception Plugins.Engine_error msg -> Error (Engine_error msg)
      | exception Eval.Error msg -> Error (Engine_error msg)
      | exception Value.Type_error msg -> Error (Engine_error msg))
    with Vida_error.Error e ->
      (* structured data-layer failure anywhere in the pipeline — stale
         sidecar handling, corrupt raw bytes under a Strict policy,
         resource-limit or deadline/budget/cancellation hits — surfaces as
         a typed error, never a crash *)
      Error (Data_error e)

(* A live-cache miss consults the warm spill loaded from the state
   directory: an entry whose source fingerprints all still match is
   promoted into the live cache under the current revision (counted as a
   warm hit — the reuse proof the crash harness asserts on); a stale or
   consumed entry is dropped. Revalidation happens here, per key, not at
   boot: boot stays O(read) regardless of catalog size. *)
let plan_spill_find t key =
  match locked t (fun () -> Hashtbl.find_opt t.plan_spill key) with
  | None -> None
  | Some (plan, stamps) ->
    if fingerprints_fresh t stamps then (
      locked t (fun () ->
          Hashtbl.remove t.plan_spill key;
          t.plan_warm_hits <- t.plan_warm_hits + 1;
          Hashtbl.replace t.plan_cache key (plan, stamps, t.catalog_rev));
      Some (plan, stamps))
    else (
      locked t (fun () -> Hashtbl.remove t.plan_spill key);
      None)

(* Plan-cache lookup by revision only: the candidate's stamps are
   checked later, inside the query's epoch ({!validate_cached}), where
   the hit is counted. A revision mismatch drops the entry. *)
let plan_cache_find t key =
  match locked t (fun () -> (Hashtbl.find_opt t.plan_cache key, t.catalog_rev)) with
  | None, _ -> (
    match plan_spill_find t key with
    | Some _ as hit -> hit
    | None ->
      locked t (fun () -> t.plan_misses <- t.plan_misses + 1);
      None)
  | Some (plan, stamps, rev), current_rev ->
    if rev = current_rev then Some (plan, stamps)
    else (
      locked t (fun () ->
          Hashtbl.remove t.plan_cache key;
          t.plan_misses <- t.plan_misses + 1);
      None)

(* Quarantine ledgers loaded at warm boot wait here until their source is
   registered (registration order is the caller's business, not ours); a
   ledger is only restored under a matching file fingerprint — a source
   whose bytes changed since the ledger was recorded gets a clean slate,
   the same answer a cold start would give. A registered source with a
   stale or missing fingerprint drops its pending ledger. *)
let apply_pending_ledgers t =
  let pending = locked t (fun () -> t.ledger_pending) in
  if pending <> [] then (
    let remaining =
      List.filter
        (fun (name, stamp, bad, structural, quarantined) ->
          match Registry.find t.registry name with
          | None -> true (* not yet registered: keep waiting *)
          | Some { Source.path = Some path; _ } ->
            (match current_fingerprint name path with
            | Some fp when String.equal (Vida_raw.Fingerprint.encode fp) stamp
              ->
              Plugins.ledger_restore t.ctx ~source:name ~bad ~structural
                ~quarantined
            | _ -> ());
            false
          | Some _ -> false)
        pending
    in
    (* restores are idempotent, so a concurrent pass at worst replays one *)
    locked t (fun () -> t.ledger_pending <- remaining))

let run_text ?(engine = Jit) ?(optimize = true) ?(reuse = true) ?domains ~syntax
    t text =
  apply_pending_ledgers t;
  let parse =
    match syntax with `Comp -> Parser.parse | `Sql -> Vida_sql.Sql.translate
  in
  let reparse () = Result.map_error (fun msg -> Parse_error msg) (parse text) in
  let run_parsed ?note_plan () =
    match reparse () with
    | Error e -> Error e
    | Ok expr -> run_job ~engine ~optimize ~reuse ?domains ?note_plan t (`Expr expr)
  in
  if not reuse then run_parsed ()
  else
    let key =
      plan_cache_key
        ~syntax:(match syntax with `Comp -> "comp" | `Sql -> "sql")
        ~engine ~optimize text
    in
    match plan_cache_find t key with
    | Some (plan, stamps) ->
      run_job ~engine ~optimize ~reuse ?domains t (`Plan { key; plan; stamps; reparse })
    | None ->
      let rev = locked t (fun () -> t.catalog_rev) in
      run_parsed ~note_plan:(fun plan -> plan_cache_store t key ~rev plan) ()

let query ?engine ?optimize ?reuse ?domains t text =
  run_text ?engine ?optimize ?reuse ?domains ~syntax:`Comp t text

let sql ?engine ?optimize ?reuse ?domains t text =
  run_text ?engine ?optimize ?reuse ?domains ~syntax:`Sql t text

let query_value ?engine t text =
  match query ?engine t text with
  | Ok r -> r.value
  | Error e -> failwith (error_to_string e)

let export t text ~format ~path =
  match query t text with
  | Error _ as e -> e
  | Ok r ->
    Vida_engine.Output.write_file path format r.value;
    Ok r

let explain_expr t (expr : Expr.t) =
  (
    match Typecheck.infer (type_env t) expr with
    | Error e -> Error (Type_error (Format.asprintf "%a" Typecheck.pp_error e))
    | Ok ty ->
      let normalized = Rewrite.normalize expr in
      let trace = Rewrite.last_trace () in
      let plan = Vida_algebra.Translate.plan_of_comp normalized in
      let optimized, report = Vida_optimizer.Optimizer.optimize_with_report t.ctx plan in
      let buf = Buffer.create 512 in
      let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      pf "result type: %s\n" (Ty.to_string ty);
      pf "normalized:  %s\n" (Expr.to_string normalized);
      if trace <> [] then pf "rewrites:    %s\n" (String.concat ", " trace);
      pf "\nlogical plan (%s):\n%s\n"
        (Format.asprintf "%a" Vida_optimizer.Cost.pp report.Vida_optimizer.Optimizer.before)
        (Vida_algebra.Plan.to_string plan);
      pf "\noptimized plan (%s):\n%s\n"
        (Format.asprintf "%a" Vida_optimizer.Cost.pp report.Vida_optimizer.Optimizer.after)
        (Vida_algebra.Plan.to_string optimized);
      Ok (Buffer.contents buf))

let explain t text =
  match Parser.parse text with
  | Error msg -> Error (Parse_error msg)
  | Ok expr -> explain_expr t expr

let explain_sql t text =
  match Vida_sql.Sql.translate text with
  | Error msg -> Error (Parse_error msg)
  | Ok expr -> explain_expr t expr

(* --- static analysis: verify + lint, no execution --- *)

type analysis = {
  analyzed_plan : Vida_algebra.Plan.t;
  verify_error : Vida_error.t option;
  findings : Vida_analysis.Lint.finding list;
}

let analyze_expr t (expr : Expr.t) =
  match Typecheck.check (type_env t) expr with
  | Error e -> Error (Type_error (Format.asprintf "%a" Typecheck.pp_error e))
  | Ok () ->
    let normalized = Rewrite.normalize expr in
    let plan = Vida_algebra.Translate.plan_of_comp normalized in
    let plan = Vida_optimizer.Optimizer.optimize t.ctx plan in
    let env = type_env t in
    let verify_error =
      match Vida_analysis.Verifier.verify ~stage:"analyze" ~env plan with
      | Ok () -> None
      | Error e -> Some e
    in
    let stale =
      List.filter
        (fun name ->
          match Registry.find t.registry name with
          | Some source -> Source.stale source
          | None -> false)
        (Vida_algebra.Plan.free_vars plan)
    in
    let findings = Vida_analysis.Lint.plan ~env ~stale plan in
    Ok { analyzed_plan = plan; verify_error; findings }

let analyze t text =
  match Parser.parse text with
  | Error msg -> Error (Parse_error msg)
  | Ok expr -> analyze_expr t expr

let analyze_sql t text =
  match Vida_sql.Sql.translate text with
  | Error msg -> Error (Parse_error msg)
  | Ok expr -> analyze_expr t expr

let analysis_report (a : analysis) =
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "plan:\n%s\n" (Vida_algebra.Plan.to_string a.analyzed_plan);
  (match a.verify_error with
  | None -> pf "verifier:  ok\n"
  | Some e -> pf "verifier:  FAILED: %s\n" (Vida_error.to_string e));
  (match a.findings with
  | [] -> pf "lint:      clean\n"
  | fs ->
    pf "lint:      %d finding(s)\n" (List.length fs);
    List.iter
      (fun f -> pf "  %s\n" (Format.asprintf "%a" Vida_analysis.Lint.pp_finding f))
      fs);
  (* concurrency-sanitizer state rides along: process-wide, not per-plan,
     but .analyze is where operators look when a health snapshot shows a
     non-zero sync counter *)
  let sc = Vida_sync.counters () in
  if Vida_sync.enabled () then begin
    pf
      "sync:      mode=%s locks=%d cells=%d race-allowed=%d kernel-checks=%d \
       findings=%d\n"
      (match Vida_sync.mode () with
      | Vida_sync.Off -> "off"
      | Vida_sync.Warn -> "warn"
      | Vida_sync.Strict -> "strict")
      sc.Vida_sync.locks sc.Vida_sync.cells sc.Vida_sync.race_allowed
      sc.Vida_sync.kernel_checks sc.Vida_sync.total;
    List.iter
      (fun f ->
        pf "  [%s] %s: %s\n" f.Vida_sync.f_kind f.Vida_sync.f_subject
          f.Vida_sync.f_detail)
      (Vida_sync.findings ())
  end
  else pf "sync:      sanitizer off (VIDA_SANITIZE=1 to enable)\n";
  Buffer.contents buf

let stats (t : t) =
  let queries_run, queries_from_cache, result_reuse_hits, result_stale_drops,
      result_repairs, plan_cache_hits, plan_cache_misses, io =
    locked t (fun () ->
        ( t.queries_run, t.queries_from_cache, t.result_hits,
          t.result_stale_drops, t.result_repairs, t.plan_hits, t.plan_misses,
          t.session_io ))
  in
  { queries_run; queries_from_cache; result_reuse_hits; result_stale_drops;
    result_repairs; plan_cache_hits; plan_cache_misses;
    cache = Vida_storage.Cache.stats t.ctx.Plugins.cache;
    io;
    structures_bytes = Structures.footprint t.ctx.Plugins.structures
  }

let checkpoint t =
  List.fold_left
    (fun n source ->
      if Structures.checkpoint_posmap t.ctx.Plugins.structures source then n + 1 else n)
    0
    (Registry.sources t.registry)

(* --- durable warm state: persist / report / retention ----------------

   [persist_state] writes every spillable piece of warm state through the
   state directory's degraded-aware publish: the plan cache (with its
   fingerprint stamps), the process-global breaker table (remaining
   cooldowns, not timestamps), the per-source quarantine ledgers (stamped
   with the fingerprint they were learned under), and the positional-map
   sidecars. Lock discipline: each subsystem is read under its OWN lock
   (instance 10, plugins 45, breaker 80) and released before the
   state-dir lock (85) is taken inside save — no nesting against rank
   order. Any OS failure flips the no-persist degraded mode and returns
   false; it never raises out of here and never touches query serving. *)

let persist_state t =
  match t.state with
  | None -> false
  | Some sd ->
    let plans =
      locked t (fun () ->
          Hashtbl.fold
            (fun key (plan, stamps, _) acc -> (key, stamps, plan) :: acc)
            t.plan_cache [])
    in
    let plan_frames =
      artifact_version "plans"
      :: List.map (fun e -> Marshal.to_string e []) plans
    in
    let ok_plans = Vida_raw.State_dir.persist sd ~name:"plans" plan_frames in
    let breaker_frames =
      artifact_version "breakers"
      :: List.map
           (fun (p : Governor.Breaker.persisted) -> Marshal.to_string p [])
           (Governor.Breaker.export ())
    in
    let ok_breakers =
      Vida_raw.State_dir.persist sd ~name:"breakers" breaker_frames
    in
    let ledgers =
      List.filter_map
        (fun (source : Source.t) ->
          let name = source.Source.name in
          match Plugins.ledger_export t.ctx name with
          | [], false, [] -> None
          | bad, structural, quarantined -> (
            match source_fingerprints t [ name ] with
            | [ (_, stamp) ] -> Some (name, stamp, bad, structural, quarantined)
            | _ -> None (* unfingerprintable: a ledger we cannot revalidate *)))
        (Registry.sources t.registry)
    in
    let ledger_frames =
      artifact_version "ledger"
      :: List.map (fun e -> Marshal.to_string e []) ledgers
    in
    let ok_ledger = Vida_raw.State_dir.persist sd ~name:"ledger" ledger_frames in
    let ok_structures =
      List.for_all
        (fun (source : Source.t) ->
          match Structures.checkpoint_posmap t.ctx.Plugins.structures source with
          | false -> true
          | true ->
            (match source.Source.path with
            | Some path ->
              Vida_raw.State_dir.record_structure sd
                ~digest:(Structures.sidecar_digest source) ~source:path
            | None -> ());
            true
          | exception Vida_error.Error (Vida_error.State_failure _ as e) ->
            Vida_raw.State_dir.note_persist_failure sd e;
            false)
        (Registry.sources t.registry)
    in
    ok_plans && ok_breakers && ok_ledger && ok_structures

(* post-query persistence for the serving layer: a cheap debounce so a
   query storm does not rewrite every artifact per request *)
let maybe_persist ?(min_interval_ms = 1000.) t =
  match t.state with
  | None -> false
  | Some _ ->
    let due =
      locked t (fun () ->
          let now = now_ms () in
          if now -. t.last_persist_ms >= min_interval_ms then (
            t.last_persist_ms <- now;
            true)
          else false)
    in
    if due then persist_state t else false

type state_report = {
  sr_dir : string;
  sr_degraded : bool;  (** persistence suspended after an OS failure *)
  sr_persists : int;
  sr_persist_failures : int;
  sr_warm_loads : int;
  sr_corrupt_quarantined : int;
  sr_quarantine_removed : int;
  sr_lock_reclaimed : bool;
  sr_plan_warm_hits : int;
  sr_structure_restores : int;
  sr_structure_rebuilds : int;
  sr_last_failure : string option;
}

let state_report t =
  Option.map
    (fun sd ->
      let r = Vida_raw.State_dir.report sd in
      { sr_dir = r.Vida_raw.State_dir.r_dir; sr_degraded = r.r_degraded;
        sr_persists = r.r_persists;
        sr_persist_failures = r.r_persist_failures;
        sr_warm_loads = r.r_warm_loads;
        sr_corrupt_quarantined = r.r_corrupt_quarantined;
        sr_quarantine_removed = r.r_quarantine_removed;
        sr_lock_reclaimed = r.r_lock_reclaimed;
        sr_plan_warm_hits = locked t (fun () -> t.plan_warm_hits);
        sr_structure_restores =
          Structures.warm_restores t.ctx.Plugins.structures;
        sr_structure_rebuilds = Structures.rebuilds t.ctx.Plugins.structures;
        sr_last_failure = r.r_last_failure })
    t.state

let state_dir t = Option.map Vida_raw.State_dir.dir t.state

let reset_state_degraded t =
  Option.iter Vida_raw.State_dir.reset_degraded t.state

let clean_quarantine ?max_age_s ?max_count t =
  match t.state with
  | None -> 0
  | Some sd -> Vida_raw.State_dir.clean_quarantine ?max_age_s ?max_count sd

let close_state t = Option.iter Vida_raw.State_dir.close t.state

let ctx t = t.ctx

(* --- concurrent serving sessions ---

   A [session] is one client's handle on a shared instance: queries
   submitted through it run under a governor session that out-of-band
   {!cancel} (another thread observing a client disconnect, an operator
   killing a tenant) can trip at any moment — the running query stops at
   its next cooperative poll, releases its budget charges and epoch pins,
   and surfaces [Cancelled] (exit 73). The instance itself is shared:
   catalog, caches, structures and feedback are all lock-guarded, so any
   number of sessions may submit concurrently from their own domains. *)

type session = {
  db : t;
  tenant : string;
  label : string;
  session_id : int;
  mutable running : Governor.session option;
      (* the governor session of the in-flight query, while one runs *)
  mutable closed : bool;
  s_lock : Vida_sync.Lock.t;
}

let session_counter = Atomic.make 0

let open_session ?(tenant = "default") ?(name = "session") t =
  { db = t; tenant; label = name;
    session_id = Atomic.fetch_and_add session_counter 1; running = None;
    closed = false;
    s_lock = Vida_sync.Lock.create ~rank:15 ~name:"vida.session" () }

let session_tenant s = s.tenant
let session_name s = s.label
let session_id s = s.session_id
let session_db s = s.db

let cancel s ~reason =
  Vida_sync.Lock.protect s.s_lock (fun () ->
      match s.running with
      | Some g -> Governor.cancel g ~reason
      | None -> ())

let close_session s =
  Vida_sync.Lock.protect s.s_lock (fun () ->
      s.closed <- true;
      match s.running with
      | Some g -> Governor.cancel g ~reason:"session closed"
      | None -> ())

let submit ?engine ?optimize ?reuse ?domains ?deadline_ms ?(syntax = `Comp) s
    text =
  (* deadline propagation: a client-supplied remaining budget can only
     tighten the instance's configured deadline, never widen it *)
  let limits =
    match deadline_ms with
    | None -> s.db.limits
    | Some d ->
      let d = Float.max 1. d in
      { s.db.limits with
        Governor.deadline_ms =
          Some
            (match s.db.limits.Governor.deadline_ms with
            | Some cur -> Float.min cur d
            | None -> d) }
  in
  let g = Governor.start ~limits ~name:s.label () in
  let admitted =
    Vida_sync.Lock.protect s.s_lock (fun () ->
        if s.closed then false
        else (
          s.running <- Some g;
          true))
  in
  if not admitted then
    Error
      (Data_error
         (Vida_error.Cancelled { source = s.label; reason = "session closed" }))
  else
    Fun.protect
      ~finally:(fun () ->
        Vida_sync.Lock.protect s.s_lock (fun () -> s.running <- None))
      (fun () ->
        Governor.with_session g (fun () ->
            run_text ?engine ?optimize ?reuse ?domains ~syntax s.db text))
