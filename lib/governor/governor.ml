(* Query-lifecycle resource governor.

   Every query runs inside a [session] carrying a wall-clock deadline, a
   cooperative cancellation token and a memory budget. The hot paths —
   raw-file scan loops, engine operator pipelines, cache admissions — poll
   or charge the ambient session; a violation surfaces as a structured
   {!Vida_error} (never a hang, never an unbounded allocation). The
   session also accumulates the degradation history of the query: IO
   retries and engine/auxiliary fallbacks. *)

(* What to do when a pinned source changes under a running query
   ([Vida_error.Source_changed]): re-pin a fresh epoch and re-run the
   query up to [n] times, or surface the error immediately. Held here (the
   policy travels with the query's limits) but enacted by the engine
   facade, which owns the pin/retry loop. *)
type change_policy = Retry_fresh of int | Fail_fast

type limits = {
  deadline_ms : float option;
  memory_budget : int option;
  max_retries : int;
  retry_backoff_ms : float;
  poll_stride : int;
  on_change : change_policy;
}

let unlimited =
  { deadline_ms = None; memory_budget = None; max_retries = 2;
    retry_backoff_ms = 1.0; poll_stride = 64; on_change = Retry_fresh 2 }

(* Bound any single backoff sleep: retries must never out-wait a deadline
   by much, even with a large retry count. *)
let max_backoff_ms = 250.0

type fallback = { stage : string; reason : string }

(* A session is shared by every domain participating in a parallel query
   region, so all mutable state is [Atomic]: counters advance with
   [fetch_and_add], the cancellation token is set with a compare-and-set
   so the first reason wins, and the fallback log is a CAS-pushed list. *)
type session = {
  id : int;
  name : string;
  limits : limits;
  started_at : float;  (* Unix.gettimeofday seconds *)
  cancel_reason : string option Atomic.t;
  cancel_at_poll : int option Atomic.t;
  polls : int Atomic.t;
  charged : int Atomic.t;
  retries : int Atomic.t;
  fallbacks : fallback list Atomic.t;  (* newest first *)
  batches : int Atomic.t;  (* vectorized batches executed *)
  batch_sizes : int Atomic.t array;  (* ring of recent batch row counts, for p50 *)
  batch_cursor : int Atomic.t;
}

(* Recent-batch-size ring capacity. Ring entries are atomics: slots are
   claimed with a fetch-and-add on the cursor and written from multiple
   domains, so a plain array could serve [batch_rows_p50] torn or stale
   values under the memory model. *)
let batch_ring = 128

type report = {
  wall_ms : float;
  polls : int;
  charged_bytes : int;
  retries : int;
  fallbacks : fallback list;  (* oldest first *)
  batches : int;  (* vectorized batches executed *)
  batch_rows_p50 : int;  (* median rows per batch over recent batches *)
}

let now_ms () = Unix.gettimeofday () *. 1000.
let sleep_ms ms = if ms > 0. then Unix.sleepf (ms /. 1000.)

let next_id = Atomic.make 0

let defaults = ref unlimited
let set_default_limits l = defaults := l
let default_limits () = !defaults

let start ?limits ?(name = "query") () =
  let limits = match limits with Some l -> l | None -> !defaults in
  { id = Atomic.fetch_and_add next_id 1 + 1; name; limits;
    started_at = Unix.gettimeofday ();
    cancel_reason = Atomic.make None; cancel_at_poll = Atomic.make None;
    polls = Atomic.make 0; charged = Atomic.make 0;
    retries = Atomic.make 0; fallbacks = Atomic.make [];
    batches = Atomic.make 0;
    batch_sizes = Array.init batch_ring (fun _ -> Atomic.make 0);
    batch_cursor = Atomic.make 0 }

(* The ambient session is domain-local: each worker domain of a parallel
   region re-installs the owning query's session via [with_session], so
   polls and charges from every domain land on the same shared counters
   while unrelated domains stay unaffected. *)
let ambient : session option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get ambient

let with_session s f =
  let saved = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Some s);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient saved) f

let elapsed_ms s = now_ms () -. (s.started_at *. 1000.)
let name s = s.name

(* Stable per-process identity of the session: the shared morsel pool's
   fair-share accounting and the cache's per-query admission scoping both
   key on it. *)
let session_id s = s.id

let cancel s ~reason =
  ignore (Atomic.compare_and_set s.cancel_reason None (Some reason))

(* Deterministic cooperative-cancellation injection for tests: the token
   trips itself once the session has been polled [polls] times, exactly as
   an out-of-band [cancel] landing mid-scan would. *)
let cancel_after_polls s ~polls = Atomic.set s.cancel_at_poll (Some polls)

let raise_for_cancel ~source reason = Vida_error.cancelled ~source "%s" reason

let check_deadline ~source s =
  match s.limits.deadline_ms with
  | None -> ()
  | Some deadline_ms ->
    let elapsed = elapsed_ms s in
    if elapsed > deadline_ms then
      Vida_error.deadline_exceeded ~source ~elapsed_ms:elapsed ~deadline_ms

let check_session ~source s =
  (match Atomic.get s.cancel_reason with
  | Some reason -> raise_for_cancel ~source reason
  | None -> ());
  check_deadline ~source s

(* The per-record poll. Cancellation is a flag test on every call; the
   wall clock is consulted only every [poll_stride] calls so scan loops
   stay cheap on the fast path. *)
let poll ?(source = "query") () =
  match Domain.DLS.get ambient with
  | None -> ()
  | Some s ->
    let polls = Atomic.fetch_and_add s.polls 1 + 1 in
    (match Atomic.get s.cancel_at_poll with
    | Some n when polls >= n ->
      ignore
        (Atomic.compare_and_set s.cancel_reason None
           (Some "cancellation token tripped"))
    | _ -> ());
    (match Atomic.get s.cancel_reason with
    | Some reason -> raise_for_cancel ~source reason
    | None -> ());
    if polls mod s.limits.poll_stride = 0 then check_deadline ~source s

(* The per-batch poll of the vectorized path: one call covers [rows]
   records. The poll counter advances by the whole batch so budgets,
   deadline strides and [cancel_after_polls] triggers keep record-level
   semantics — a token armed for poll N trips at the first batch boundary
   at or past N, which is exactly where a per-record loop would next have
   observed it had it been checked at batch granularity. The clock is
   always consulted: a batch is far coarser than [poll_stride]. *)
let poll_batch ?(source = "query") ~rows () =
  match Domain.DLS.get ambient with
  | None -> ()
  | Some s ->
    let rows = max rows 0 in
    let polls = Atomic.fetch_and_add s.polls rows + rows in
    ignore (Atomic.fetch_and_add s.batches 1);
    let slot = Atomic.fetch_and_add s.batch_cursor 1 in
    Atomic.set s.batch_sizes.(slot mod batch_ring) rows;
    (match Atomic.get s.cancel_at_poll with
    | Some n when polls >= n ->
      ignore
        (Atomic.compare_and_set s.cancel_reason None
           (Some "cancellation token tripped"))
    | _ -> ());
    (match Atomic.get s.cancel_reason with
    | Some reason -> raise_for_cancel ~source reason
    | None -> ());
    check_deadline ~source s

(* Operator-pipeline boundary check: always consults the clock. *)
let checkpoint ?(source = "query") () =
  match current () with None -> () | Some s -> check_session ~source s

let budgeted () =
  match current () with
  | Some { limits = { memory_budget = Some _; _ }; _ } -> true
  | _ -> false

let charge ?(source = "query") bytes =
  match current () with
  | None -> ()
  | Some s -> (
    match s.limits.memory_budget with
    | None -> ()
    | Some budget ->
      let charged = Atomic.fetch_and_add s.charged bytes + bytes in
      if charged > budget then
        Vida_error.budget_exceeded ~source ~requested:charged ~budget)

(* (session id, budget, bytes already hard-charged) of the ambient
   budgeted session — what the cache needs to scope its admission
   accounting per query. *)
let cache_budget () =
  match current () with
  | Some ({ limits = { memory_budget = Some budget; _ }; _ } as s) ->
    Some (s.id, budget)
  | _ -> None

let rec atomic_push a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (x :: old)) then atomic_push a x

let note_fallback ?session ~stage ~reason () =
  match (match session with Some s -> Some s | None -> current ()) with
  | None -> ()
  | Some s -> atomic_push s.fallbacks { stage; reason }

let note_retry () =
  match current () with
  | None -> ()
  | Some s -> ignore (Atomic.fetch_and_add s.retries 1)

(* Bounded-exponential-backoff retry around a transient-failure-prone
   action (file loads). Only [Io_failure] is considered transient; any
   other structured error propagates immediately. The deadline and the
   cancellation token are re-checked before every attempt and every sleep,
   so retrying can never out-live the session's time budget. *)
let with_retries ~source f =
  let limits =
    match current () with Some s -> s.limits | None -> !defaults
  in
  let rec attempt k =
    (match current () with Some s -> check_session ~source s | None -> ());
    match f () with
    | v -> v
    | exception Vida_error.Error (Vida_error.Io_failure _ as e) ->
      if k >= limits.max_retries then raise (Vida_error.Error e)
      else (
        note_retry ();
        let backoff =
          Float.min max_backoff_ms
            (limits.retry_backoff_ms *. (2. ** float_of_int k))
        in
        (match current () with Some s -> check_session ~source s | None -> ());
        sleep_ms backoff;
        attempt (k + 1))
  in
  attempt 0

let batch_rows_p50 s =
  let filled = min (Atomic.get s.batch_cursor) batch_ring in
  if filled = 0 then 0
  else begin
    let xs = Array.init filled (fun i -> Atomic.get s.batch_sizes.(i)) in
    Array.sort compare xs;
    xs.(filled / 2)
  end

let report s =
  { wall_ms = elapsed_ms s; polls = Atomic.get s.polls;
    charged_bytes = Atomic.get s.charged; retries = Atomic.get s.retries;
    fallbacks = List.rev (Atomic.get s.fallbacks);
    batches = Atomic.get s.batches; batch_rows_p50 = batch_rows_p50 s }

let zero_report =
  { wall_ms = 0.; polls = 0; charged_bytes = 0; retries = 0; fallbacks = [];
    batches = 0; batch_rows_p50 = 0 }

let pp_report ppf r =
  Format.fprintf ppf
    "wall=%.2fms polls=%d charged=%dB retries=%d batches=%d \
     batch_rows_p50=%d fallbacks=[%s]"
    r.wall_ms r.polls r.charged_bytes r.retries r.batches r.batch_rows_p50
    (String.concat "; "
       (List.map (fun f -> f.stage ^ ": " ^ f.reason) r.fallbacks))

(* --- admission control / overload resilience ------------------------ *)

(* The serving layer's front door. Budgets and deadlines (above) bound
   ONE query; admission bounds the POPULATION of queries: how many run at
   once (globally and per tenant), how many may wait, how much aggregate
   memory the admitted set may reserve, and how long a waiter may sit in
   the queue before it is shed with a typed [Overloaded] error carrying a
   retry-after hint. Everything is a counter under one mutex — admission
   is cold compared to query execution.

   Waiting is a bounded sleep-poll (stdlib [Condition] has no timed
   wait): releases are observed within [poll_ms], which is noise next to
   queue timeouts measured in hundreds of milliseconds. *)
module Admission = struct
  type config = {
    max_concurrent : int;  (* queries running at once *)
    max_queue : int;  (* waiters beyond the running set *)
    per_tenant : int;  (* concurrent running queries per tenant *)
    memory_watermark : int option;
        (* aggregate bytes the admitted set may reserve (a query reserves
           its memory budget; un-budgeted queries reserve nothing) *)
    queue_timeout_ms : float;  (* max queue wait before shedding *)
    retry_after_ms : float;  (* backoff hint in shed responses *)
  }

  let default_config =
    { max_concurrent = 4; max_queue = 16; per_tenant = 2;
      memory_watermark = None; queue_timeout_ms = 1000.;
      retry_after_ms = 250. }

  type gauges = {
    running : int;
    queued : int;
    reserved_bytes : int;
    tenants : (string * int) list;  (* running per tenant, sorted *)
    admitted_total : int;
    shed_total : int;
  }

  type t = {
    config : config;
    mutex : Vida_sync.Lock.t;
    mutable running : int;
    mutable queued : int;
    mutable reserved : int;
    tenant_running : (string, int) Hashtbl.t;
    mutable admitted_total : int;
    mutable shed_total : int;
  }

  type ticket = { t_tenant : string; t_reserve : int }

  let create ?(config = default_config) () =
    { config;
      mutex = Vida_sync.Lock.create ~rank:75 ~name:"governor.admission" ();
      running = 0; queued = 0; reserved = 0;
      tenant_running = Hashtbl.create 8; admitted_total = 0; shed_total = 0 }

  let poll_ms = 5.

  let locked t f = Vida_sync.Lock.protect t.mutex f

  let tenant_count t tenant =
    Option.value ~default:0 (Hashtbl.find_opt t.tenant_running tenant)

  let shed t ~source ~reason =
    locked t (fun () -> t.shed_total <- t.shed_total + 1);
    Vida_error.overloaded ~source ~retry_after_ms:t.config.retry_after_ms "%s"
      reason

  (* Does a (tenant, reserve) admission fit right now? Caller holds the
     mutex. *)
  let fits t ~tenant ~reserve =
    t.running < t.config.max_concurrent
    && tenant_count t tenant < t.config.per_tenant
    && (match t.config.memory_watermark with
       | Some w -> t.reserved + reserve <= w
       | None -> true)

  let take t ~tenant ~reserve =
    t.running <- t.running + 1;
    t.reserved <- t.reserved + reserve;
    t.admitted_total <- t.admitted_total + 1;
    Hashtbl.replace t.tenant_running tenant (tenant_count t tenant + 1)

  (* [admit t ~tenant ~reserve ?deadline_ms ()] blocks until the query
     may run, and returns the ticket to [release] when it finishes (on
     ANY path — the caller pairs them with [Fun.protect]). Sheds with
     [Overloaded] when the queue is full, when the wait would exceed the
     queue timeout (or the query's own remaining [deadline_ms], whichever
     is sooner), or when a tenant is already at its concurrency cap with
     no prospect of this waiter fitting the queue bound. *)
  let admit ?deadline_ms t ~tenant ~reserve =
    let source = "admission:" ^ tenant in
    (match t.config.memory_watermark with
    | Some w when reserve > w ->
      shed t ~source
        ~reason:
          (Printf.sprintf
             "memory reservation of %d bytes exceeds the %d-byte watermark"
             reserve w)
    | _ -> ());
    let wait_budget_ms =
      match deadline_ms with
      | Some d -> Float.min t.config.queue_timeout_ms d
      | None -> t.config.queue_timeout_ms
    in
    let admitted_now =
      locked t (fun () ->
          if fits t ~tenant ~reserve then (
            take t ~tenant ~reserve;
            `Admitted)
          else if t.queued >= t.config.max_queue then `Queue_full
          else (
            t.queued <- t.queued + 1;
            `Queued))
    in
    match admitted_now with
    | `Admitted -> { t_tenant = tenant; t_reserve = reserve }
    | `Queue_full ->
      shed t ~source
        ~reason:
          (Printf.sprintf "admission queue full (%d waiting, %d running)"
             t.config.max_queue t.config.max_concurrent)
    | `Queued ->
      let t0 = now_ms () in
      let rec wait () =
        let outcome =
          locked t (fun () ->
              if fits t ~tenant ~reserve then (
                t.queued <- t.queued - 1;
                take t ~tenant ~reserve;
                `Admitted)
              else if now_ms () -. t0 > wait_budget_ms then (
                t.queued <- t.queued - 1;
                `Timed_out)
              else `Keep_waiting)
        in
        match outcome with
        | `Admitted -> { t_tenant = tenant; t_reserve = reserve }
        | `Timed_out ->
          shed t ~source
            ~reason:
              (Printf.sprintf "queued %.0f ms without a slot" (now_ms () -. t0))
        | `Keep_waiting ->
          sleep_ms poll_ms;
          wait ()
      in
      wait ()

  let release t ticket =
    locked t (fun () ->
        t.running <- t.running - 1;
        t.reserved <- t.reserved - ticket.t_reserve;
        match tenant_count t ticket.t_tenant - 1 with
        | 0 -> Hashtbl.remove t.tenant_running ticket.t_tenant
        | n -> Hashtbl.replace t.tenant_running ticket.t_tenant n)

  (* Degradation-ladder input: [`Normal] -> run with the shared pool;
     [`Elevated] (queries waiting, or the running set at capacity) -> run
     sequentially so in-flight queries finish sooner; shedding itself is
     the third rung, decided inside [admit]. *)
  let pressure t =
    locked t (fun () ->
        if t.queued > 0 || t.running >= t.config.max_concurrent then `Elevated
        else `Normal)

  let gauges t =
    locked t (fun () ->
        { running = t.running; queued = t.queued; reserved_bytes = t.reserved;
          tenants =
            List.sort compare
              (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tenant_running []);
          admitted_total = t.admitted_total; shed_total = t.shed_total })

  let config t = t.config
end

(* --- per-source circuit breakers ------------------------------------ *)

(* Where [with_retries] bounds ONE query's exposure to a transient fault,
   a breaker bounds the POPULATION's exposure to a source that keeps
   failing: after [failure_threshold] consecutive IO/parse failures the
   breaker opens and every query touching the source is shed immediately
   with a typed [Source_unavailable] (exit 78) carrying the remaining
   cooldown as its retry hint — shedding costs a hashtable probe, not a
   full failing scan plus retry backoffs. After [cooldown_ms] the breaker
   half-opens: exactly one caller is let through as the probe; its success
   closes the breaker, its failure re-opens it for another cooldown.

   State is process-global under one mutex, keyed by the source's backing
   path (what the raw-buffer load path sees) — the same shape as
   [Limits]: breakers protect sources, not sessions. *)
module Breaker = struct
  type config = {
    failure_threshold : int;  (* consecutive failures that trip the breaker *)
    cooldown_ms : float;  (* open -> half-open probe delay *)
  }

  let default_config = { failure_threshold = 5; cooldown_ms = 2000. }

  type state =
    | Closed of int  (* consecutive failures so far *)
    | Open of float  (* tripped at (ms timestamp) *)
    | Half_open of { claimed_at : float; claimant : int option }
        (* probe in flight: when it was claimed and by which governor
           session — the claimant's own later checks (the facade
           pre-check, then the raw-buffer load) must all pass *)

  type entry = {
    mutable state : state;
    mutable trips : int;  (* times the breaker opened *)
    mutable shed_fast : int;  (* queries shed while open *)
    mutable last_reason : string;
  }

  type snapshot = {
    b_source : string;
    b_state : string;  (* "closed" | "open" | "half-open" *)
    b_failures : int;  (* consecutive failures while closed *)
    b_trips : int;
    b_shed : int;
    b_reason : string;  (* reason of the last recorded failure *)
  }

  let cfg = ref default_config
  let set_config c = cfg := c
  let config () = !cfg

  let mutex = Vida_sync.Lock.create ~rank:80 ~name:"governor.breaker" ()
  let table : (string, entry) Hashtbl.t = Hashtbl.create 8

  let locked f = Vida_sync.Lock.protect mutex f

  let entry source =
    match Hashtbl.find_opt table source with
    | Some e -> e
    | None ->
      let e =
        { state = Closed 0; trips = 0; shed_fast = 0; last_reason = "" }
      in
      Hashtbl.add table source e;
      e

  (* [check ~source] is the gate on the load path. Closed: free pass.
     Open within cooldown: shed (raises). Open past cooldown: this caller
     becomes the half-open probe and passes. Half-open with a live probe:
     shed — one probe at a time, so a flapping source is only ever paying
     one speculative scan. A probe claim older than a full cooldown is
     assumed lost (its query died before reporting) and is re-claimed. *)
  let check ~source =
    let me = Option.map (fun s -> s.id) (Domain.DLS.get ambient) in
    let verdict =
      locked (fun () ->
          match Hashtbl.find_opt table source with
          | None | Some { state = Closed _; _ } -> `Pass
          | Some e -> (
            let now = now_ms () in
            let claim () =
              e.state <- Half_open { claimed_at = now; claimant = me }
            in
            match e.state with
            | Closed _ -> `Pass
            | Open since ->
              let remaining = !cfg.cooldown_ms -. (now -. since) in
              if remaining > 0. then (
                e.shed_fast <- e.shed_fast + 1;
                `Shed (remaining, e.last_reason))
              else (
                claim ();
                `Pass)
            | Half_open { claimed_at; claimant } ->
              if claimant <> None && claimant = me then `Pass
              else if now -. claimed_at > !cfg.cooldown_ms then (
                claim ();
                `Pass)
              else (
                e.shed_fast <- e.shed_fast + 1;
                `Shed (!cfg.cooldown_ms -. (now -. claimed_at), e.last_reason))))
    in
    match verdict with
    | `Pass -> ()
    | `Shed (retry_after_ms, reason) ->
      note_fallback ~stage:"breaker-open" ~reason:source ();
      Vida_error.source_unavailable ~source
        ~retry_after_ms:(Float.max 1. retry_after_ms)
        "circuit breaker open after repeated failures%s"
        (if reason = "" then "" else ": " ^ reason)

  let success ~source =
    locked (fun () ->
        match Hashtbl.find_opt table source with
        | None | Some { state = Closed 0; _ } -> ()
        | Some e -> e.state <- Closed 0)

  let failure ~source ~reason =
    locked (fun () ->
        let e = entry source in
        e.last_reason <- reason;
        match e.state with
        | Closed n ->
          if n + 1 >= !cfg.failure_threshold then (
            e.state <- Open (now_ms ());
            e.trips <- e.trips + 1)
          else e.state <- Closed (n + 1)
        | Half_open _ ->
          (* the probe failed: straight back to open for another cooldown *)
          e.state <- Open (now_ms ());
          e.trips <- e.trips + 1
        | Open _ -> ())

  (* force-trip, for chaos tests and operational shedding *)
  let trip ~source ~reason =
    locked (fun () ->
        let e = entry source in
        e.last_reason <- reason;
        e.state <- Open (now_ms ());
        e.trips <- e.trips + 1)

  let state ~source =
    locked (fun () ->
        match Hashtbl.find_opt table source with
        | None | Some { state = Closed _; _ } -> `Closed
        | Some { state = Open _; _ } -> `Open
        | Some { state = Half_open _; _ } -> `Half_open)

  let snapshot () =
    locked (fun () ->
        Hashtbl.fold
          (fun b_source e acc ->
            let b_state, b_failures =
              match e.state with
              | Closed n -> ("closed", n)
              | Open _ -> ("open", !cfg.failure_threshold)
              | Half_open _ -> ("half-open", !cfg.failure_threshold)
            in
            { b_source; b_state; b_failures; b_trips = e.trips;
              b_shed = e.shed_fast; b_reason = e.last_reason }
            :: acc)
          table []
        |> List.sort (fun a b -> compare a.b_source b.b_source))

  let reset () = locked (fun () -> Hashtbl.reset table)

  (* --- durable export/import ---

     An open breaker is operational knowledge paid for with failed scans;
     a restart used to forget it and re-probe a known-bad source at full
     threshold. Export captures each entry with its REMAINING cooldown
     (wall-clock timestamps don't survive a restart; a remaining duration
     does), import reconstructs the open state by back-dating the trip so
     exactly that much cooldown is left. Half-open exports as open with
     zero remaining — the probe died with the process, so the next check
     after import becomes the new probe. *)

  type persisted = {
    p_source : string;
    p_failures : int;  (* consecutive failures while closed *)
    p_open_remaining_ms : float option;  (* [Some r] = open, r cooldown left *)
    p_trips : int;
    p_shed : int;
    p_reason : string;
  }

  let export () =
    locked (fun () ->
        let now = now_ms () in
        Hashtbl.fold
          (fun p_source e acc ->
            let p_failures, p_open_remaining_ms =
              match e.state with
              | Closed n -> (n, None)
              | Open since ->
                (0, Some (Float.max 0. (!cfg.cooldown_ms -. (now -. since))))
              | Half_open _ -> (0, Some 0.)
            in
            { p_source; p_failures; p_open_remaining_ms; p_trips = e.trips;
              p_shed = e.shed_fast; p_reason = e.last_reason }
            :: acc)
          table []
        |> List.sort (fun a b -> compare a.p_source b.p_source))

  let import persisted =
    locked (fun () ->
        let now = now_ms () in
        List.iter
          (fun p ->
            let e = entry p.p_source in
            e.trips <- p.p_trips;
            e.shed_fast <- p.p_shed;
            e.last_reason <- p.p_reason;
            e.state <-
              (match p.p_open_remaining_ms with
              | None -> Closed p.p_failures
              | Some remaining ->
                let remaining =
                  Float.max 0. (Float.min remaining !cfg.cooldown_ms)
                in
                Open (now -. (!cfg.cooldown_ms -. remaining))))
          persisted)
end
