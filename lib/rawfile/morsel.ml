(* Morsel-driven work scheduling on OCaml 5 domains.

   A parallel region splits its work into [tasks] independent morsels;
   worker domains pull morsel indices from a shared counter and write
   each result into a slot of an ordered array. Keeping results indexed
   by morsel lets callers merge non-commutative monoids (lists, ordered
   bags) in source order — the "indexed merge" that removes the
   commutativity restriction of naive parallel reduction.

   Two execution modes share that contract:

   - the legacy per-region mode spawns [domains - 1] short-lived worker
     domains for one region and joins them when it drains (one query at
     a time, the seed behaviour);
   - with a shared {!Pool} installed ({!Pool.set_shared}), regions from
     {e many concurrent queries} are multiplexed over one set of
     long-lived worker domains. Workers pick the next morsel from the
     runnable region whose owning governor session has consumed the
     fewest morsel quanta, so a long scan cannot starve a point query.
     The submitting caller always participates in its own region, which
     makes region completion independent of pool capacity: a saturated
     (or zero-worker) pool degrades to caller-sequential execution, it
     never deadlocks and never blocks a region on another query.

   Every morsel re-installs the owning query's governor session and
   epoch, so deadline checks, cancellation tokens, budget charges and
   source-change probes land on the owning query's shared (atomic)
   counters no matter which domain trips them. The first morsel failure
   flags the region; other workers stop at their next morsel boundary
   and the lowest-index exception is re-raised in the caller. *)

(* Domain sizing inputs are snapshotted once at module initialization
   (not per call): a mid-run environment mutation — or a per-query
   re-resolution racing a shared pool — must never change pool sizing
   between sessions. *)
let env_domains =
  match Sys.getenv_opt "VIDA_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> Some d
    | _ -> None)
  | None -> None

let hardware_domains = Domain.recommended_domain_count ()

let override () = env_domains
let recommended () = hardware_domains

(* Domain-count resolution: VIDA_DOMAINS always wins; an explicit request
   is clamped to what the hardware offers; otherwise use the hardware
   count. Never below 1; per-region clamping to the task count happens at
   [run]/[domains_for_*] time. *)
let resolve ?requested () =
  match env_domains with
  | Some d -> d
  | None -> (
    match requested with
    | Some d -> max 1 (min d hardware_domains)
    | None -> hardware_domains)

let default_domains () = resolve ()

(* Work-size thresholds below which spawning domains costs more than it
   saves. Settable so tests can force parallel execution on tiny inputs. *)
let min_parallel_rows = Atomic.make 2048
let min_parallel_bytes = Atomic.make (256 * 1024)

let set_min_parallel_rows n = Atomic.set min_parallel_rows (max 1 n)
let set_min_parallel_bytes n = Atomic.set min_parallel_bytes (max 0 n)
let parallel_row_floor () = Atomic.get min_parallel_rows

let domains_for_rows ~domains rows =
  if domains <= 1 || rows < Atomic.get min_parallel_rows then 1
  else max 1 (min domains rows)

let domains_for_bytes ~domains bytes =
  if domains <= 1 || bytes < Atomic.get min_parallel_bytes then 1
  else domains

(* [chunks n parts] splits [0, n) into at most [parts] contiguous
   [(lo, hi)] ranges covering it exactly, in order. *)
let chunks n parts =
  let parts = max 1 (min parts n) in
  let size = (n + parts - 1) / parts in
  Array.init parts (fun i -> (i * size, min n ((i + 1) * size)))

(* Run one morsel under the owning query's ambient state. The body never
   lets an exception escape: it is recorded in the region's result slot
   and re-raised by the region's caller, so a pool worker survives any
   query's failure. *)
let install_ambient ~session ~epoch body =
  let body =
    match epoch with
    | Some e -> fun () -> Epoch.with_epoch e body
    | None -> body
  in
  match session with
  | Some s -> Vida_governor.Governor.with_session s body
  | None -> body ()

(* --- shared worker-domain pool -------------------------------------- *)

module Pool = struct
  (* Scheduling state lives under one mutex: morsel bodies are coarse
     (thousands of rows), so claim/complete bookkeeping is cold. *)
  type region = {
    session_key : int;  (* owning governor session id; 0 = ungoverned *)
    gov : Vida_governor.Governor.session option;
    epoch : Epoch.t option;
    tasks : int;
    max_helpers : int;  (* concurrent pool workers allowed in the region *)
    mutable next : int;  (* next unclaimed morsel index *)
    mutable completed : int;
    mutable helpers : int;  (* pool workers currently inside a morsel *)
    mutable failed : bool;
    run_task : int -> bool;  (* executes morsel i; false = it failed *)
  }

  type stats = {
    workers : int;
    active_regions : int;
    inflight : int;  (* morsels currently executing on pool workers *)
    executed : int;  (* morsels pool workers have run, lifetime *)
    sessions_served : int;
  }

  type t = {
    mutex : Vida_sync.Lock.t;
    work : Condition.t;  (* workers: a region may be runnable *)
    progress : Condition.t;  (* callers: a morsel completed *)
    mutable regions : region list;  (* submission order *)
    consumed : (int, int) Hashtbl.t;  (* session id -> morsel quanta *)
    served : (int, unit) Hashtbl.t;  (* distinct sessions, lifetime *)
    mutable shutdown : bool;
    executed : int Atomic.t;
    mutable workers : unit Domain.t list;
    size : int;
  }

  let claimable r = (not r.failed) && r.next < r.tasks

  (* The runnable region whose owner consumed the fewest morsel quanta —
     per-session fair share. Ties break toward the earliest submission. *)
  let pick_region t =
    let quanta r =
      match Hashtbl.find_opt t.consumed r.session_key with
      | Some n -> n
      | None -> 0
    in
    List.fold_left
      (fun best r ->
        if not (claimable r && r.helpers < r.max_helpers) then best
        else
          match best with
          | Some b when quanta b <= quanta r -> best
          | _ -> Some r)
      None t.regions

  let note_quantum t r =
    Hashtbl.replace t.consumed r.session_key
      (match Hashtbl.find_opt t.consumed r.session_key with
      | Some n -> n + 1
      | None -> 1);
    if not (Hashtbl.mem t.served r.session_key) then
      Hashtbl.replace t.served r.session_key ()

  (* Fair-share accounting restarts whenever the pool drains: quanta
     compare in-flight sessions against each other, not against history. *)
  let region_done t r =
    t.regions <- List.filter (fun r' -> r' != r) t.regions;
    if t.regions = [] then Hashtbl.reset t.consumed

  let worker t () =
    let rec loop () =
      Vida_sync.Lock.lock t.mutex;
      let rec next_claim () =
        if t.shutdown then None
        else
          match pick_region t with
          | Some r when claimable r ->
            let i = r.next in
            r.next <- r.next + 1;
            r.helpers <- r.helpers + 1;
            note_quantum t r;
            Some (r, i)
          | _ ->
            Vida_sync.Lock.wait t.work t.mutex;
            next_claim ()
      in
      let claim = next_claim () in
      Vida_sync.Lock.unlock t.mutex;
      match claim with
      | None -> ()
      | Some (r, i) ->
        let ok =
          install_ambient ~session:r.gov ~epoch:r.epoch (fun () -> r.run_task i)
        in
        Atomic.incr t.executed;
        Vida_sync.Lock.lock t.mutex;
        r.helpers <- r.helpers - 1;
        r.completed <- r.completed + 1;
        if not ok then r.failed <- true;
        Condition.broadcast t.progress;
        (* freeing a helper slot can make a throttled region runnable *)
        Condition.broadcast t.work;
        Vida_sync.Lock.unlock t.mutex;
        loop ()
    in
    loop ()

  let create ?domains () =
    let size = max 0 (resolve ?requested:domains () - 1) in
    let t =
      { mutex = Vida_sync.Lock.create ~rank:95 ~name:"raw.morsel-pool" ();
        work = Condition.create ();
        progress = Condition.create (); regions = [];
        consumed = Hashtbl.create 16; served = Hashtbl.create 16;
        shutdown = false; executed = Atomic.make 0; workers = []; size }
    in
    t.workers <- List.init size (fun _ -> Domain.spawn (worker t));
    t

  let shutdown t =
    Vida_sync.Lock.lock t.mutex;
    t.shutdown <- true;
    Condition.broadcast t.work;
    Vida_sync.Lock.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []

  let stats t =
    Vida_sync.Lock.lock t.mutex;
    let s =
      { workers = t.size; active_regions = List.length t.regions;
        inflight = List.fold_left (fun n r -> n + r.helpers) 0 t.regions;
        executed = Atomic.get t.executed;
        sessions_served = Hashtbl.length t.served }
    in
    Vida_sync.Lock.unlock t.mutex;
    s

  let idle t =
    Vida_sync.Lock.lock t.mutex;
    let v = t.regions = [] in
    Vida_sync.Lock.unlock t.mutex;
    v

  let size t = t.size

  (* Run one region over the pool. The caller claims morsels of its own
     region alongside the pool workers until the counter drains, then
     waits for in-flight helper morsels — so completion never depends on
     pool capacity, and a killed/failed region always unregisters itself
     (no leaked pool slot) before the exception propagates. *)
  let run_region t ~max_helpers ~tasks f =
    let results = Array.make tasks None in
    let session = Vida_governor.Governor.current () in
    let epoch = Epoch.current () in
    let session_key =
      match session with
      | Some s -> Vida_governor.Governor.session_id s
      | None -> 0
    in
    let r =
      { session_key; gov = session; epoch; tasks;
        max_helpers = max 0 max_helpers; next = 0; completed = 0;
        helpers = 0; failed = false;
        run_task =
          (fun i ->
            match f i with
            | v ->
              results.(i) <- Some (Ok v);
              true
            | exception e ->
              results.(i) <- Some (Error e);
              false) }
    in
    Vida_sync.Lock.lock t.mutex;
    t.regions <- t.regions @ [ r ];
    Condition.broadcast t.work;
    Vida_sync.Lock.unlock t.mutex;
    Fun.protect
      ~finally:(fun () ->
        Vida_sync.Lock.lock t.mutex;
        region_done t r;
        Vida_sync.Lock.unlock t.mutex)
      (fun () ->
        let rec drive () =
          Vida_sync.Lock.lock t.mutex;
          let claim =
            if claimable r then (
              let i = r.next in
              r.next <- r.next + 1;
              note_quantum t r;
              Some i)
            else None
          in
          Vida_sync.Lock.unlock t.mutex;
          match claim with
          | Some i ->
            (* ambient session/epoch are already installed in the caller *)
            let _ok : bool = r.run_task i in
            Vida_sync.Lock.lock t.mutex;
            r.completed <- r.completed + 1;
            Vida_sync.Lock.unlock t.mutex;
            drive ()
          | None ->
            Vida_sync.Lock.lock t.mutex;
            while r.completed < r.next do
              Vida_sync.Lock.wait t.progress t.mutex
            done;
            Vida_sync.Lock.unlock t.mutex
        in
        drive ();
        Array.iter
          (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
          results;
        Array.map
          (function
            | Some (Ok v) -> v
            | Some (Error _) | None ->
              (* a region abandoned after a failure leaves later slots
                 empty; the failure was re-raised above *)
              assert false)
          results)
end

(* The installed shared pool, if any. Owned by a serving layer that wants
   cross-query fair-share scheduling; absent, every region spawns its own
   short-lived domains (the per-query seed behaviour). *)
let shared_pool_slot : Pool.t option Atomic.t = Atomic.make None

let set_shared_pool p = Atomic.set shared_pool_slot p
let shared_pool () = Atomic.get shared_pool_slot

let run_spawning ~domains ~tasks f =
  let results = Array.make tasks None in
  let next = Atomic.make 0 in
  let failed = Atomic.make false in
  let session = Vida_governor.Governor.current () in
  let epoch = Epoch.current () in
  let worker () =
    let body () =
      let rec loop () =
        if not (Atomic.get failed) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < tasks then begin
            (match f i with
            | v -> results.(i) <- Some (Ok v)
            | exception e ->
              Atomic.set failed true;
              results.(i) <- Some (Error e));
            loop ()
          end
        end
      in
      loop ()
    in
    (* re-install the caller's ambient epoch alongside its governor
       session: parallel scans must revalidate against the same pins *)
    install_ambient ~session ~epoch body
  in
  let spawned =
    List.init (min (domains - 1) (tasks - 1)) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join spawned;
  Array.iter
    (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
    results;
  Array.map
    (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
    results

let run ~domains ~tasks f =
  if tasks <= 0 then [||]
  else if domains <= 1 || tasks = 1 then Array.init tasks f
  else
    match Atomic.get shared_pool_slot with
    | Some pool -> Pool.run_region pool ~max_helpers:(domains - 1) ~tasks f
    | None -> run_spawning ~domains ~tasks f
