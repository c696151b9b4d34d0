open Vida_data

type payload =
  | Values of Value.t array
  | Strings of string array
  | Ranges of (int * int) array

type key = { source : string; item : string; layout : Layout.t }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  stale_drops : int;
  budget_evictions : int;
  budget_refusals : int;
  resident_bytes : int;
  entries : int;
}

type entry = {
  payload : payload;
  bytes : int;
  fingerprint : string option;
      (* encoded Fingerprint of the source file the payload was derived
         from; [None] for payloads with no file backing *)
  owner : int option;
      (* governor session that admitted the entry, for per-query budget
         accounting; [None] for ungoverned admissions *)
  mutable last_used : int;
}

(* All mutable state below is guarded by [lock]: concurrent scans on
   several domains admit, touch and evict entries through the public
   operations, each of which holds the mutex for its whole critical
   section so the LRU clock, resident accounting and stat counters can
   never be torn. Only [find_or_add] releases the lock while deriving a
   missing payload (a duplicated derivation is harmless; a lock held
   across a raw-file scan is not). *)
type t = {
  lock : Vida_sync.Lock.t;
  table : (key, entry) Hashtbl.t;
  capacity : int;
  owner_resident : (int, int) Hashtbl.t;  (* session id -> admitted bytes *)
  mutable clock : int;
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable stale_drops : int;
  mutable budget_evictions : int;
  mutable budget_refusals : int;
}

let create ?(capacity_bytes = 256 * 1024 * 1024) () =
  { lock = Vida_sync.Lock.create ~rank:55 ~name:"storage.cache" ();
    table = Hashtbl.create 64;
    capacity = capacity_bytes;
    owner_resident = Hashtbl.create 8; clock = 0; resident = 0;
    hits = 0; misses = 0; evictions = 0; invalidations = 0; stale_drops = 0;
    budget_evictions = 0; budget_refusals = 0 }

let locked t f = Vida_sync.Lock.protect t.lock f

let rec value_bytes (v : Value.t) =
  match v with
  | Value.Null | Value.Bool _ -> 8
  | Value.Int _ | Value.Float _ -> 16
  | Value.String s -> 24 + String.length s
  | Value.Record fields ->
    List.fold_left (fun acc (n, v) -> acc + String.length n + 16 + value_bytes v) 16 fields
  | Value.List vs | Value.Bag vs | Value.Set vs ->
    List.fold_left (fun acc v -> acc + 8 + value_bytes v) 16 vs
  | Value.Array { data; _ } ->
    Array.fold_left (fun acc v -> acc + 8 + value_bytes v) 32 data

let payload_bytes = function
  | Values vs -> Array.fold_left (fun acc v -> acc + 8 + value_bytes v) 16 vs
  | Strings ss -> Array.fold_left (fun acc s -> acc + 24 + String.length s) 16 ss
  | Ranges rs -> 16 + (16 * Array.length rs)

let touch t entry =
  t.clock <- t.clock + 1;
  entry.last_used <- t.clock

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

let credit_owner t entry =
  match entry.owner with
  | None -> ()
  | Some id -> (
    match Hashtbl.find_opt t.owner_resident id with
    | None -> ()
    | Some bytes ->
      let bytes = bytes - entry.bytes in
      if bytes <= 0 then Hashtbl.remove t.owner_resident id
      else Hashtbl.replace t.owner_resident id bytes)

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some entry ->
    t.resident <- t.resident - entry.bytes;
    credit_owner t entry;
    Hashtbl.remove t.table key

(* An entry whose stored fingerprint no longer matches the file's current
   fingerprint was derived from bytes that have since changed: serving it
   would return garbage, so it is dropped and the lookup misses (§2.1
   auxiliary-structure invalidation applied to cached data). An entry with
   no stored fingerprint predates fingerprinting and is served as-is. *)
let find_unlocked ?fingerprint t key =
  Vida_sync.Lock.assert_held t.lock;
  match Hashtbl.find_opt t.table key with
  | Some entry -> (
    match entry.fingerprint, fingerprint with
    | Some stored, Some current when not (String.equal stored current) ->
      remove t key;
      t.stale_drops <- t.stale_drops + 1;
      t.misses <- t.misses + 1;
      None
    | _ ->
      t.hits <- t.hits + 1;
      touch t entry;
      Some entry.payload)
  | None ->
    t.misses <- t.misses + 1;
    None

let find ?fingerprint t key = locked t (fun () -> find_unlocked ?fingerprint t key)

let evict_until t needed =
  while t.resident + needed > t.capacity && Hashtbl.length t.table > 0 do
    let victim =
      Hashtbl.fold
        (fun key entry acc ->
          match acc with
          | Some (_, best) when best.last_used <= entry.last_used -> acc
          | _ -> Some (key, entry))
        t.table None
    in
    match victim with
    | None -> ()
    | Some (key, _) ->
      remove t key;
      t.evictions <- t.evictions + 1
  done

(* Least-recently-used entry admitted by governor session [id]. *)
let evict_owner_lru t id =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        if entry.owner = Some id then (
          match acc with
          | Some (_, best) when best.last_used <= entry.last_used -> acc
          | _ -> Some (key, entry))
        else acc)
      t.table None
  in
  match victim with
  | None -> false
  | Some (key, _) ->
    remove t key;
    t.budget_evictions <- t.budget_evictions + 1;
    true

(* Per-query admission control (the paper's cache-pollution concern): a
   governed query's resident cache footprint may not exceed its memory
   budget. Under pressure the query's own least-recently-used admissions
   are evicted first; an entry that cannot fit even then is refused — the
   query still runs (it just re-derives from raw later), the shared cache
   stays usable for everyone else, and no stale data is ever introduced. *)
let admit t bytes =
  match Vida_governor.Governor.cache_budget () with
  | None -> Some None
  | Some (id, budget) ->
    let resident () =
      match Hashtbl.find_opt t.owner_resident id with Some b -> b | None -> 0
    in
    if bytes > budget then (
      t.budget_refusals <- t.budget_refusals + 1;
      None)
    else (
      while resident () + bytes > budget && evict_owner_lru t id do () done;
      if resident () + bytes > budget then (
        t.budget_refusals <- t.budget_refusals + 1;
        None)
      else (
        Hashtbl.replace t.owner_resident id (resident () + bytes);
        Some (Some id)))

(* Admission, budget and eviction for an entry of [bytes] replacing
   [key]'s, shared by a measured [put] and a delta-charged [extend]. *)
let insert_unlocked ?fingerprint t key payload bytes =
  Vida_sync.Lock.assert_held t.lock;
  if bytes > t.capacity then false
  else (
    remove t key;
    match admit t bytes with
    | None -> false
    | Some owner ->
      evict_until t bytes;
      t.clock <- t.clock + 1;
      Hashtbl.replace t.table key
        { payload; bytes; fingerprint; owner; last_used = t.clock };
      t.resident <- t.resident + bytes;
      true)

let put_unlocked ?fingerprint t key payload =
  insert_unlocked ?fingerprint t key payload (payload_bytes payload)

let put ?fingerprint t key payload =
  locked t (fun () -> put_unlocked ?fingerprint t key payload)

(* Bytes of the cells of [p] from [from] on, as [payload_bytes] counts
   them. *)
let cells_bytes p ~from =
  let sum n f =
    let acc = ref 0 in
    for i = from to n - 1 do
      acc := !acc + f i
    done;
    !acc
  in
  match p with
  | Values vs -> sum (Array.length vs) (fun i -> 8 + value_bytes vs.(i))
  | Strings ss -> sum (Array.length ss) (fun i -> 24 + String.length ss.(i))
  | Ranges rs -> 16 * max 0 (Array.length rs - from)

let extend ?fingerprint t key ~old ~from payload =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some entry when entry.payload == old ->
        let bytes = entry.bytes - cells_bytes old ~from + cells_bytes payload ~from in
        insert_unlocked ?fingerprint t key payload bytes
      | _ ->
        (* the entry went or was replaced meanwhile: measure it whole *)
        put_unlocked ?fingerprint t key payload)

(* The payload is derived with the lock released: a concurrent domain may
   derive the same payload — both derivations are correct, the second
   [put] simply replaces the first — whereas holding the lock across a
   raw-file scan would serialize every other cache user behind it. *)
let find_or_add ?fingerprint t key f =
  match find ?fingerprint t key with
  | Some p -> p
  | None ->
    let p = f () in
    ignore (put ?fingerprint t key p);
    p

(* Snapshot of a source's resident entries, for append-aware repair: the
   repairer extends each payload with values from the appended rows and
   re-[put]s it under the new fingerprint, instead of losing the whole
   entry to a stale-drop. *)
let entries_of_source t source =
  locked t (fun () ->
      Hashtbl.fold
        (fun key entry acc ->
          if String.equal key.source source then
            (key, entry.payload, entry.fingerprint) :: acc
          else acc)
        t.table [])

let invalidate_source t source =
  locked t (fun () ->
      let victims =
        Hashtbl.fold
          (fun key _ acc ->
            if String.equal key.source source then key :: acc else acc)
          t.table []
      in
      List.iter
        (fun key ->
          remove t key;
          t.invalidations <- t.invalidations + 1)
        victims)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      Hashtbl.reset t.owner_resident;
      t.resident <- 0)

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions;
        invalidations = t.invalidations; stale_drops = t.stale_drops;
        budget_evictions = t.budget_evictions;
        budget_refusals = t.budget_refusals;
        resident_bytes = t.resident; entries = Hashtbl.length t.table })

let reset_stats t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.invalidations <- 0;
      t.stale_drops <- 0;
      t.budget_evictions <- 0;
      t.budget_refusals <- 0)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "hits=%d misses=%d evictions=%d invalidations=%d stale_drops=%d budget_evictions=%d budget_refusals=%d resident=%dB entries=%d"
    s.hits s.misses s.evictions s.invalidations s.stale_drops s.budget_evictions
    s.budget_refusals s.resident_bytes s.entries
