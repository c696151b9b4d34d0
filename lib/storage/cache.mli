(** ViDa's data caches (paper §2.1, §5).

    Caches hold previously-accessed data — decoded columns, parsed objects,
    serialized binary JSON, raw-file positions — keyed by (source, item,
    layout). The same logical item may be cached under several layouts at
    once ("re-using and re-shaping results", §5). Bounded by an approximate
    byte budget with LRU eviction; updates to a source drop all its entries
    (§2.1). Hit/miss/eviction counters feed the experiments (the paper's
    ~80%-served-from-cache claim). *)

type payload =
  | Values of Vida_data.Value.t array  (** decoded column / object array *)
  | Strings of string array  (** raw text or VBSON per item *)
  | Ranges of (int * int) array  (** positions into the raw file *)

type key = { source : string; item : string; layout : Layout.t }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  stale_drops : int;
      (** entries dropped because the source file's fingerprint changed *)
  budget_evictions : int;
      (** a governed query's own LRU entries evicted to keep its cache
          footprint within its memory budget *)
  budget_refusals : int;
      (** admissions refused because they could not fit the admitting
          query's memory budget even after evicting its own entries *)
  resident_bytes : int;
  entries : int;
}

type t

(** [create ~capacity_bytes ()] — default capacity 256 MB. *)
val create : ?capacity_bytes:int -> unit -> t

(** [find ?fingerprint t key] returns the payload and counts a hit; a miss
    is counted otherwise. When [fingerprint] (the source file's current
    encoded {!Vida_raw.Fingerprint}) is given and the entry was stored with
    a different one, the entry is {e dropped} (counted under
    [stale_drops]) and the lookup misses — a changed file must never be
    served from stale cache. *)
val find : ?fingerprint:string -> t -> key -> payload option

(** [mem t key] checks without touching recency, counters or staleness. *)
val mem : t -> key -> bool

(** [put ?fingerprint t key payload] inserts (replacing any previous
    entry), evicting least-recently-used entries if over capacity,
    recording [fingerprint] for staleness checks on later [find]s. A
    payload larger than the whole capacity is refused (returns [false]).

    When the ambient {!Vida_governor.Governor} session carries a memory
    budget, the admission is charged against that query's budget: under
    pressure the query's {e own} least-recently-used admissions are
    evicted first ([budget_evictions]), and an entry that still cannot
    fit is refused ([budget_refusals]) — one query cannot pollute the
    shared cache past its budget. *)
val put : ?fingerprint:string -> t -> key -> payload -> bool

(** [extend ?fingerprint t key ~old ~from payload] replaces [key]'s entry
    [old] by [payload], which keeps [old]'s cells below [from] and
    replaces or adds the cells from [from] on (append repair). It is
    charged by delta: the old entry's bytes, minus [old]'s cells from
    [from] on, plus [payload]'s — the [payload_bytes] of the result,
    without measuring the kept cells again. Admission, budget and
    eviction are [put]'s. When [key] no longer holds [old], this is
    [put]. *)
val extend :
  ?fingerprint:string -> t -> key -> old:payload -> from:int -> payload -> bool

(** [find_or_add ?fingerprint t key f] is [find], computing and inserting
    via [f] on a miss. *)
val find_or_add : ?fingerprint:string -> t -> key -> (unit -> payload) -> payload

(** [entries_of_source t source] snapshots the resident entries of
    [source] (key, payload, stored fingerprint) — used by append-aware
    repair to extend cached columns with appended rows and re-[put] them
    under the new fingerprint instead of losing them to stale-drops. *)
val entries_of_source : t -> string -> (key * payload * string option) list

(** [invalidate_source t source] drops every entry of [source]. *)
val invalidate_source : t -> string -> unit

val clear : t -> unit
val stats : t -> stats
val reset_stats : t -> unit

(** [payload_bytes p] is the approximate in-memory size used for
    accounting. *)
val payload_bytes : payload -> int

(** [value_bytes v] is the approximate in-memory size of one value — the
    unit the engines use to charge materialized operator state (join build
    sides, product snapshots) against a governor memory budget. *)
val value_bytes : Vida_data.Value.t -> int

val pp_stats : Format.formatter -> stats -> unit
