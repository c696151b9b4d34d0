(** Morsel-driven work scheduling on OCaml 5 domains.

    Worker domains pull morsel indices from a shared counter and deposit
    each result into an ordered, morsel-indexed array, so callers can
    merge partial results in source order (correct even for
    non-commutative monoids). Every morsel re-installs the owning
    query's governor session and epoch: deadlines, cancellation, budget
    charges and source-change probes are enforced inside every domain,
    against the owning query's shared counters.

    Regions execute in one of two modes:
    - {e per-region} (default): [run] spawns [domains - 1] short-lived
      worker domains for its region and joins them — one query at a
      time, the original behaviour;
    - {e shared pool} ({!Pool.set_shared}): regions from many concurrent
      queries are multiplexed over one set of long-lived worker domains
      with per-session fair-share scheduling. *)

(** [override ()] is the [VIDA_DOMAINS] environment override, if set to a
    positive integer. Snapshotted {e once at module initialization}: a
    mid-run environment mutation can never change pool sizing between
    sessions. *)
val override : unit -> int option

(** [recommended ()] is [Domain.recommended_domain_count ()], likewise
    snapshotted once at startup (bench metadata records both). *)
val recommended : unit -> int

(** [resolve ?requested ()] resolves a domain count: [VIDA_DOMAINS] wins;
    else an explicit [requested] clamped to the startup-cached hardware
    count; else the hardware count. Always at least 1. *)
val resolve : ?requested:int -> unit -> int

(** [default_domains ()] = [resolve ()]. *)
val default_domains : unit -> int

(** Work-size floors below which parallel regions run sequentially.
    Settable so tests can force parallelism on tiny inputs. *)
val set_min_parallel_rows : int -> unit

val set_min_parallel_bytes : int -> unit

(** The row floor {!set_min_parallel_rows} set (2048 by default). *)
val parallel_row_floor : unit -> int

(** [domains_for_rows ~domains rows] clamps [domains] for a region of
    [rows] work items: 1 if below the row floor, never more than [rows]. *)
val domains_for_rows : domains:int -> int -> int

(** [domains_for_bytes ~domains bytes] is 1 if [bytes] is below the byte
    floor, else [domains]. *)
val domains_for_bytes : domains:int -> int -> int

(** [chunks n parts] splits [0, n) into at most [parts] contiguous
    [(lo, hi)] ranges covering it exactly, in order. *)
val chunks : int -> int -> (int * int) array

(** A long-lived, server-owned worker-domain pool scheduling morsels
    {e across} concurrent queries.

    Fair share: workers always claim the next morsel from the runnable
    region whose owning governor session has consumed the fewest morsel
    quanta (counts reset when the pool drains), so a long scan cannot
    starve point queries. The submitting caller participates in its own
    region, which makes completion independent of pool capacity: a
    saturated or zero-worker pool degrades to caller-sequential
    execution — no deadlock, no cross-query blocking. A region always
    unregisters itself (even when a morsel raises or its client dies
    with the query), so a killed query can never leak a pool slot. *)
module Pool : sig
  type t

  (** [create ?domains ()] spawns [resolve ?requested:domains () - 1]
      long-lived worker domains (the submitting caller is each region's
      +1). A 1-domain resolution yields a zero-worker pool that is still
      fully functional. *)
  val create : ?domains:int -> unit -> t

  (** [shutdown t] stops and joins the worker domains. Must not be called
      while regions are active. *)
  val shutdown : t -> unit

  type stats = {
    workers : int;  (** worker domains owned by the pool *)
    active_regions : int;  (** regions currently registered *)
    inflight : int;  (** morsels currently executing on pool workers *)
    executed : int;  (** morsels pool workers have run, lifetime *)
    sessions_served : int;  (** distinct governor sessions seen, lifetime *)
  }

  val stats : t -> stats

  (** [idle t] — no region registered: every admitted query released its
      slot (the soak's leak check). *)
  val idle : t -> bool

  val size : t -> int

  (** [run_region t ~max_helpers ~tasks f] executes one region over the
      pool: the caller drives its own morsels, at most [max_helpers] pool
      workers help concurrently. Same result/failure contract as
      {!run}. *)
  val run_region : t -> max_helpers:int -> tasks:int -> (int -> 'a) -> 'a array
end

(** [set_shared_pool (Some p)] routes every subsequent multi-domain
    {!run} region through [p] instead of spawning per-region domains —
    the serving layer installs its pool here at startup. [None] restores
    per-region spawning. *)
val set_shared_pool : Pool.t option -> unit

val shared_pool : unit -> Pool.t option

(** [run ~domains ~tasks f] computes [f i] for every [i] in [0, tasks)
    and returns the results in task order. With [domains <= 1] (or a
    single task) everything runs in the calling domain; otherwise the
    region executes on the shared pool when one is installed (with
    [domains - 1] as its helper cap), or on [domains - 1] freshly
    spawned domains with the caller participating. If any task raises,
    remaining morsels are abandoned at the next boundary and the
    lowest-index exception is re-raised in the caller. *)
val run : domains:int -> tasks:int -> (int -> 'a) -> 'a array
