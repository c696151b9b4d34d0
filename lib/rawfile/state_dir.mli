(** Durable warm state: the crash-safe state directory.

    One directory under which every piece of warm state — plan-cache
    spills, breaker verdicts, quarantine ledgers, positional-map sidecars
    — is persisted with the {!Atomic_sidecar} publish discipline and
    revalidated on load. A kill -9 at any instant leaves at worst a file
    that fails its own CRC framing: it is quarantined to [*.corrupt] and
    rebuilt, never trusted. Everything here is a disposable accelerator —
    losing the directory costs restart time, never answers.

    Single-instance: the directory is guarded by a lockfile recording
    [pid:starttime]; opening probes the holder's liveness (start-time
    match defeats pid reuse) and reclaims a stale lock, but refuses —
    with a typed [State_failure] — to open a directory a live process
    holds.

    Failure discipline: OS write failures (ENOSPC, EMFILE, EIO — real or
    {!Fault_plan}-injected) raise typed [Vida_error.State_failure] (kind
    ["state"], exit 80) from {!open_dir}/{!save_artifact}; the {!persist}
    wrapper instead flips the documented no-persist degraded mode:
    persistence suspends, the failure is counted, queries keep answering.
    The process never aborts on a persistence failure. *)

type t

(** [open_dir dir] creates/opens the state directory: takes the
    single-instance lock (reclaiming a stale holder), loads the journaled
    manifest (a corrupt manifest is quarantined and rebuilt empty), GC's
    aged/excess [*.corrupt] files, and arms a [State_publish] fault from
    [VIDA_STATE_CRASH] if set ({!Fault_plan.arm_from_env}). Raises [State_failure] when a live process
    holds the lock or the directory cannot be prepared. *)
val open_dir :
  ?quarantine_max_age_s:float -> ?quarantine_max_count:int -> string -> t

val dir : t -> string

(** Releases the lockfile (only if still ours). Idempotent. *)
val close : t -> unit

(** {1 Artifacts}

    Named, opaque frame lists published crash-safely under
    [DIR/<name>.bin] and journaled in the manifest. *)

(** Raises [State_failure] on OS write failure. *)
val save_artifact : t -> name:string -> string list -> unit

(** Degraded-aware {!save_artifact}: returns [false] without raising when
    persistence is suspended or the save fails (flipping degraded mode).
    The background persistence path uses this — a full disk must never
    take down query serving. *)
val persist : t -> name:string -> string list -> bool

(** [None] when absent — or corrupt, in which case the file is
    quarantined to [*.corrupt] first (a torn artifact is never trusted). *)
val load_artifact : t -> name:string -> string list option

(** Record a persist failure observed outside {!persist} (e.g. a
    positional-map checkpoint into {!structure_dir}): flips degraded
    mode and counts it. *)
val note_persist_failure : t -> Vida_error.t -> unit

(** {1 Structure sidecars} *)

(** [DIR/structures] — positional-map sidecars live here, keyed by the
    MD5 of the source's backing path. *)
val structure_dir : t -> string

(** Journal that [digest] (a sidecar filename stem) accelerates [source];
    persisted in the manifest for reporting and warm-boot accounting. *)
val record_structure : t -> digest:string -> source:string -> unit

(** [(digest, source path)] pairs from the manifest, sorted. *)
val structures : t -> (string * string) list

(** Count externally-performed warm loads (e.g. a positional map restored
    from {!structure_dir}) into this directory's report. *)
val bump_warm_loads : t -> int -> unit

(** {1 Degraded mode + retention} *)

val degraded : t -> bool

(** Re-enable persistence after the operator has made room. *)
val reset_degraded : t -> unit

(** Remove [*.corrupt] files older than [max_age_s] or beyond the newest
    [max_count] (defaults 0/0 = purge all); returns the number removed.
    Backs the CLI's [.quarantine clean]. *)
val clean_quarantine : ?max_age_s:float -> ?max_count:int -> t -> int

type report = {
  r_dir : string;
  r_degraded : bool;
  r_persists : int;  (** artifact publishes completed *)
  r_persist_failures : int;  (** typed failures on the persist path *)
  r_warm_loads : int;  (** artifacts served CRC-valid from disk *)
  r_corrupt_quarantined : int;  (** corrupt files moved to [*.corrupt] *)
  r_quarantine_removed : int;  (** [*.corrupt] files GC'd *)
  r_lock_reclaimed : bool;  (** a stale holder's lock was reclaimed *)
  r_last_failure : string option;
}

val report : t -> report
