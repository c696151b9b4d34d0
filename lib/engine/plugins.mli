(** Input plugins (paper §4.1, Figure 3).

    Every operator obtains its inputs through a file-format-specific input
    plugin. A plugin is {e generated per query}: it receives the fields the
    query needs ({!Analysis.need}) and produces a push-stream of exactly
    those bindings, reading through the source's auxiliary structures and
    ViDa's caches:

    - CSV: positional-map navigation; decoded columns cached per attribute.
    - JSON lines: semi-index field extraction; parsed field columns cached
      per attribute; whole objects cached in compact VBSON.
    - Binary arrays: direct-offset cell access; only needed fields read.
    - Inline collections and arbitrary source expressions: generic
      interpreter fallback.

    A fully-cached source never touches the raw file — the hot path behind
    the paper's "~80% of the workload was served from ViDa's caches". *)

type ctx = {
  registry : Vida_catalog.Registry.t;
  cache : Vida_storage.Cache.t;
  structures : Structures.t;
  params : (string * Vida_data.Value.t) list;
      (** extra free-variable bindings for queries *)
  cleaning : (string, Vida_cleaning.Policy.t) Hashtbl.t;
      (** per-source cleaning policies (paper §7); absent = Strict *)
  bad_rows : (string, (int, unit) Hashtbl.t) Hashtbl.t;
      (** per-source "problematic entries" discovered on first access and
          skipped by subsequently generated code (paper §7) *)
  structural_quarantined : (string, unit) Hashtbl.t;
      (** sources whose structurally-bad spans were already copied into the
          policy quarantine report (one-shot, per source) *)
  restored_quarantine :
    (string, Vida_cleaning.Policy.quarantine_entry list) Hashtbl.t;
      (** quarantine entries restored from a state directory, merged into
          {!quarantine_report} so the ledger survives restarts *)
  feedback : Feedback.t;
      (** observed selectivities/cardinalities from past executions,
          consulted by the optimizer (paper §5 runtime feedback) *)
  domains : int;
      (** domain budget for parallel regions (morsel-driven folds, chunked
          auxiliary-structure builds); 1 = strictly sequential *)
  lock : Vida_sync.Lock.t;
      (** guards the mutable policy/bad-row tables under concurrent
          sessions (the registry, cache, structures and feedback carry
          their own locks). Per-row probes of a fetched bad set stay
          unlocked by design; that tolerance is registered with the
          sanitizer as the race-allowed cell ["plugins.bad-rows"]
          (see DESIGN.md §14) instead of prose *)
  carrier : (Vida_data.Value.t -> unit) option;
      (** receives the pre-finalize carrier of the plan's root fold, on a
          per-query copy of the context whose result may later be
          continued over appended rows; [None] otherwise *)
}

(** [create_ctx ?domains] resolves the domain budget as
    {!Vida_raw.Morsel.resolve}: the [VIDA_DOMAINS] environment override
    wins, else [domains] clamped to the hardware count, else the hardware
    count. *)
val create_ctx :
  ?cache_capacity:int -> ?params:(string * Vida_data.Value.t) list ->
  ?domains:int -> Vida_catalog.Registry.t -> ctx

(** [finalize_root ctx m acc] is [Monoid.finalize m acc], the plan's root
    fold finishing; [acc] is handed to [ctx.carrier] first. *)
val finalize_root :
  ctx -> Vida_calculus.Monoid.t -> Vida_data.Value.t -> Vida_data.Value.t

exception Engine_error of string

(** [producer ctx expr ~need] compiles an input plugin for the source
    expression [expr] (usually a registered source name). The returned
    function pushes every element to its consumer. Elements are records of
    exactly the needed fields when [need] is [Fields] (missing fields bind
    [Null]). *)
val producer :
  ctx -> Vida_calculus.Expr.t -> need:Analysis.need ->
  (Vida_data.Value.t -> unit) -> unit

(** [binarray_ranged_producer ctx source ~need ~ranges] scans a binary
    array using its zone maps to skip blocks that cannot satisfy the given
    per-field numeric ranges (a conservative superset — callers re-apply
    the exact predicate). *)
val binarray_ranged_producer :
  ctx -> Vida_catalog.Source.t -> Analysis.need ->
  ranges:(string * float option * float option) list ->
  (Vida_data.Value.t -> unit) -> unit

(** [column_arrays ctx source ~fields] is a columnar view (row count plus
    one decoded array per field) for formats that support it, through the
    ordinary caches — [None] for hierarchical formats or when a cleaning
    policy is skipping rows. *)
val column_arrays :
  ctx -> Vida_catalog.Source.t -> fields:string list ->
  (int * (string * Vida_data.Value.t array) list) option

(** [source_count ctx source] is the element count without materializing
    values (row/object/cell count; used by the optimizer). *)
val source_count : ctx -> Vida_catalog.Source.t -> int

(** [materialize_source ctx source] is the source's full collection value —
    the generic fallback and the baseline loaders' entry point. *)
val materialize_source : ctx -> Vida_catalog.Source.t -> Vida_data.Value.t

(** [base_eval_env ctx] is the interpreter environment resolving parameters
    and registered sources (file sources materialize lazily on first use —
    only queries that escape the plugin fast-paths pay this). *)
val base_eval_env : ctx -> Vida_calculus.Eval.env

(** [invalidate ctx name] drops the source's caches, structures and
    problematic-entry set, and re-snapshots it (called when staleness is
    detected). *)
val invalidate : ctx -> string -> unit

(** [refresh_source ctx source] brings a source's derived state up to
    date with its backing file, classifying the change with
    {!Vida_raw.Delta}:
    - [`Unchanged] — content fingerprint matches; the registry snapshot,
      itself a fingerprint, is compared with the probe at no further IO
      and retaken from it when it names another generation;
    - [`Extended] — the file grew by append: the registry keeps its
      inferred format when the append lies past the inference sample
      ({!Vida_catalog.Registry.refresh}), built structures are extended
      over a buffer that read only the appended bytes
      ({!Structures.repair_appended}), and cached columns are extended
      with the appended items, charged by delta ({!Cache.extend}) and
      re-stamped with the new fingerprint. Sources under a cleaning
      policy, rows already marked problematic, a re-inferred format that
      changed, parse failures in the appended bytes, or unrecognized
      payload shapes fall back to dropping the caches (the structures
      stay extended);
    - [`Rebuilt] — rewritten/truncated/vanished, or no structures built
      yet and the snapshot drifted: full {!invalidate} (paper §2.1).

    The verdict comes with the fingerprint probed from the file, or
    [None] when there is no backing file or the file vanished. *)
val refresh_source :
  ctx ->
  Vida_catalog.Source.t ->
  [ `Unchanged | `Extended | `Rebuilt ] * Vida_raw.Fingerprint.t option

(** [set_cleaning ctx ~source policy] attaches a cleaning policy; the
    source's caches are dropped so already-decoded columns are re-read
    under the new policy. *)
val set_cleaning : ctx -> source:string -> Vida_cleaning.Policy.t -> unit

(** [item_count ctx source] is the row (CSV), object (JSON lines) or
    element (XML) count of the generation the ambient epoch pinned for
    [source], read off its built structure. [None] for other formats,
    under a cleaning policy, bad rows or damaged XML elements, or when no
    structure of that generation is loaded. *)
val item_count : ctx -> Vida_catalog.Source.t -> int option

(** [items_before ctx source ~old_fp] is, for the same structure, when
    its generation extends generation [old_fp] by append, the number of
    items generation [old_fp] held, paired with {!item_count}. [None]
    when that generation's last item did not end at a newline inside its
    bytes (an append may have completed it), or on any condition under
    which {!item_count} is [None]. *)
val items_before :
  ctx -> Vida_catalog.Source.t -> old_fp:Vida_raw.Fingerprint.t -> (int * int) option

(** [cleaning_policy ctx source] — the active policy ([Policy.default]
    when none was set). *)
val cleaning_policy : ctx -> string -> Vida_cleaning.Policy.t

(** [bad_row_count ctx source] — problematic entries discovered so far. *)
val bad_row_count : ctx -> string -> int

(** [quarantine_report ctx source] — raw spans quarantined for [source]
    so far (populated only under a [Quarantine] cleaning policy): source
    name, byte offset/length into the raw file, and the reason each record
    was rejected. *)
val quarantine_report :
  ctx -> string -> Vida_cleaning.Policy.quarantine_entry list

(** {1 Durable quarantine ledger}

    Export/restore of what cleaning has learned about a source — bad
    rows, wholesale structural quarantine, rejected raw spans — so a
    state directory can carry the ledger across restarts. Staleness is
    the caller's contract: restore only under a matching source-file
    fingerprint. A restored ledger is dropped like a live one on
    {!set_cleaning} or {!invalidate}. *)

(** [(bad rows, structurally quarantined, quarantine entries)]. *)
val ledger_export :
  ctx -> string -> int list * bool * Vida_cleaning.Policy.quarantine_entry list

val ledger_restore :
  ctx -> source:string -> bad:int list -> structural:bool ->
  quarantined:Vida_cleaning.Policy.quarantine_entry list -> unit
