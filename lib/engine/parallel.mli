(** Morsel-driven parallel execution (paper §8 cites parallel operators
    for in-situ processing; monoids make it principled: any monoid
    aggregation splits into per-morsel partial folds merged back in
    source order).

    {!try_query} tries the vectorized kernels first, through
    {!Vector.compile} at the domain budget: a single-chain scan or a
    join's top probe splits into morsels there. When the kernels decline
    (untypeable or mixed columns, monoids without a fused kernel),
    one shape remains: a [Reduce] with {e any} monoid over a
    Select*/Map* chain on one columnar source (CSV, binary array, JSON
    lines, XML, inline records) folds tuple at a time in morsels.
    Partials merge in morsel order, so non-commutative collection monoids
    (list/array) concatenate correctly. Declined joins, products and
    unnests are the closure engine's.

    Needed columns are faulted in once on the calling domain (through the
    ordinary plugins and caches); workers then read only immutable arrays
    and their own task-compiled closures, polling the caller's governor
    session through atomic counters. Floating-point accumulations are
    reassociated by the split, so float aggregates can differ from the
    sequential result in the last bits. *)

(** One reason the engine declined (part of) a plan for worker execution:
    [where] names the position ("fold head", "join key", "chain filter",
    …), [reason] is the effect-analysis verdict rendered by
    {!Vida_analysis.Effects.reason_to_string}. *)
type decline = { where : string; reason : string }

(** Declines recorded by the most recent {!try_query} call, in the order
    they were hit. Empty when the plan parallelized (or was never
    gated on an expression verdict). *)
val last_declines : unit -> decline list

(** [try_query ctx ?domains plan] — [None] when neither the kernels nor
    the row fold answer the plan, or the effective domain budget is 1.
    The plan is classified once: a kernel decline is recorded as one
    ["vectorized->closure"] fallback, and on [None] the caller runs
    {!Compile.closure} rather than {!Compile.query}, so the kernels are
    not tried twice. The plan should already carry
    {!Analysis.neutralize_count}, so needs analysis sees what the query
    reads. [domains] defaults to
    [ctx.domains]; either is clamped per region to the row count and the
    {!Vida_raw.Morsel} minimum-rows floor. *)
val try_query :
  Plugins.ctx -> ?domains:int -> Vida_algebra.Plan.t -> Vida_data.Value.t option

(** {2 Result repair}

    A cached result of a [Reduce] over a Select*/Map* chain on one
    source, with a {!Vida_calculus.Monoid.resumable} monoid and nothing a
    worker could not run (no subquery), continues over rows an append
    added, through the same row fold. *)

(** [resumable ctx plan] is the one source such a plan folds, or [None]
    when the plan has another shape. Logs no decline. *)
val resumable : Plugins.ctx -> Vida_algebra.Plan.t -> string option

(** [resume ctx plan ~carrier ~from] folds rows [[from, n)] of the
    plan's chain into the pre-finalize [carrier] of a fold over rows
    [[0, from)], and returns the new carrier with [n], the row count
    now. At one domain the rows are added to the carrier in order, so the
    carrier is the one a fold over all [n] rows produces, bit for bit.
    [None] when the plan is not {!resumable} or its source holds fewer
    than [from] rows. The plan should carry {!Analysis.neutralize_count}. *)
val resume :
  Plugins.ctx -> Vida_algebra.Plan.t -> carrier:Vida_data.Value.t -> from:int ->
  (Vida_data.Value.t * int) option
