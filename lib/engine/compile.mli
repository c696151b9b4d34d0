(** The just-in-time executor (paper §4).

    [query] generates a specialized executor for one plan: every scalar
    expression becomes a closure with variable references resolved to slot
    indices at compile time, every operator becomes a push-based stage
    (HyPer-style pipelining, which the paper cites as its execution model),
    and every [Source] gets an input plugin generated for exactly the fields
    the query touches. The general-purpose checks a static engine performs
    per tuple — name lookups, qualifier dispatch, AST walking — are all
    resolved here, once per query; {!Interp} is the engine with those checks
    left in, used as the paper's "pre-cooked operator" foil.

    Pipelining: scans never materialize; only hash-join builds,
    [Product]/[Nest] materialization and [Reduce] accumulators are blocking
    (paper §4.1 Operator Output). Correlated subqueries remaining in
    scalars (e.g. nested comprehensions in a [Reduce] head) are compiled
    recursively into closures over the outer environment. *)

(** [query ctx plan] compiles [plan]: the JIT rung's one entry, at every
    domain count. Plans inside the vectorized fragment run as kernels on
    up to [ctx.domains] domains (a kernel splits into morsels only above
    its row floor); a kernel decline falls back to the closure engine on
    one domain. The returned thunk can be run many times; each run
    re-reads through caches/plugins.
    @raise Plugins.Engine_error on unknown sources.
    @raise Vida_calculus.Eval.Error on scalar evaluation failures. *)
val query : Plugins.ctx -> Vida_algebra.Plan.t -> unit -> Vida_data.Value.t

(** [scalar ctx ~slots expr] compiles one scalar expression against an
    explicit slot layout — exposed for tests and the optimizer's constant
    folding. *)
val scalar :
  Plugins.ctx -> slots:(string * int) list -> Vida_calculus.Expr.t ->
  Vida_data.Value.t array -> Vida_data.Value.t

(** {2 Result repair}

    A cached result of a [Reduce] over a Select*/Map* chain on one
    source, with a {!Vida_calculus.Monoid.resumable} monoid and no
    expression that reaches beyond that source (no subquery), continues
    over rows an append added. *)

(** [resumable ctx plan] is the one source such a plan folds, or [None]
    when the plan has another shape. *)
val resumable : Plugins.ctx -> Vida_algebra.Plan.t -> string option

(** [resume ctx plan ~carrier ~from] folds rows [[from, n)] of the
    plan's chain into the pre-finalize [carrier] of a fold over rows
    [[0, from)], and returns the new carrier with [n], the row count
    now. The rows are added to the carrier in order on one domain, so the
    carrier is the one a fold over all [n] rows produces, bit for bit.
    [None] when the plan is not {!resumable} or its source holds fewer
    than [from] rows. The plan should carry {!Analysis.neutralize_count}. *)
val resume :
  Plugins.ctx -> Vida_algebra.Plan.t -> carrier:Vida_data.Value.t -> from:int ->
  (Vida_data.Value.t * int) option
