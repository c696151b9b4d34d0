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

(** [query ctx plan] compiles [plan]. The returned thunk can be run many
    times; each run re-reads through caches/plugins.
    @raise Plugins.Engine_error on unknown sources.
    @raise Vida_calculus.Eval.Error on scalar evaluation failures. *)
val query : Plugins.ctx -> Vida_algebra.Plan.t -> unit -> Vida_data.Value.t

(** [closure ctx plan] compiles [plan] for the closure engine alone,
    without trying the vectorized rung first. *)
val closure : Plugins.ctx -> Vida_algebra.Plan.t -> unit -> Vida_data.Value.t

(** [scalar ctx ~slots expr] compiles one scalar expression against an
    explicit slot layout — exposed for tests and the optimizer's constant
    folding. *)
val scalar :
  Plugins.ctx -> slots:(string * int) list -> Vida_calculus.Expr.t ->
  Vida_data.Value.t array -> Vida_data.Value.t
