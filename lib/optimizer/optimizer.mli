(** The ViDa optimizer (paper §5).

    Pipeline: (1) logical rewrites ({!Rules}); (2) greedy cost-based
    re-ordering of the generator graph — the plan below the top
    [Reduce]/[Nest] is decomposed into sources, unnests, maps and predicate
    conjuncts with their variable dependencies, then rebuilt cheapest-first
    using the raw-data-aware cost model ({!Cost}), applying every predicate
    at the earliest point its variables are bound; (3) build-side selection
    for hash joins (the smaller estimated input becomes the build side).

    Because attribute costs consult the session's caches and positional
    structures, the chosen order can change between runs of the same query
    as structures warm up — the "just-in-time" optimization the paper
    argues for. *)

type report = {
  before : Cost.estimate;
  after : Cost.estimate;
  rewritten : Vida_algebra.Plan.t;
}

(** [optimize ?check ctx plan] returns the optimized plan. Plans whose
    stream part contains shapes the decomposer does not handle (nested
    [Reduce]/[Nest]) still get the rewrite pass. Every rewrite firing —
    rule applications, the greedy builder's cost trials included, build-side
    swaps and the group-by recognition — is reported to [check] (default:
    none). *)
val optimize :
  ?check:Rules.check -> Vida_engine.Plugins.ctx -> Vida_algebra.Plan.t ->
  Vida_algebra.Plan.t

(** [optimize_with_report ctx plan] also returns cost estimates before and
    after, for EXPLAIN output and tests. *)
val optimize_with_report :
  Vida_engine.Plugins.ctx -> Vida_algebra.Plan.t -> Vida_algebra.Plan.t * report
