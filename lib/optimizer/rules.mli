(** Logical plan rewrites.

    Classical algebraic rewrites, run to fixpoint:
    - conjunctive selections split into single-conjunct selections;
    - selections pushed below maps, unnests, products and joins, down to
      the side that binds their variables;
    - a selection spanning both sides of a product turns it into a join
      (hash-joinable predicates are recognized later, at compile time);
    - unit products and trivially-true selections eliminated.

    Rewrites are semantics-preserving on environment streams; the
    differential test-suite checks them against the reference executor,
    and every individual firing can additionally be checked by the plan
    verifier through [apply]'s [check] — each rule is named, so a type-breaking
    firing is reported against the rule that produced it. *)

(** One named local rewrite. [rewrite] returns [None] when the rule does
    not apply at this root. *)
type rule = { name : string; rewrite : Vida_algebra.Plan.t -> Vida_algebra.Plan.t option }

(** The built-in rule set, in application order. *)
val builtin_rules : rule list

(** Extra rules appended after the built-ins — the mutation hook the
    verifier test-suite uses to seed type-breaking rules. Empty by
    default; reset it when done. *)
val extra_rules : rule list ref

(** Per-firing observation hook: called as [check ~rule ~before ~after]
    for every successful rule application ([before] the subtree it fired
    on, [after] its replacement). Passing the plan verifier here turns
    every optimizer step into checked territory. May raise (e.g.
    {!Vida_error.Error}) to abort the rewrite. *)
type check =
  rule:string -> before:Vida_algebra.Plan.t -> after:Vida_algebra.Plan.t -> unit

(** The check that observes nothing. *)
val no_check : check

(** [apply ?check p] runs the rules to a bounded fixpoint, reporting every
    firing to [check] (default: none). *)
val apply : ?check:check -> Vida_algebra.Plan.t -> Vida_algebra.Plan.t

(** [conjuncts e] splits nested conjunctions into a flat list. *)
val conjuncts : Vida_calculus.Expr.t -> Vida_calculus.Expr.t list

(** [conjoin es] rebuilds a conjunction ([true] for the empty list). *)
val conjoin : Vida_calculus.Expr.t list -> Vida_calculus.Expr.t
