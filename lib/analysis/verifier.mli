(** Plan verifier: typed-IR invariant checking for algebra plans.

    Re-derives well-typedness of a {!Vida_algebra.Plan} tree against the
    catalog's type environment, independently of how the plan was built —
    the pipeline's transformations (calculus normalization, translation,
    optimizer rules, parallel plan-shape rewrites) are semantics-preserving
    {e by intention}; this module checks the typing part of that claim
    after every one of them, so a transformation bug surfaces at plan time
    with the offending stage and rule named, not as a wrong answer at
    execution time.

    The derivation mirrors the nested-relational-algebra typing rules: a
    stream operator's output is an {e environment schema} (variable/type
    bindings, in binding order); scalar expressions inside operators are
    checked with {!Vida_calculus.Typecheck} under the externals plus that
    schema. Checking is gradual exactly as query admission is: [Ty.Any]
    unifies with everything. *)

type env = (string * Vida_data.Ty.t) list

(** A per-derivation typing memo: each plan node checked under it,
    keyed by physical identity, with the schema it derives. Sound because
    plans are immutable and closed over their own binders — a node's
    schema depends only on the node and the externals — and a rewrite
    shares every subtree it did not touch, so a firing checked under the
    memo types only the nodes the rule built. A node is stored only once
    it has validated and checked; a failing node is never stored and
    fails again with the same diagnostic.

    A memo serves one derivation under one environment (one query): it is
    passed explicitly, never shared between concurrent derivations. Used
    under a different environment (not physically the one its entries
    were derived under), it drops its entries. *)
type memo

val memo : unit -> memo

(** [typed m] counts the nodes [m] has typed and stored: each node that
    checked, once. *)
val typed : memo -> int

(** [environment ~env p] is the environment schema the stream plan [p]
    produces, deriving and checking every operator on the way.
    @raise Vida_error.Error on an invariant violation. *)
val environment : env:env -> Vida_algebra.Plan.t -> env

(** [infer ~env p] is the type of the plan's result: the folded value for
    a [Reduce] root, a bag of environment records for a bare stream. *)
val infer :
  ?stage:string -> ?rule:string -> env:env -> Vida_algebra.Plan.t ->
  (Vida_data.Ty.t, Vida_error.t) result

(** [verify ~env p] checks structural well-formedness ({!Vida_algebra.Plan.validate})
    and re-derives types over every node [memo] does not hold yet (a
    fresh memo by default: the whole tree). [stage] names the pipeline
    point ("translate", "optimize", "parallel"); [rule] the rewrite whose
    firing produced [p]. Both are carried into the
    {!Vida_error.Plan_invalid} diagnostic on failure. *)
val verify :
  ?memo:memo -> ?stage:string -> ?rule:string -> env:env -> Vida_algebra.Plan.t ->
  (unit, Vida_error.t) result

(** [verify_exn] raises {!Vida_error.Error} instead. *)
val verify_exn :
  ?memo:memo -> ?stage:string -> ?rule:string -> env:env -> Vida_algebra.Plan.t -> unit

(** [check_rewrite ~stage ~rule ~env ~before ~after ()] — the pre/post
    obligation for one rewrite firing: [before] must be well-typed (else
    the bug predates this rule and is reported against the stage), and
    [after] must be well-typed {e with the rule named}. Additionally the
    rewrite must not change the plan's result type (up to gradual
    unification) nor its free variables. Each side's result type is
    derived once; under a [memo] that already holds [before], only the
    nodes the rule built are typed. *)
val check_rewrite :
  ?memo:memo -> stage:string -> rule:string -> env:env -> before:Vida_algebra.Plan.t ->
  after:Vida_algebra.Plan.t -> unit -> (unit, Vida_error.t) result
