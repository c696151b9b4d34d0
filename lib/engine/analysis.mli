(** Static analysis feeding plugin and operator generation.

    [needed_fields] tells an input plugin which attributes a query actually
    touches, enabling projection pushdown into the raw scan (paper §4: scan
    operators place only the required data bindings in "registers").
    [split_equi] extracts hash-joinable equality conjuncts from a join
    predicate. *)

(** What a query needs of a generator variable. *)
type need =
  | Fields of string list  (** only these record fields, sorted, unique *)
  | Whole  (** the variable escapes whole (e.g. [yield bag e]) *)

(** [var_needs exprs ~var] analyzes how [var] is used across [exprs],
    looking through nested comprehensions (respecting shadowing). *)
val var_needs : Vida_calculus.Expr.t list -> var:string -> need

(** [plan_var_needs p ~var] collects every scalar of [p] above the binding
    of [var] and analyzes them. *)
val plan_var_needs : Vida_algebra.Plan.t -> var:string -> need

(** [neutralize_count plan] rewrites a [count v] head to [count 0] when
    [v] is a generator variable: generator bindings are records, never
    [Null], so the count is one per row either way, and [v] no longer
    escapes whole, so {!plan_var_needs} asks only for the fields the rest
    of the plan reads. A [v] bound by a [Map] may be [Null], which count
    skips, so its head stays. Any other plan is returned as it is
    (physically equal). *)
val neutralize_count : Vida_algebra.Plan.t -> Vida_algebra.Plan.t

(** [conjuncts pred] splits nested conjunctions into a flat list. *)
val conjuncts : Vida_calculus.Expr.t -> Vida_calculus.Expr.t list

(** [range_of ~var conjunct] recognizes a numeric bound [var.f OP const]
    (either orientation), returning [(field, lo, hi)] — the hook that lets
    scan operators exploit a format's internal statistics (zone maps). *)
val range_of :
  var:string -> Vida_calculus.Expr.t ->
  (string * float option * float option) option

(** [split_equi ~left ~right pred] decomposes [pred]'s conjuncts into hash
    keys and a residual: [(lkey, rkey)] pairs where [lkey] mentions only
    [left] variables and [rkey] only [right] ones, plus the conjunction of
    everything else ([None] when fully decomposed). *)
val split_equi :
  left:string list -> right:string list -> Vida_calculus.Expr.t ->
  (Vida_calculus.Expr.t * Vida_calculus.Expr.t) list * Vida_calculus.Expr.t option
