(** Nested relational algebra plans (paper §4; Fegaras & Maier).

    A plan produces a stream of {e environments} — tuples of variable
    bindings — rather than positional tuples: every operator may reference
    any variable bound below it, which is what lets the algebra express
    queries over nested, heterogeneous data. Scalars inside operators are
    calculus expressions ({!Vida_calculus.Expr.t}); a nested comprehension
    appearing in one (e.g. a subquery in the head of [Reduce]) is executed
    as a correlated subplan by the engine.

    Operators:
    - [Unit] — one empty environment (the initial seed).
    - [Source] — bind [var] to each element of a source collection; the
      engine resolves a [Var name] source through the catalog and its
      just-in-time access paths.
    - [Select] — keep environments satisfying [pred].
    - [Map] — extend each environment with [var := expr].
    - [Product] — cross product of two independent subplans.
    - [Join] — product filtered by [pred]; the engine builds a hash table
      when [pred] has an equi-conjunct.
    - [Unnest] — bind [var] to each element of the collection [path]
      evaluated under the incoming environment (dependent product); with
      [outer = true] an empty/null collection emits one environment with
      [var := Null] instead of none.
    - [Reduce] — fold the stream into the accumulator monoid (the paper's
      generalized projection, §4).
    - [Nest] — group by [keys] and fold each group with [monoid]/[head]
      into [var] (the algebra's group-by; used for unnested head
      subqueries). Its output environments bind only the key names and
      [var]. *)

type t =
  | Unit
  | Source of { var : string; expr : Vida_calculus.Expr.t }
  | Select of { pred : Vida_calculus.Expr.t; child : t }
  | Map of { var : string; expr : Vida_calculus.Expr.t; child : t }
  | Product of { left : t; right : t }
  | Join of { pred : Vida_calculus.Expr.t; left : t; right : t }
  | Unnest of {
      var : string;
      path : Vida_calculus.Expr.t;
      outer : bool;
      child : t;
    }
  | Reduce of { monoid : Vida_calculus.Monoid.t; head : Vida_calculus.Expr.t; child : t }
  | Nest of {
      monoid : Vida_calculus.Monoid.t;
      var : string;  (** receives the folded group *)
      head : Vida_calculus.Expr.t;  (** folded per group member *)
      keys : (string * Vida_calculus.Expr.t) list;
          (** named grouping expressions; the operator's output environments
              bind exactly these names plus [var] *)
      child : t;
    }

(** [bound_vars p] is the set of variables each environment produced by [p]
    binds, in binding order. *)
val bound_vars : t -> string list

(** [free_vars p] is the variables referenced but not bound — they must be
    supplied by the session environment (registered sources, parameters). *)
val free_vars : t -> string list

(** [validate ~externals p] checks well-formedness: scalar expressions
    only reference bound variables or the caller's [externals] (for a
    query, the registered sources and parameters; for a subplan, the
    variables its context binds), binders do not clash, [Reduce]/[Nest]
    monoids are sane. Returns a description of the first problem found.
    Subtrees for which [known] holds (default: none) were validated
    before and are skipped; validity of a subtree does not depend on
    where it sits. *)
val validate :
  ?known:(t -> bool) -> externals:string list -> t -> (unit, string) result

(** Children of the node, for generic traversals. *)
val children : t -> t list

(** [map_children f p] rebuilds [p] with children [f]-transformed; when
    every child comes back physically unchanged, [p] itself is returned. *)
val map_children : (t -> t) -> t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
