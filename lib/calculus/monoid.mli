(** Monoids of the comprehension calculus (paper §3.2).

    A monoid is an associative merge function [⊕] with identity [Z⊕];
    collection monoids additionally have a unit function [U⊕] building
    singleton collections. Algebraic properties (commutativity, idempotence)
    restrict which generators may feed which accumulators: a comprehension
    over a commutative input monoid must accumulate into a commutative
    monoid, and an idempotent input requires an idempotent accumulator
    (Fegaras & Maier). *)

type prim =
  | Sum
  | Prod
  | Max
  | Min
  | Count
  | Avg  (** derived: (sum, count) pair; not free but paper lists it *)
  | Median  (** holistic: accumulates all inputs; paper lists it *)
  | All  (** boolean ∧ *)
  | Some_  (** boolean ∨ *)
  | Top of int
      (** the paper's "top-k monoid": the k largest values, descending *)
  | Bottom of int  (** the k smallest values, ascending *)

type t =
  | Prim of prim
  | Coll of Vida_data.Ty.coll

val commutative : t -> bool
val idempotent : t -> bool

(** [accepts ~acc ~gen] is true when a comprehension accumulating into [acc]
    may draw from a generator of collection kind [gen]: set and bag
    generators need a commutative accumulator (no defined element order);
    list/array generators accept anything. Set values are kept canonical
    (sorted, deduplicated), which makes commutative folds over them
    well-defined — a deliberate relaxation of Fegaras & Maier's idempotence
    condition; the normalizer's flattening rule still requires idempotence
    where deduplication would otherwise be lost. *)
val accepts : acc:t -> gen:Vida_data.Ty.coll -> bool

(** [zero m] is Z⊕ as a value. [Max]/[Min] use [Null] as identity; [Avg] of
    nothing and [Median] of nothing are [Null]. *)
val zero : t -> Vida_data.Value.t

(** [merge m a b] merges two values of the monoid's carrier. Aggregate
    primitive monoids treat [Null] operands as identity — NULL contributions
    are skipped, as SQL aggregates do.
    @raise Vida_data.Value.Type_error on carrier mismatch. *)
val merge : t -> Vida_data.Value.t -> Vida_data.Value.t -> Vida_data.Value.t

(** [unit m v] is U⊕(v): the contribution of one element. For collection
    monoids this is a singleton collection; for [Count] it is [Int 1]
    whatever [v] is; for [Avg]/[Median] an internal accumulator cell; for
    other primitive monoids it is [v] itself. *)
val unit : t -> Vida_data.Value.t -> Vida_data.Value.t

(** [finalize m acc] turns the internal accumulator into the user-facing
    result ([Avg] divides, [Median] sorts and picks; identity otherwise). *)
val finalize : t -> Vida_data.Value.t -> Vida_data.Value.t

(** A mutable fold in linear time. [add a v] has the effect of
    [acc := merge m acc (unit m v)]; [contents a] is the same pre-finalize
    carrier that fold produces, so partials still combine with {!merge}. *)
type accumulator

val accumulator : t -> accumulator
val add : accumulator -> Vida_data.Value.t -> unit
val contents : accumulator -> Vida_data.Value.t

(** [resumable m] holds for the monoids whose fold continues from a stored
    carrier at the cost of the new elements alone: count, sum, prod, max,
    min, avg, all, some, and the in-order bag and list. *)
val resumable : t -> bool

(** [resume m carrier] is an accumulator that continues the fold which
    produced [carrier] (a {!contents}): adding [vs] to it gives the
    carrier of the whole fold, step for step, not a merge of two
    partials. *)
val resume : t -> Vida_data.Value.t -> accumulator

(** [fold m vs] = [finalize m (fold_left (merge m) (zero m) (map (unit m) vs))]. *)
val fold : t -> Vida_data.Value.t list -> Vida_data.Value.t

val name : t -> string

(** [of_name s] parses a monoid name ("sum", "set", ...). *)
val of_name : string -> t option

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
