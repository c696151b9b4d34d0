(** Types of the ViDa data model.

    The model covers the heterogeneous sources the paper targets: relational
    tables (records of primitives), semi-structured documents (nested records
    and collections), and scientific array data (multi-dimensional arrays of
    records). Collection kinds mirror the collection monoids of the
    comprehension calculus: sets, bags, lists and arrays. *)

(** Kind of a collection type. Determines idempotence/commutativity of the
    corresponding collection monoid (see {!Vida_calculus.Monoid}). *)
type coll =
  | Set   (** no duplicates, no order *)
  | Bag   (** duplicates, no order *)
  | List  (** duplicates, order *)
  | Array (** duplicates, order, dimensioned, addressable by index *)

type t =
  | Bool
  | Int
  | Float
  | String
  | Record of (string * t) list  (** field order is significant *)
  | Coll of coll * t
  | Any
      (** unknown type: used for gradually-typed raw sources whose schema is
          only partially described *)

(** Structural equality; physically equal arguments answer at once. *)
val equal : t -> t -> bool

(** [unify a b] is the least upper bound of [a] and [b] if one exists:
    identical types unify, [Any] unifies with everything, [Int] and [Float]
    unify to [Float] (numeric widening), records unify field-wise.
    Physically equal arguments return [Some a] at once, without walking
    a (possibly wide) record. *)
val unify : t -> t -> t option

(** [is_numeric t] is true for [Int], [Float] and [Any]. *)
val is_numeric : t -> bool

(** [field t name] is the type of field [name] if [t] is a record having it,
    [Any] if [t] is [Any]. *)
val field : t -> string -> t option

(** [element t] is the element type if [t] is a collection, [Any] if [Any]. *)
val element : t -> t option

val coll_name : coll -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
