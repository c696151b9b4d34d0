(** Runtime values of the ViDa data model.

    Values cross the boundary between the engine and its clients; inside the
    compiled engine, field offsets and datatypes are resolved at query
    compilation time so that per-tuple work does not pattern-match on this
    type (see {!Vida_engine}). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Record of (string * t) list  (** field order significant *)
  | List of t list
  | Bag of t list
  | Set of t list  (** invariant: sorted by {!compare}, duplicate-free *)
  | Array of { dims : int list; data : t array }
      (** row-major multi-dimensional array; [List.fold_left ( * ) 1 dims =
          Array.length data] *)

exception Type_error of string

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Total order over values. [Null] sorts first; numeric values compare
    numerically across [Int]/[Float]; otherwise values of different
    constructors compare by constructor rank. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Structural hash, consistent with {!equal} (including Int/Float numeric
    equality: [hash (Int 1) = hash (Float 1.)]). *)
val hash : t -> int

(** Hash tables keyed by lists of values: the join and group keys of every
    engine. Keys compare with {!equal}, so [Int 3] and [Float 3.] meet. *)
module Keys : Hashtbl.S with type key = t list

(** [has_null key] holds when a key component is [Null]; such keys never
    match in an equi-join (three-valued equality). *)
val has_null : t list -> bool

(** [set_of_list vs] sorts and dedups [vs], establishing the [Set]
    invariant. *)
val set_of_list : t list -> t

(** {1 Accessors} — raise {!Type_error} on mismatch. *)

val to_bool : t -> bool
val to_int : t -> int

(** [to_float v] accepts [Int] and [Float]. *)
val to_float : t -> float

val to_string_exn : t -> string

(** [field v name] is record field lookup. *)
val field : t -> string -> t

val field_opt : t -> string -> t option

(** [elements v] is the elements of any collection value. *)
val elements : t -> t list

(** [array_get v idxs] is multi-dimensional indexing into an [Array] value. *)
val array_get : t -> int list -> t

(** [typeof v] is the most specific type of [v]. Collections of heterogeneous
    elements get element type [Any]; [Null] has type [Any]. *)
val typeof : t -> Ty.t

(** [conforms v ty] checks [v] against [ty] ([Null] conforms to anything). *)
val conforms : t -> Ty.t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Compact single-line JSON rendering (sets/bags/lists all as JSON arrays;
    arrays as nested JSON arrays by dimension). *)
val to_json : t -> string

(** [fnv64 s] is FNV-1a over the bytes of [s], masked to 62 bits so it is
    a non-negative [Int]. The serving protocol's integrity tag: a request
    carries the tag of its query text, an ok reply the tag of its value's
    {!to_json} text. *)
val fnv64 : string -> int

(** A value's canonical JSON text and that text's {!fnv64} tag. *)
type encoded = { json : string; crc : int }

val encode : t -> encoded
