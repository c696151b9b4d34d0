(** Structural semi-index for JSON files (paper §5; Ottaviano & Grossi).

    For a JSON-lines file (one object per line — how ViDa's workload stores
    the BrainRegions hierarchy), the index records each object's byte range
    up front, and lazily records the byte range of each top-level field the
    first time it is requested for an object. A later access to the same
    (object, field) seeks directly and parses only the field's bytes,
    skipping the rest of the object entirely — which is what keeps
    projective queries over deep hierarchies cheap (paper Figure 4's
    "positions" layout carries exactly these ranges). *)

type t

(** [build buf] scans object boundaries (newline-separated values). *)
val build : ?domains:int -> Raw_buffer.t -> t

val object_count : t -> int

(** [buffer t] is the buffer view the index covers. *)
val buffer : t -> Raw_buffer.t

(** [objects_within t ~size] is [Some k] when the first [k] objects are
    exactly the objects of the file's first [size] bytes: the [k]th ends
    at a newline before [size] and no later one starts before it. [None]
    when an object straddles [size] or none starts before it. *)
val objects_within : t -> size:int -> int option

(** [extend t buf] extends an index built over the old prefix of [buf]
    (see {!Delta.Appended}) to cover appended bytes: the rescan resumes
    from the start of the last old object (which may have been a partial
    line), earlier objects and their recorded field tables carry over
    verbatim. Object bounds equal what [build buf] would produce. *)
val extend : t -> Raw_buffer.t -> t

(** [object_bounds t i] is the byte range [(pos, len)] of object [i]. *)
val object_bounds : t -> int -> int * int

(** [object_value t i] parses the whole object (expensive; pollutes no
    cache by itself — callers decide what to retain). *)
val object_value : t -> int -> Vida_data.Value.t

(** [field_bounds t ~obj ~field] is the byte range of a top-level field's
    value, recording the object's field table on first access. [None] when
    the object lacks the field. *)
val field_bounds : t -> obj:int -> field:string -> (int * int) option

(** [field_value t ~obj ~field] parses just the requested field ([Null]
    when absent). *)
val field_value : t -> obj:int -> field:string -> Vida_data.Value.t

(** [field_string t ~obj ~field] is the raw text of the field's value,
    for position-only handling (paper §5 cache-pollution avoidance). *)
val field_string : t -> obj:int -> field:string -> string option

(** Number of objects whose field tables have been recorded so far. *)
val indexed_objects : t -> int

(** Approximate memory footprint in bytes. *)
val footprint : t -> int
