(** Structural index for XML collections.

    Records the byte range of each child element of the document's root —
    the XML analogue of {!Semi_index} for JSON lines. Field extraction
    parses one element's bytes only (XML's nesting makes per-field byte
    ranges less useful than JSON's, so the element is the access unit).

    Shape normalization: XML cannot distinguish "one visit" from "a list of
    one visit", so building the index makes one eager pass to find tags
    that repeat within any element; those tags are presented as lists in
    {e every} element (absent → [[]], single → a one-element list), giving
    the collection a uniform element type. *)

type t

(** [build buf] scans child-element boundaries tolerantly: a malformed
    element is skipped (recorded in {!bad_spans}) rather than failing the
    whole file. *)
val build : Raw_buffer.t -> t

val element_count : t -> int
val element_bounds : t -> int -> int * int
val element_value : t -> int -> Vida_data.Value.t

(** [extend t buf] extends an index built over the old prefix of [buf]
    (see {!Delta.Appended}). A closed document ([</root>] seen) ignores
    appended bytes exactly as a full rescan would; an unclosed streaming
    document resumes the tolerant child scan where it stopped. The
    returned flag is [true] when a {e new} repeated tag appeared among
    appended elements — the normalized shape of old elements then changes
    and callers must drop element-derived caches. *)
val extend : t -> Raw_buffer.t -> t * bool

(** [buffer t] is the buffer view the index covers. *)
val buffer : t -> Raw_buffer.t

(** [elements_within t ~size] is [Some k] when the first [k] elements are
    exactly the elements of the file's first [size] bytes, normalized as
    they were then: each ends before [size], no element or bad span runs
    across it, and no tag became a list after it. [None] otherwise. *)
val elements_within : t -> size:int -> int option

(** structural equality of everything derived (bounds, bad spans, list
    tags) — the differential oracle for incremental-vs-full tests. *)
val equal_structure : t -> t -> bool

(** Raw spans [(pos, len, reason)] of malformed elements skipped during
    {!build} — the cleaning layer quarantines these. *)
val bad_spans : t -> (int * int * string) list

(** [field_value t ~elem ~field] — [Null] when the element lacks the
    field. *)
val field_value : t -> elem:int -> field:string -> Vida_data.Value.t

val footprint : t -> int
