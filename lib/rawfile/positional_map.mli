(** Positional maps for CSV files (paper §5; NoDB).

    A positional map stores binary positions of fields inside a raw text
    file so later queries navigate directly instead of re-tokenizing. It is
    built {e lazily}: registering a file only scans row boundaries (one
    cheap pass); column positions are recorded as queries touch columns.
    A probe for column [c] seeks to the nearest recorded column [c' <= c]
    and tokenizes only the [c - c'] intervening fields — the partial-map
    behaviour whose cost the optimizer models.

    The map is an auxiliary structure: dropping it at any time only costs
    performance (paper §2.1 invalidation). *)

type t

(** [build ?delim ?header ?domains buf] scans row boundaries (quote-aware)
    and the header line if [header] (default [true]). With [domains > 1]
    and a file above the parallel-bytes floor, the scan is chunked across
    domains (a quote-parity prepass gives each chunk its starting state)
    and the per-chunk boundaries are stitched in file order — the
    resulting map is byte-identical to a sequential build. *)
val build : ?delim:char -> ?header:bool -> ?domains:int -> Raw_buffer.t -> t

val row_count : t -> int

(** [buffer t] is the buffer view the map indexes. *)
val buffer : t -> Raw_buffer.t

(** [rows_within t ~size] is [Some k] when the first [k] rows are exactly
    the rows of the file's first [size] bytes: no row runs across [size]
    and the [k]th ends at a newline before it. [None] when a row
    straddles [size] (that prefix ended mid-row) or none starts before
    it. *)
val rows_within : t -> size:int -> int option
val column_names : t -> string list  (** empty when the file has no header *)

val delim : t -> char

(** [row_bounds t row] is the [(start, stop)] byte range of a data row
    (0-based, excluding the header), newline excluded. *)
val row_bounds : t -> int -> int * int

(** [populate t cols] records positions of [cols] (0-based indices) for all
    rows in one pass. Idempotent per column. *)
val populate : t -> int list -> unit

(** [populated_columns t] is the sorted list of recorded column indices.
    Column 0 is implicitly always available (row starts). *)
val populated_columns : t -> int list

(** [field t ~row ~col] extracts one field's text, navigating via the map.
    Counts an [index_probe] plus the fields actually tokenized.
    @raise Vida_error.Error ([Invalid_request]) if [row] is out of range. *)
val field : t -> row:int -> col:int -> string

(** [fields t ~row ~cols] extracts several columns of one row; [cols] need
    not be sorted. More efficient than repeated [field] for ascending
    runs. *)
val fields : t -> row:int -> cols:int list -> string array

(** [record_while_scanning ?from t ~cols f] streams the rows from [from]
    (default 0) to the last in file order, calling [f row fields] with
    the requested columns, and records their positions as a side effect
    (the NoDB "piggy-backed" build). Fields of populated columns are read
    straight from their recorded offsets, so [~from] over an extended map
    reads only the appended rows' fields. *)
val record_while_scanning :
  ?from:int -> t -> cols:int list -> (int -> string array -> unit) -> unit

(** Approximate memory footprint in bytes, for cache accounting. *)
val footprint : t -> int

(** {1 Incremental repair}

    When a data file grew by append (its old prefix unchanged — see
    {!Delta}), the map over the prefix stays valid and can be extended
    instead of rebuilt. *)

(** [extend t buf] extends a map built over the old prefix of [buf] to
    cover the appended tail: the rescan resumes from the start of the
    last old row (which may have been partial), old rows and their
    populated column offsets carry over verbatim, and only tail rows are
    tokenized. Produces exactly what [build] over [buf] followed by
    [populate] of the same columns would. *)
val extend : t -> Raw_buffer.t -> t

(** structural equality over everything derived (rows, header, populated
    offsets) — the differential oracle for incremental-vs-full tests. *)
val equal_structure : t -> t -> bool

(** {1 Persistence}

    A positional map is pure navigation metadata, so it can outlive the
    process: [save] publishes a sidecar through {!Atomic_sidecar}
    (temp+rename, per-frame CRC32, generation counter) stamped with a
    {!Fingerprint} of the data it was built from; [load] restores it,
    returning [Error (Stale_auxiliary _)] when the sidecar is missing,
    torn/corrupt (in which case it is also quarantined aside), internally
    inconsistent (row/column arrays of different lengths or offsets
    outside the data file), or was built against a different version of
    the data file. Callers treat any [Error] as "rebuild from raw" — the
    paper's §2.1 auxiliary-structure invalidation. *)

val save : t -> path:string -> unit

val load : ?delim:char -> Raw_buffer.t -> path:string -> (t, Vida_error.t) result
