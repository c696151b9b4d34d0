(** In-memory view of a raw file.

    ViDa never loads raw files into database structures, but repeated
    positional accesses go through the OS page cache; this module plays that
    role: the file's bytes are brought into memory lazily on first access
    and shared by every reader. [slice] is the only way data leaves the
    buffer, and it feeds {!Io_stats.add_bytes_read} so experiments can
    observe raw-access volume.

    All failures are structured: an unreadable file raises
    {!Vida_error.Io_failure} and an out-of-range access raises
    {!Vida_error.Truncated} — never a bare [Sys_error] or
    [Invalid_argument]. *)

type t

(** One generation of the file's bytes: [data] holds them at
    [[0, len)]. [data] may be longer than [len] — later generations of a
    file that grew by append share it — and every byte past [len] is
    either a later generation's or {!poison}: take bounds from [len],
    never from [String.length data]. *)
type view = private { data : string; len : int }

(** The byte that fills spare capacity: not a delimiter, quote, newline
    or digit, so a reader that runs past its view changes an answer. *)
val poison : char

(** [view_of_string s] is the view of all of [s]. *)
val view_of_string : string -> view

(** [of_path path] creates a lazy view; the file is read on first access.
    A load under an ambient {!Epoch} with a pin for [path] validates the
    bytes against the pin and raises [Source_changed] on mismatch — a
    mid-query (re)load can never hand the query a newer generation.
    @raise Vida_error.Error ([Io_failure]) at access time if the file
    cannot be read. *)
val of_path : string -> t

(** [of_string ~source contents] wraps in-memory bytes as a buffer (fault
    injection, tests). [source] is the name reported in errors and by
    [path]. [invalidate] is a no-op for such buffers. *)
val of_string : source:string -> string -> t

val path : t -> string
val length : t -> int

(** [contents t] is the whole file as a view (faulted in on first use).
    Scan loops use it to hoist bounds checks: validate a range against
    [len] once, then read [data] with [String.unsafe_get]. Does not count
    toward [bytes_read].
    @raise Vida_error.Error ([Io_failure]) if the file cannot be read. *)
val contents : t -> view

(** [prefix t ~enough] is an in-memory buffer over the first bytes of the
    file, for samplers that need only its head (schema inference). The
    prefix grows from 64 KiB by doubling and is cut at its last newline;
    it stops at the first cut for which [enough] holds, or at EOF (then it
    is the whole file, trailing partial line included). The read goes
    through the same governed path as a load (fault hook, breaker,
    retries, typed [Io_failure]) but not through epoch validation, and
    counts no file load. A buffer whose bytes are already in memory is
    returned as it is.
    @raise Vida_error.Error ([Io_failure]) if the file cannot be read. *)
val prefix : t -> enough:(string -> bool) -> t

(** [extend t ~size ~accept] is a new buffer over the first [size]
    bytes of [t]'s file, built from [t]'s loaded bytes and a read of only
    the bytes past them: what a load would return if the file grew by
    append to [size] bytes. The read lands in spare capacity past [t]'s
    view when no other extension claimed it first, so no old byte is
    copied; otherwise (or when the capacity is short) the new buffer gets
    a fresh store with room for later appends. [t]'s view is not touched.
    It counts one file load and goes through a load's governed path and
    epoch validation. [None] when [t] is not a loaded file buffer, the
    file is shorter than [size], or [accept] refuses the new view (the
    caller checks it against the file's fingerprint: bytes below the old
    length are not re-read); a claimed tail is then given back.
    @raise Vida_error.Error ([Io_failure]) if the file cannot be read. *)
val extend : t -> size:int -> accept:(view -> bool) -> t option

(** [slice t ~pos ~len] copies bytes out of the view. Counts toward
    [bytes_read].
    @raise Vida_error.Error ([Truncated]) if out of range. *)
val slice : t -> pos:int -> len:int -> string

(** [char_at t pos] peeks one byte without copying (no stats).
    @raise Vida_error.Error ([Truncated]) if out of range. *)
val char_at : t -> int -> char

(** [index_from t pos c] is the offset of the next [c] at or after [pos],
    or [None]. *)
val index_from : t -> int -> char -> int option

(** [loaded t] tells whether the file has been faulted in yet. *)
val loaded : t -> bool

(** [invalidate t] drops the cached bytes (next access reloads; no-op for
    in-memory buffers). *)
val invalidate : t -> unit

(**/**)

(** Load-time validation hook, installed by {!Epoch} at module init (a
    direct dependency would be a cycle through {!Fingerprint}). Not for
    application use. *)
val validate_load : (source:string -> view -> unit) ref
