(** Content fingerprints of raw source files.

    Used to detect corruption and staleness before serving derived data:
    positional-map sidecars, cache entries, whole-query results and query
    epochs each record the fingerprint of the file they were computed
    from, and are auto-invalidated (rebuilt from the raw bytes) when the
    file no longer matches instead of returning garbage.

    A fingerprint is the file size plus MD5 digests of the first and last
    4 KiB windows {e and} of one interior 4 KiB window at a size-seeded
    offset (so edits strictly between head and tail are not a guaranteed
    blind spot). The mtime is deliberately not part of it: the stdlib
    exposes no portable stat (Unix is not a dependency of this tree), and
    content digests also catch same-size in-place rewrites that mtime
    granularity can miss. *)

type t = { size : int; head : string; mid : string; tail : string }
(** [head]/[mid]/[tail] are raw 16-byte MD5 digests of the windows. For
    files small enough that head and tail cover every byte, [mid] repeats
    [head]. *)

val window : int
(** window width in bytes (4096). *)

(** [of_contents s] fingerprints in-memory bytes. *)
val of_contents : string -> t

(** [of_sub s ~size] fingerprints the first [size] bytes of [s] — the
    fingerprint a file holding exactly that prefix would have. *)
val of_sub : string -> size:int -> t

(** [of_view v] fingerprints the bytes of one buffer view, in place. *)
val of_view : Raw_buffer.view -> t

(** [of_buffer buf] fingerprints a raw buffer: the three windows are
    digested in place over the loaded bytes (loading them first if
    needed). No copy of the file, no {!Io_stats} accounting. *)
val of_buffer : Raw_buffer.t -> t

(** [probe path] fingerprints a file directly — no {!Io_stats} accounting,
    no buffer load. [None] when the file cannot be read. *)
val probe : string -> t option

(** [probes ()] counts {!probe} calls since the process started — how
    many times revalidation went to a file. *)
val probes : unit -> int

(** [probe_prefix path ~size] fingerprints the first [size] bytes of the
    file at [path] — what {!probe} returned before the file grew, iff the
    prefix is unchanged. [None] when the file is shorter than [size] or
    unreadable. The delta detector uses this to classify appends. *)
val probe_prefix : string -> size:int -> t option

val equal : t -> t -> bool

(** Fixed-width binary form for sidecars and cache tags, version-tagged.
    Bumping the window layout bumps the version: {!decode} returns [None]
    for any older form, which callers treat as stale. *)
val encoded_size : int

val encode : t -> string

(** [decode s ~pos] reads an encoded fingerprint; [None] if out of range
    or not the current encoding version. *)
val decode : string -> pos:int -> t option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
