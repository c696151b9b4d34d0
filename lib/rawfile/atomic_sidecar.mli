(** Crash-safe sidecar persistence.

    One writer for every sidecar/cache file: contents are assembled in
    full, written to a temp file and renamed over the destination, so a
    reader never sees a partial write. Because the data blocks are not
    fsynced, a crash after rename can still leave a torn file — the frame
    format (per-frame CRC32, CRC-protected header with a generation
    counter, bounds-checked lengths) makes {!read} detect that and report
    [Bad], and the caller {!quarantine}s and rebuilds from the raw file.
    Sidecars are disposable accelerators: losing one costs time, never
    answers. *)

(** [write ~path ~magic ?generation frames] atomically publishes [frames]
    under [path]. The generation defaults to one more than the current
    sidecar's (or 1); the generation written is returned. Under a
    [Sidecar_tear] fault ({!Fault_plan}) the published file may be
    deterministically torn.
    An OS failure anywhere on the write path — disk full, fd exhaustion,
    an injected {!Fault_plan} fault — removes the temp file and raises a typed
    [Vida_error.State_failure] (kind ["state"], exit 80), never an
    untyped [Sys_error]. *)
val write : path:string -> magic:string -> ?generation:int -> string list -> int

(** [publish ?op ~path contents] writes [contents] to a temp file beside
    [path] and renames it over [path], with the same failure discipline
    as {!write}: the [State_failure] names [op] (default: the failing
    step, ["open"], ["write"] or ["rename"]). *)
val publish : ?op:string -> path:string -> string -> unit

type read_result =
  | Sidecar of { generation : int; frames : string list }
  | No_sidecar  (** no file at that path *)
  | Bad of string  (** torn / corrupt; reason for diagnostics *)

val read : path:string -> magic:string -> read_result

(** [quarantine path] moves a corrupt sidecar aside (to [path ^
    ".corrupt"], returned) so it is diagnosable but never re-read; falls
    back to deleting it. *)
val quarantine : string -> string option

(** CRC32 (IEEE) of a whole string — exposed for tests. *)
val crc32_string : string -> int
