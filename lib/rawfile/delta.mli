(** Change classification for raw source files.

    Given the {!Fingerprint} of the bytes some derived state was computed
    from, classifies what the file looks like now. [Appended] (old prefix
    byte-identical, size grew) is the repairable case: positional maps,
    semi-indexes and columnar caches over the old prefix remain valid and
    can be {e extended} from the old tail instead of rebuilt. Everything
    else invalidates (paper §2.1). *)

type t =
  | Unchanged
  | Appended of { old_size : int; new_size : int }
      (** the old prefix is unchanged; bytes were appended *)
  | Truncated of { old_size : int; new_size : int }  (** the file shrank *)
  | Rewritten  (** same or larger size, but the old bytes changed *)
  | Vanished  (** the file cannot be read any more *)

(** [classify ~old_fp path] probes the file directly (no {!Io_stats}
    accounting, no buffer load) and returns the verdict with the
    fingerprint it probed ([None] when the file is [Vanished]), so a caller
    pinning the file's current generation need not probe it again. *)
val classify : old_fp:Fingerprint.t -> string -> t * Fingerprint.t option

(** [classify_contents ~old_fp v] classifies the bytes of a buffer view
    against the old fingerprint — for revalidating a freshly loaded
    buffer. *)
val classify_contents : old_fp:Fingerprint.t -> Raw_buffer.view -> t

val describe : t -> string
