(** File identity snapshots for invalidation.

    ViDa handles in-place updates by dropping the auxiliary structures of
    files that changed (paper §2.1). A snapshot records the file's
    {!Fingerprint} at registration; [stale] compares it against the file
    now. A caller that has just probed the file compares that probe with
    {!matches} instead, at no further IO. *)

type t

(** @raise Sys_error if the file cannot be read. *)
val take : string -> t

(** [of_fingerprint path fp] is the snapshot a {!take} probing [fp] would
    return — for callers that already hold a fresh probe. *)
val of_fingerprint : string -> Fingerprint.t -> t

val path : t -> string
val size : t -> int

(** [matches t fp] is true when [fp] is the snapshot's fingerprint. *)
val matches : t -> Fingerprint.t -> bool

(** [stale t] is true when the file's content fingerprint differs from
    the snapshot, or the file disappeared. One {!Fingerprint.probe}. *)
val stale : t -> bool

val pp : Format.formatter -> t -> unit
