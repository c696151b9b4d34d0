(** Snapshot-consistent query epochs.

    A governed query pins the {!Fingerprint} of every raw source it
    references at start. Everything served to the query is validated
    against those pins — buffer loads ({!validate_contents}), cache hits
    (fingerprint stamps), and long scan loops ({!check}, a stride-counted
    on-disk probe). A detected change raises
    {!Vida_error.Source_changed}; the governor's change policy decides
    whether to re-pin and retry. The current epoch is ambient
    (domain-local, like the governor session); {!Morsel} workers
    re-install it so parallel scans revalidate too. *)

type t

val create : unit -> t

(** [pin e ~source ?path fp] records [fp] as the generation of [source]
    this epoch runs against (replacing any previous pin). [path] is the
    filesystem path re-probed by {!check} (default: [source] itself) — a
    source is typically pinned twice, under its registry name and under
    its backing path, both carrying the same path and fingerprint. *)
val pin : t -> source:string -> ?path:string -> Fingerprint.t -> unit

val find : t -> string -> Fingerprint.t option
val pins : t -> (string * Fingerprint.t) list

(** number of on-disk probes this epoch actually performed. *)
val probes : t -> int

(** {1 Ambient epoch} *)

(** [with_epoch e f] runs [f] with [e] as the domain's current epoch,
    restoring the previous one afterwards (exception-safe). *)
val with_epoch : t -> (unit -> 'a) -> 'a

val current : unit -> t option

(** pin for [source] in the ambient epoch, if any. *)
val pinned : string -> Fingerprint.t option

(** {1 Revalidation} *)

(** [validate_contents ~source v] checks the freshly loaded bytes of view
    [v] against the ambient pin for [source]; raises [Source_changed] on
    mismatch. No-op without an ambient epoch or pin. *)
val validate_contents : source:string -> Raw_buffer.view -> unit

(** [check ~source ()] is the cheap per-item tick for scan loops: every
    [stride]-th call per epoch re-probes the pinned file on disk and
    raises [Source_changed] if it drifted from the pin. No-op without an
    ambient pin for [source]. *)
val check : source:string -> unit -> unit

(** [revalidate ~source ()] probes immediately, ignoring the stride. *)
val revalidate : source:string -> unit -> unit

(** stride for {!check} (global; default 4096). Tests set it to 1 to make
    every tick probe. *)
val set_check_stride : int -> unit

val reset_check_stride : unit -> unit
