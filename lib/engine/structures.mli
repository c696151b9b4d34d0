(** Per-source auxiliary structure registry.

    Holds the lazily-built raw-file structures — raw buffers, positional
    maps, semi-indexes, binary-array handles — shared by every query of a
    session. Invalidation drops a source's structures (paper §2.1: updates
    to underlying files result in dropping the affected auxiliary
    structures). *)

type t

val create : unit -> t

(** Each accessor builds the structure on first request (registering the
    build cost with {!Vida_raw.Io_stats}) and memoizes it.
    @raise Vida_error.Error ([Invalid_request]) when the source's format
    does not match. *)
val buffer : t -> Vida_catalog.Source.t -> Vida_raw.Raw_buffer.t

(** [posmap]/[semi_index] additionally accept [?domains]: a cold build of
    the structure is chunked across that many domains (see
    {!Vida_raw.Positional_map.build}); a sidecar restore or memo hit
    ignores it. *)
val posmap : ?domains:int -> t -> Vida_catalog.Source.t -> Vida_raw.Positional_map.t

val semi_index : ?domains:int -> t -> Vida_catalog.Source.t -> Vida_raw.Semi_index.t
val xml_index : t -> Vida_catalog.Source.t -> Vida_raw.Xml_index.t
val binarray : t -> Vida_catalog.Source.t -> Vida_raw.Binarray.t

(** [checkpoint_posmap t source] persists a built positional map to the
    source's sidecar file ([<data path>.vidx], or the state directory's
    [structures/] when one is set); the next session restores it without
    re-scanning, as long as the data file is unchanged. Returns false
    when no map has been built.
    @raise Vida_error.Error ([State_failure]) on an OS write failure. *)
val checkpoint_posmap : t -> Vida_catalog.Source.t -> bool

(** {1 State-directory integration} *)

(** [set_sidecar_dir t dir] routes all sidecar IO (restore and
    checkpoint) to [dir/<md5(data path)>.vidx] instead of beside the
    data — read-only data directories still get warm restarts. Set
    before the first structure build. *)
val set_sidecar_dir : t -> string -> unit

(** [sidecar_digest source] is the filename stem a state directory keys
    this source's sidecar under. *)
val sidecar_digest : Vida_catalog.Source.t -> string

(** positional maps restored from a sidecar / built from raw since
    {!create} — the warm-boot reuse proof reads these. *)
val warm_restores : t -> int

val rebuilds : t -> int

(** [peek_buffer]/[peek_posmap]/[peek_semi_index]/[peek_xml_index] return an already-built
    structure without building one — cost estimation and change detection
    must not trigger file scans. *)
val peek_buffer : t -> string -> Vida_raw.Raw_buffer.t option

val peek_posmap : t -> string -> Vida_raw.Positional_map.t option

val peek_semi_index : t -> string -> Vida_raw.Semi_index.t option

val peek_xml_index : t -> string -> Vida_raw.Xml_index.t option

(** {1 Append-aware incremental repair} *)

type repair = {
  new_buffer : Vida_raw.Raw_buffer.t;
  csv : (Vida_raw.Positional_map.t * int) option;
      (** extended map, old row count *)
  json : (Vida_raw.Semi_index.t * int) option;
      (** extended index, old object count *)
  xml : (Vida_raw.Xml_index.t * int * bool) option;
      (** extended index, old element count, [true] when a new repeated
          tag appeared among appended elements (the normalized shape of
          old elements changed — element-derived caches must be dropped) *)
}

(** [repair_appended t source ~old_fp ~probed] reacts to [source]'s file
    having grown by append ({!Vida_raw.Delta.Appended}) from the loaded
    generation [old_fp] to the probed generation [probed]. The memoized
    buffer is replaced by one holding the old bytes plus only the
    appended range [\[old_fp.size, probed.size)], kept when its
    fingerprint equals [probed]; otherwise the whole file is loaded, as
    long as it still extends the old bytes. Either way one file load is
    counted. Every built structure is then {e extended} from the old tail
    instead of rebuilt ({!Vida_raw.Positional_map.extend} and friends);
    binary-array handles are dropped (re-opening is a header parse).
    Nothing is mutated in place: readers of an older generation keep its
    buffer and structures. Returns the new buffer plus old item counts so
    the engine can extend cached columns as well, or [None] (nothing
    replaced) when the file no longer extends the old bytes. Caller is
    responsible for having classified the change as an append. *)
val repair_appended :
  t -> Vida_catalog.Source.t -> old_fp:Vida_raw.Fingerprint.t ->
  probed:Vida_raw.Fingerprint.t -> repair option

(** [invalidate t name] drops every structure of source [name]. *)
val invalidate : t -> string -> unit

(** [footprint t] is the approximate memory held by index structures. *)
val footprint : t -> int
