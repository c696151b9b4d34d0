(** The catalog: named source registry.

    Datasets are registered once per session; queries reference them by
    name. Registration is cheap (a snapshot plus, for CSV/JSON, an optional
    schema-inference sample) — no data is loaded, per the NoDB philosophy. *)

type t

val create : unit -> t

(** [register_csv t ~name ~path] registers a CSV file. The schema is
    inferred from a sample unless given.
    @raise Invalid_argument if [name] is taken.
    @raise Sys_error if [path] is unreadable. *)
val register_csv :
  t -> name:string -> path:string -> ?delim:char -> ?header:bool ->
  ?schema:Vida_data.Schema.t -> unit -> Source.t

(** [register_json t ~name ~path] registers a JSON-lines file; the element
    type is inferred from a sample unless given. *)
val register_json :
  t -> name:string -> path:string -> ?element:Vida_data.Ty.t -> unit -> Source.t

(** [register_xml t ~name ~path] registers an XML document whose root's
    child elements form the collection. *)
val register_xml :
  t -> name:string -> path:string -> ?element:Vida_data.Ty.t -> unit -> Source.t

val register_binarray : t -> name:string -> path:string -> Source.t

(** [register_inline t ~name value] registers an in-memory collection. *)
val register_inline : t -> name:string -> Vida_data.Value.t -> Source.t

(** [register_external t ~name ~element ~count ~produce] wraps a foreign
    system (a loaded DBMS, a service, ...) as a queryable source; the
    paper's Figure 2 places existing DBMSs under the virtualization
    layer. *)
val register_external :
  t -> name:string -> element:Vida_data.Ty.t -> count:(unit -> int) ->
  produce:((Vida_data.Value.t -> unit) -> unit) -> Source.t

val find : t -> string -> Source.t option
val mem : t -> string -> bool
val names : t -> string list
val sources : t -> Source.t list

(** [unregister t name] removes a source (no-op when absent). *)
val unregister : t -> string -> unit

(** [type_env t] is the variable typing queries are checked against. *)
val type_env : t -> (string * Vida_data.Ty.t) list

(** [stale_sources t] lists sources whose backing file changed. *)
val stale_sources : t -> Source.t list

(** [refresh ?delta ?probed t name] re-snapshots a stale source, with
    the schema re-inferred for CSV/JSON/XML registered without one.
    Returns the new source, or [None] when the name is unknown.

    [probed] is a fingerprint of the file just taken by the caller; the
    new snapshot is built from it instead of probing again. When [delta]
    is an {!Vida_raw.Delta.Appended} verdict whose [old_size] is at or
    beyond where the inference sample ended, the inferred format is kept:
    the sampled bytes are unchanged. Small files, XML (its inference
    indexes the whole document) and every other change re-infer. *)
val refresh :
  ?delta:Vida_raw.Delta.t -> ?probed:Vida_raw.Fingerprint.t -> t -> string ->
  Source.t option
