(** Schema inference for partially-described raw sources.

    ViDa supports formats with unknown a-priori schemas through schema
    learning (paper §3.1, citing LearnPADS). This module implements the CSV
    case: sample the first [sample] data rows and pick, per column, the
    narrowest scalar type every sampled value converts to (Int ⊂ Float;
    anything ⊂ String), treating empty/NULL/NA as wildcards. JSON element
    types are learned by unifying sampled objects' types.

    CSV and JSON-lines inference read only a newline-cut prefix of the
    file holding more than [sample] complete records
    ({!Vida_raw.Raw_buffer.prefix}), never the whole file; the result is
    the same as sampling the whole file. XML inference indexes the whole
    document.

    CSV and JSON-lines inference also report where the sample ended: the
    byte offset just past the last sampled record (the header counts as a
    CSV record), or [None] when the file ran out before the sample was
    complete. A file that only grew past that offset yields the same
    inference, so the catalog keeps it across such an append. *)

(** [csv_schema ?delim ?header ?sample buf] infers an attribute schema,
    with where its sample ended. Columns of a headerless file are named
    [c0, c1, ...]. *)
val csv_schema :
  ?delim:char -> ?header:bool -> ?sample:int -> Vida_raw.Raw_buffer.t ->
  Vida_data.Schema.t * int option

(** [json_element ?sample buf] infers the element type of a JSON-lines
    file by unifying the types of sampled objects ([Any] on conflict),
    with where its sample ended. *)
val json_element : ?sample:int -> Vida_raw.Raw_buffer.t -> Vida_data.Ty.t * int option

(** [xml_element ?sample buf] — likewise for the root's child elements of
    an XML document. *)
val xml_element : ?sample:int -> Vida_raw.Raw_buffer.t -> Vida_data.Ty.t
