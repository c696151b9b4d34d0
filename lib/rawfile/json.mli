(** JSON parsing onto the ViDa data model.

    Objects become [Record]s (field order preserved), arrays become [List]s,
    integers stay [Int] when exactly representable. The parser is
    substring-addressable so the semi-index ({!Semi_index}) can parse only
    the byte range of a requested field.

    Malformed input raises {!Vida_error.Parse_error} carrying [source]
    (default ["json"]) and the byte offset; nesting deeper than
    {!Vida_error.Limits} allows raises [Resource_limit] instead of
    overflowing the stack. *)

(** [parse s] parses the full string.
    @raise Vida_error.Error with a byte position on malformed input. *)
val parse : ?source:string -> string -> Vida_data.Value.t

(** [parse_substring s ~pos ~len] parses one JSON value occupying exactly
    [s.[pos .. pos+len)] (surrounding whitespace tolerated). The parser
    counts nothing: raw-data callers ({!Semi_index}) charge
    {!Io_stats.add_objects_parsed}, so protocol frames are not raw access. *)
val parse_substring : ?source:string -> string -> pos:int -> len:int -> Vida_data.Value.t

(** [skip_value s pos] returns the offset just past the JSON value starting
    at [pos] without building it — structural navigation only. *)
val skip_value : ?source:string -> string -> int -> int

(** [scan_fields s ~pos ~len] scans an object's top level, returning each
    field's name and the byte range of its value — the structural
    information a semi-index records. Does not build values.
    @raise Vida_error.Error if the range does not hold an object. *)
val scan_fields :
  ?source:string -> string -> pos:int -> len:int -> (string * (int * int)) list
