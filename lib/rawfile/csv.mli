(** CSV tokenization, typed conversion, and writing.

    The tokenizer works on byte offsets so the positional map
    ({!Positional_map}) can record field positions and later resume
    tokenization mid-row. Quoting follows RFC 4180: fields may be wrapped in
    double quotes, with [""] escaping a quote; delimiters and newlines
    inside quotes are data. *)

(** {2 Field navigation}

    Every entry point works on the file's contents as one string (hoisted
    once by the caller from {!Raw_buffer.contents}) and takes the offset
    [pos] of a field start within a row ending at [row_end]; [row_end] is
    clamped to the string length.

    [next_pos] convention: each call returns the offset where the next
    field starts, or a value strictly greater than [row_end] when the row
    is exhausted (navigation past the end stays past the end).

    Counting rule: [fields_tokenized] is charged once per field an entry
    point is asked to cross, whether or not the row runs out first;
    {!walk_fields} charges nothing and reports the fields it actually
    visited instead, so its callers charge once per walk. *)

(** [field_bounds_str ~delim s ~row_end pos] scans one field, returning
    [(content_start, content_stop, next_pos)] — content bounds exclude the
    quotes of a quoted field. Counts one field. *)
val field_bounds_str :
  delim:char -> string -> row_end:int -> int -> int * int * int

(** [walk_fields ~delim s ~row_end ~visited pos n] crosses up to [n]
    fields from [pos] and returns the [next_pos] reached — the same offset
    [n] applications of {!field_bounds_str} produce — without allocating
    or counting. It stops early when the row is exhausted and adds the
    fields it crossed before that to [visited]. *)
val walk_fields :
  delim:char -> string -> row_end:int -> visited:int ref -> int -> int -> int

(** [skip_fields_str ~delim s ~row_end pos n] is {!walk_fields} charged
    [n] fields. *)
val skip_fields_str : delim:char -> string -> row_end:int -> int -> int -> int

(** [field_content_str ~delim s ~row_end pos] extracts the (unescaped)
    content of the field at [pos] and its [next_pos]. Counts one field and
    the content's bytes. *)
val field_content_str :
  delim:char -> string -> row_end:int -> int -> string * int

(** [split_line ~delim line] tokenizes a standalone string (header parsing,
    tests). *)
val split_line : delim:char -> string -> string list

(** [convert ty s] converts CSV field text to a typed value. The empty
    string, ["NULL"] and ["NA"] convert to [Null] for every type.
    @raise Vida_data.Value.Type_error on malformed input. *)
val convert : Vida_data.Ty.t -> string -> Vida_data.Value.t

(** [escape_field ~delim s] quotes [s] if it contains the delimiter, a
    quote, or a newline. *)
val escape_field : delim:char -> string -> string

(** [write_header oc ~delim names] / [write_row oc ~delim fields] append one
    line. Callers render values with {!render_value}. *)
val write_header : out_channel -> delim:char -> string list -> unit

val write_row : out_channel -> delim:char -> string list -> unit

(** [render_value v] is the CSV text of a scalar value ([Null] → empty). *)
val render_value : Vida_data.Value.t -> string
