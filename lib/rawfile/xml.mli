(** XML parsing onto the ViDa data model (paper Figure 2 lists XML among
    the virtualized formats).

    Data-oriented mapping: an element becomes a [Record] holding its
    attributes (values sniffed to scalars) and its child elements — a tag
    appearing once maps to a field with the child's value, a repeated tag
    to a field holding the [List] of values; an element with only text
    becomes the sniffed scalar itself; mixed content keeps its text under
    ["#text"]. Comments, processing instructions and the prolog are
    skipped; the predefined entities are decoded.

    {v
    <patient id="7"><name>ada</name><visit y="2010"/><visit y="2012"/></patient>
    ==>  <id := 7, name := "ada", visit := [<y := 2010>, <y := 2012>]>
    v}

    Malformed input raises {!Vida_error.Parse_error} with [source] (default
    ["xml"]) and a byte offset; over-deep nesting raises [Resource_limit]. *)

(** [parse_element s pos] parses one element starting at (or after
    whitespace from) [pos]; returns its value and the offset past it. *)
val parse_element : ?source:string -> string -> int -> Vida_data.Value.t * int

(** [parse_document s] parses a whole document (prolog allowed) to the root
    element's value. *)
val parse_document : ?source:string -> string -> Vida_data.Value.t

(** [skip_element s pos] returns the offset just past the element starting
    at [pos] without building it. *)
val skip_element : ?source:string -> string -> int -> int

(** [children_bounds s] finds the root element and returns the byte range
    [(pos, len)] of each of its child elements — the structural index for
    XML collections ("record elements under a root"). *)
val children_bounds : ?source:string -> string -> (int * int) list

(** [children_bounds_tolerant s] is {!children_bounds} with record-level
    recovery: a malformed child element is skipped (the scan resyncs at the
    next plausible element start) and reported as a bad span
    [(pos, len, reason)] instead of aborting the whole file. *)
val children_bounds_tolerant :
  ?source:string -> string -> (int * int) list * (int * int * string) list

(** Richer result of the tolerant scan, enough to {e resume} it after the
    file grew by append (see {!Xml_index}): where the scan stopped, and
    whether it stopped because the root element was closed (bytes after
    [</root>] are ignored, so a closed document cannot be extended — which
    matches what a full rescan would do). *)
type tolerant_scan = {
  scan_bounds : (int * int) list;
  scan_bad : (int * int * string) list;
  scan_root : string option;  (** [None] when the root itself failed to parse *)
  scan_stop : int;  (** byte offset where the child scan stopped *)
  scan_closed : bool;  (** the scan ended at the root's closing tag *)
}

(** [children_bounds_scan ?len s] is the tolerant scan over [s]'s first
    [len] bytes (default: all of [s]); nothing at or past [len] is read. *)
val children_bounds_scan : ?source:string -> ?len:int -> string -> tolerant_scan

(** [children_bounds_resume ~root ~from s] continues the child scan of a
    document rooted at [root] from byte [from] — the same loop the full
    scan runs, so resumed and full scans cannot diverge. [len] bounds it as
    in {!children_bounds_scan}. *)
val children_bounds_resume :
  ?source:string -> ?len:int -> root:string -> from:int -> string -> tolerant_scan
