open Vida_raw

type entry = {
  source : Source.t;
  explicit_schema : bool;
  sample_end : int option;
      (* where the inference sample ended ({!Infer.csv_schema}); an append
         at or beyond it cannot change the inferred format *)
  ty : Vida_data.Ty.t;
      (* the source's collection type, built once when the entry is added
         or replaced: every query's type environment reads it *)
}

let entry ~explicit_schema ~sample_end source =
  { source; explicit_schema; sample_end; ty = Source.collection_type source }

(* registration/lookup race under concurrent sessions: one mutex guards
   the table and the insertion order together *)
type t = {
  table : (string, entry) Hashtbl.t;
  mutable order : string list;
  lock : Vida_sync.Lock.t;
}

let create () =
  { table = Hashtbl.create 16; order = [];
    lock = Vida_sync.Lock.create ~rank:40 ~name:"catalog.registry" () }

let locked t f = Vida_sync.Lock.protect t.lock f

let add t name entry =
  locked t (fun () ->
      if Hashtbl.mem t.table name then
        invalid_arg (Printf.sprintf "Registry: source %S already registered" name);
      Hashtbl.replace t.table name entry;
      t.order <- t.order @ [ name ])

(* The format inferred from the file at [path], with where its sample
   ended; formats without inference come back as they are. *)
let infer path (format : Source.format) =
  match format with
  | Source.Csv { delim; header; _ } ->
    let schema, sample_end = Infer.csv_schema ~delim ~header (Raw_buffer.of_path path) in
    (Source.Csv { delim; header; schema }, sample_end)
  | Source.Json_lines _ ->
    let element, sample_end = Infer.json_element (Raw_buffer.of_path path) in
    (Source.Json_lines { element }, sample_end)
  | Source.Xml _ -> (Source.Xml { element = Infer.xml_element (Raw_buffer.of_path path) }, None)
  | f -> (f, None)

let register_file t ~name ~path ~explicit format =
  let snapshot = File_snapshot.take path in
  let format, sample_end = if explicit then (format, None) else infer path format in
  let source =
    { Source.name; format; path = Some path; snapshot = Some snapshot }
  in
  add t name (entry ~explicit_schema:explicit ~sample_end source);
  source

let register_csv t ~name ~path ?(delim = ',') ?(header = true) ?schema () =
  register_file t ~name ~path ~explicit:(schema <> None)
    (Source.Csv
       { delim; header; schema = Option.value schema ~default:(Vida_data.Schema.of_pairs []) })

let register_json t ~name ~path ?element () =
  register_file t ~name ~path ~explicit:(element <> None)
    (Source.Json_lines { element = Option.value element ~default:Vida_data.Ty.Any })

let register_xml t ~name ~path ?element () =
  register_file t ~name ~path ~explicit:(element <> None)
    (Source.Xml { element = Option.value element ~default:Vida_data.Ty.Any })

let register_binarray t ~name ~path =
  register_file t ~name ~path ~explicit:true Source.Binary_array

let register_external t ~name ~element ~count ~produce =
  let source =
    { Source.name; format = Source.External { element; count; produce };
      path = None; snapshot = None }
  in
  add t name (entry ~explicit_schema:true ~sample_end:None source);
  source

let register_inline t ~name value =
  let source =
    { Source.name; format = Source.Inline value; path = None; snapshot = None }
  in
  add t name (entry ~explicit_schema:true ~sample_end:None source);
  source

let find t name =
  locked t (fun () ->
      Option.map (fun e -> e.source) (Hashtbl.find_opt t.table name))

let mem t name = locked t (fun () -> Hashtbl.mem t.table name)
let names t = locked t (fun () -> t.order)

let sources t =
  locked t (fun () ->
      List.filter_map
        (fun n -> Option.map (fun e -> e.source) (Hashtbl.find_opt t.table n))
        t.order)

let unregister t name =
  locked t (fun () ->
      Hashtbl.remove t.table name;
      t.order <- List.filter (fun n -> not (String.equal n name)) t.order)

let type_env t =
  locked t (fun () ->
      List.filter_map
        (fun n -> Option.map (fun e -> (n, e.ty)) (Hashtbl.find_opt t.table n))
        t.order)

let stale_sources t = List.filter Source.stale (sources t)

let refresh ?delta ?probed t name =
  (* snapshot/inference run outside the lock (they read the file); only
     the table reads and the final replace are guarded *)
  match locked t (fun () -> Hashtbl.find_opt t.table name) with
  | None -> None
  | Some ({ source; explicit_schema; sample_end; ty } as old) -> (
    match source.Source.path with
    | None -> Some source
    | Some path ->
      let snapshot =
        match probed with
        | Some fp -> File_snapshot.of_fingerprint path fp
        | None -> File_snapshot.take path
      in
      (* the delta classifier showed the bytes below [old_size] unchanged:
         a sample that ended there infers what it inferred before *)
      let sample_kept =
        match delta, sample_end with
        | Some (Delta.Appended { old_size; _ }), Some stop -> old_size >= stop
        | _ -> false
      in
      let format, sample_end =
        if explicit_schema || sample_kept then (source.Source.format, sample_end)
        else infer path source.Source.format
      in
      (* a kept format keeps its type; a re-inferred one is typed anew *)
      let ty =
        if format == source.Source.format then ty
        else Source.collection_type { source with Source.format }
      in
      let source = { source with Source.format; snapshot = Some snapshot } in
      locked t (fun () ->
          if Hashtbl.mem t.table name then
            Hashtbl.replace t.table name { old with source; sample_end; ty });
      Some source)
