open Vida_raw

type entry = { source : Source.t; explicit_schema : bool }

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

let register_csv t ~name ~path ?(delim = ',') ?(header = true) ?schema () =
  let snapshot = File_snapshot.take path in
  let explicit = schema <> None in
  let schema =
    match schema with
    | Some s -> s
    | None -> Infer.csv_schema ~delim ~header (Raw_buffer.of_path path)
  in
  let source =
    { Source.name; format = Source.Csv { delim; header; schema };
      path = Some path; snapshot = Some snapshot }
  in
  add t name { source; explicit_schema = explicit };
  source

let register_json t ~name ~path ?element () =
  let snapshot = File_snapshot.take path in
  let explicit = element <> None in
  let element =
    match element with
    | Some e -> e
    | None -> Infer.json_element (Raw_buffer.of_path path)
  in
  let source =
    { Source.name; format = Source.Json_lines { element }; path = Some path;
      snapshot = Some snapshot }
  in
  add t name { source; explicit_schema = explicit };
  source

let register_xml t ~name ~path ?element () =
  let snapshot = File_snapshot.take path in
  let explicit = element <> None in
  let element =
    match element with
    | Some e -> e
    | None -> Infer.xml_element (Raw_buffer.of_path path)
  in
  let source =
    { Source.name; format = Source.Xml { element }; path = Some path;
      snapshot = Some snapshot }
  in
  add t name { source; explicit_schema = explicit };
  source

let register_binarray t ~name ~path =
  let snapshot = File_snapshot.take path in
  let source =
    { Source.name; format = Source.Binary_array; path = Some path;
      snapshot = Some snapshot }
  in
  add t name { source; explicit_schema = true };
  source

let register_external t ~name ~element ~count ~produce =
  let source =
    { Source.name; format = Source.External { element; count; produce };
      path = None; snapshot = None }
  in
  add t name { source; explicit_schema = true };
  source

let register_inline t ~name value =
  let source =
    { Source.name; format = Source.Inline value; path = None; snapshot = None }
  in
  add t name { source; explicit_schema = true };
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
  List.map (fun s -> (s.Source.name, Source.collection_type s)) (sources t)

let stale_sources t = List.filter Source.stale (sources t)

let refresh t name =
  (* snapshot/inference run outside the lock (they read the file); only
     the table reads and the final replace are guarded *)
  match locked t (fun () -> Hashtbl.find_opt t.table name) with
  | None -> None
  | Some { source; explicit_schema } -> (
    match source.Source.path with
    | None -> Some source
    | Some path ->
      let snapshot = File_snapshot.take path in
      let format =
        match source.Source.format, explicit_schema with
        | Source.Csv { delim; header; _ }, false ->
          Source.Csv
            { delim; header;
              schema = Infer.csv_schema ~delim ~header (Raw_buffer.of_path path)
            }
        | Source.Json_lines _, false ->
          Source.Json_lines { element = Infer.json_element (Raw_buffer.of_path path) }
        | Source.Xml _, false ->
          Source.Xml { element = Infer.xml_element (Raw_buffer.of_path path) }
        | f, _ -> f
      in
      let source = { source with Source.format; snapshot = Some snapshot } in
      locked t (fun () ->
          if Hashtbl.mem t.table name then
            Hashtbl.replace t.table name { source; explicit_schema });
      Some source)
