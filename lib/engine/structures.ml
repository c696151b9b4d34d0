open Vida_raw
open Vida_catalog

type t = {
  buffers : (string, Raw_buffer.t) Hashtbl.t;
  posmaps : (string, Positional_map.t) Hashtbl.t;
  semi_indexes : (string, Semi_index.t) Hashtbl.t;
  xml_indexes : (string, Xml_index.t) Hashtbl.t;
  binarrays : (string, Binarray.t) Hashtbl.t;
  (* one mutex over all memo tables: concurrent sessions must never
     observe a half-built structure or build the same one twice. Builds
     run under the lock — second-comers wait and reuse, and structure
     builds parallelize internally via morsels, so serializing distinct
     builds costs little next to returning a torn index *)
  lock : Vida_sync.Lock.t;
  (* sidecars normally live next to the data ([<path>.vidx]); a state
     directory centralizes them under [DIR/structures/<md5(path)>.vidx]
     so read-only data directories still get warm restarts *)
  mutable sidecar_dir : string option;
  mutable warm_restores : int;  (* posmaps restored from a sidecar *)
  mutable rebuilds : int;  (* posmaps built from the raw file *)
}

let create () =
  { buffers = Hashtbl.create 8; posmaps = Hashtbl.create 8;
    semi_indexes = Hashtbl.create 8; xml_indexes = Hashtbl.create 8;
    binarrays = Hashtbl.create 8;
    lock = Vida_sync.Lock.create ~rank:50 ~name:"engine.structures" ();
    sidecar_dir = None; warm_restores = 0; rebuilds = 0 }

let locked t f = Vida_sync.Lock.protect t.lock f

let source_path (source : Source.t) =
  match source.Source.path with
  | Some p -> p
  | None ->
    Vida_error.invalid_request ~source:source.Source.name
      "Structures: source %S has no backing file" source.Source.name

let memo t table key f =
  locked t (fun () ->
      match Hashtbl.find_opt table key with
      | Some v -> v
      | None ->
        let v = f () in
        Hashtbl.replace table key v;
        v)

(* variant for callers already holding [t.lock] — a checked contract:
   the sanitizer flags any call from a thread not holding the lock *)
let memo_unlocked t table key f =
  Vida_sync.Lock.assert_held t.lock;
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.replace table key v;
    v

let buffer_unlocked t source =
  memo_unlocked t t.buffers source.Source.name (fun () ->
      Raw_buffer.of_path (source_path source))

let buffer t source =
  memo t t.buffers source.Source.name (fun () ->
      Raw_buffer.of_path (source_path source))

let sidecar_digest source = Digest.to_hex (Digest.string (source_path source))

let sidecar_path t source =
  match t.sidecar_dir with
  | None -> source_path source ^ ".vidx"
  | Some dir -> Filename.concat dir (sidecar_digest source ^ ".vidx")

let set_sidecar_dir t dir = locked t (fun () -> t.sidecar_dir <- Some dir)
let warm_restores t = locked t (fun () -> t.warm_restores)
let rebuilds t = locked t (fun () -> t.rebuilds)

let posmap ?domains t source =
  match source.Source.format with
  | Source.Csv { delim; header; _ } ->
    memo t t.posmaps source.Source.name (fun () ->
        (* a persisted sidecar from an earlier session restores the map
           without re-scanning; a missing, corrupt or stale sidecar
           (fingerprint mismatch) costs only a rebuild from raw — never
           wrong answers *)
        match
          Positional_map.load ~delim (buffer_unlocked t source)
            ~path:(sidecar_path t source)
        with
        | Ok pm ->
          t.warm_restores <- t.warm_restores + 1;
          pm
        | Error err ->
          (* note the degradation for the governor report, except for the
             ordinary cold start where no sidecar exists yet *)
          (match err with
          | Vida_error.Stale_auxiliary { reason; _ }
            when not (String.equal reason "no sidecar") ->
            Vida_governor.Governor.note_fallback ~stage:"sidecar->raw"
              ~reason ()
          | _ -> ());
          t.rebuilds <- t.rebuilds + 1;
          Positional_map.build ~delim ~header ?domains (buffer_unlocked t source))
  | _ ->
    Vida_error.invalid_request ~source:source.Source.name
      "Structures.posmap: %S is not a CSV source" source.Source.name

let semi_index ?domains t source =
  match source.Source.format with
  | Source.Json_lines _ ->
    memo t t.semi_indexes source.Source.name (fun () ->
        Semi_index.build ?domains (buffer_unlocked t source))
  | _ ->
    Vida_error.invalid_request ~source:source.Source.name
      "Structures.semi_index: %S is not a JSON source" source.Source.name

let xml_index t source =
  match source.Source.format with
  | Source.Xml _ ->
    memo t t.xml_indexes source.Source.name (fun () ->
        Xml_index.build (buffer_unlocked t source))
  | _ ->
    Vida_error.invalid_request ~source:source.Source.name
      "Structures.xml_index: %S is not an XML source" source.Source.name

let binarray t source =
  match source.Source.format with
  | Source.Binary_array ->
    memo t t.binarrays source.Source.name (fun () ->
        Binarray.open_file (buffer_unlocked t source))
  | _ ->
    Vida_error.invalid_request ~source:source.Source.name
      "Structures.binarray: %S is not a binary-array source" source.Source.name

let peek_buffer t name = locked t (fun () -> Hashtbl.find_opt t.buffers name)
let peek_posmap t name = locked t (fun () -> Hashtbl.find_opt t.posmaps name)

let checkpoint_posmap t source =
  match locked t (fun () -> Hashtbl.find_opt t.posmaps source.Source.name) with
  | None -> false
  | Some pm ->
    Positional_map.save pm ~path:(sidecar_path t source);
    true

let peek_semi_index t name =
  locked t (fun () -> Hashtbl.find_opt t.semi_indexes name)

let peek_xml_index t name = locked t (fun () -> Hashtbl.find_opt t.xml_indexes name)

(* --- append-aware incremental repair (paper §2.1, refined) ---

   §2.1 drops auxiliary structures when the underlying file changes. For
   the common live-data case — the file grew by append, its old prefix
   untouched (see {!Vida_raw.Delta}) — dropping wastes every scan already
   paid for. Instead each built structure is extended in place from the
   old tail, and the caller learns the old item counts so cached columns
   can be extended too. Binary arrays are simply re-opened (their open is
   a header parse, not a scan). *)

type repair = {
  new_buffer : Raw_buffer.t;
  csv : (Positional_map.t * int) option;  (* extended map, old row count *)
  json : (Semi_index.t * int) option;  (* extended index, old object count *)
  xml : (Xml_index.t * int * bool) option;
      (* extended index, old element count, [true] when a new repeated tag
         appeared (normalized shape of old elements changed) *)
}

(* The generation [probed] of an appended file: the old bytes plus a read
   of only [old_size, probed.size), used when its fingerprint is the
   probe's. Otherwise (the old buffer went, or the file changed again
   under the read) a whole-file load, used only while it still extends
   the old bytes [old_fp]: the structures extend from them. *)
let appended_buffer old ~path ~old_fp ~probed =
  let tail_read =
    Option.bind old
      (Raw_buffer.extend ~size:probed.Fingerprint.size ~accept:(fun v ->
           Fingerprint.equal (Fingerprint.of_view v) probed))
  in
  match tail_read with
  | Some _ -> tail_read
  | None -> (
    let buf = Raw_buffer.of_path path in
    match Delta.classify_contents ~old_fp (Raw_buffer.contents buf) with
    | Delta.Appended _ | Delta.Unchanged -> Some buf
    | Delta.Rewritten | Delta.Truncated _ | Delta.Vanished -> None)

(* Extends every built structure of [name] over [new_buffer]; the
   caller holds [t.lock]. *)
let extend_structures t name new_buffer =
  let csv =
    match Hashtbl.find_opt t.posmaps name with
    | None -> None
    | Some pm ->
      let old_rows = Positional_map.row_count pm in
      let pm = Positional_map.extend pm new_buffer in
      Hashtbl.replace t.posmaps name pm;
      Some (pm, old_rows)
  in
  let json =
    match Hashtbl.find_opt t.semi_indexes name with
    | None -> None
    | Some si ->
      let old_objects = Semi_index.object_count si in
      let si = Semi_index.extend si new_buffer in
      Hashtbl.replace t.semi_indexes name si;
      Some (si, old_objects)
  in
  let xml =
    match Hashtbl.find_opt t.xml_indexes name with
    | None -> None
    | Some xi ->
      let old_elements = Xml_index.element_count xi in
      let xi, new_list_tag = Xml_index.extend xi new_buffer in
      Hashtbl.replace t.xml_indexes name xi;
      Some (xi, old_elements, new_list_tag)
  in
  Hashtbl.remove t.binarrays name;
  Hashtbl.replace t.buffers name new_buffer;
  { new_buffer; csv; json; xml }

let repair_appended t source ~old_fp ~probed =
  locked t @@ fun () ->
  (* repair is not lazy: load now, outside any epoch, so the extended
     structures and the buffer they index agree on one generation *)
  let name = source.Source.name in
  appended_buffer (Hashtbl.find_opt t.buffers name) ~path:(source_path source) ~old_fp
    ~probed
  |> Option.map (extend_structures t name)

let invalidate t name =
  locked t (fun () ->
      Hashtbl.remove t.buffers name;
      Hashtbl.remove t.posmaps name;
      Hashtbl.remove t.semi_indexes name;
      Hashtbl.remove t.xml_indexes name;
      Hashtbl.remove t.binarrays name)

let footprint t =
  locked t (fun () ->
      Hashtbl.fold (fun _ pm acc -> acc + Positional_map.footprint pm) t.posmaps 0
      + Hashtbl.fold
          (fun _ si acc -> acc + Semi_index.footprint si)
          t.semi_indexes 0
      + Hashtbl.fold
          (fun _ xi acc -> acc + Xml_index.footprint xi)
          t.xml_indexes 0)
