open Vida_data
open Vida_calculus
open Vida_catalog
open Vida_storage

type ctx = {
  registry : Registry.t;
  cache : Cache.t;
  structures : Structures.t;
  params : (string * Value.t) list;
  cleaning : (string, Vida_cleaning.Policy.t) Hashtbl.t;
  bad_rows : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  structural_quarantined : (string, unit) Hashtbl.t;
      (* sources whose structural bad spans (e.g. malformed XML elements)
         were already copied into the policy's quarantine report *)
  restored_quarantine :
    (string, Vida_cleaning.Policy.quarantine_entry list) Hashtbl.t;
      (* quarantine entries restored from a state directory — recorded by
         an earlier process, merged into {!quarantine_report} so the
         ledger survives restarts; dropped with the rest of the ledger on
         policy change or invalidation *)
  feedback : Feedback.t;
  domains : int;
      (* domain budget for parallel regions (morsel folds, chunked
         auxiliary-structure builds); 1 = strictly sequential *)
  lock : Vida_sync.Lock.t;
      (* guards [cleaning]/[bad_rows]/[structural_quarantined] under
         concurrent sessions; the unlocked per-row bad-set probes are the
         registered race-allowed cell [bad_rows_cell] below *)
  carrier : (Value.t -> unit) option;
      (* the root fold's pre-finalize carrier, for a result repair *)
}

exception Engine_error of string

let engine_error fmt = Format.kasprintf (fun s -> raise (Engine_error s)) fmt

(* The per-source bad-row sets are written under [ctx.lock] but probed
   per row without it inside generated producers. The race is tolerated
   by design — OCaml hashtables are memory-safe under races, and the
   worst case is a row a concurrently-cleaning query just marked being
   transiently included, the same answer a serial schedule running that
   query a moment later would give — so the cell is registered
   race-allowed with the sanitizer rather than asserted lock-protected. *)
let bad_rows_cell = "plugins.bad-rows"

let () =
  Vida_sync.Cell.allow_race ~name:bad_rows_cell
    ~justification:
      "per-row membership probes of a fetched bad set; hashtables are \
       memory-safe under races and a transiently-included row matches some \
       serial schedule"

let create_ctx ?cache_capacity ?(params = []) ?domains registry =
  let cache =
    match cache_capacity with
    | Some capacity_bytes -> Cache.create ~capacity_bytes ()
    | None -> Cache.create ()
  in
  { registry; cache; structures = Structures.create (); params;
    cleaning = Hashtbl.create 4; bad_rows = Hashtbl.create 4;
    structural_quarantined = Hashtbl.create 4;
    restored_quarantine = Hashtbl.create 4;
    feedback = Feedback.create ();
    domains = Vida_raw.Morsel.resolve ?requested:domains ();
    lock = Vida_sync.Lock.create ~rank:45 ~name:"engine.plugins" ();
    carrier = None }

(* The root fold's result: its carrier goes to [ctx.carrier] first. *)
let finalize_root ctx monoid acc =
  Option.iter (fun k -> k acc) ctx.carrier;
  Vida_calculus.Monoid.finalize monoid acc

let whole_object_item = "__object__"

(* Encoded fingerprint used to stamp and validate cache entries of a
   source; [None] for inline/external sources. Under an ambient
   {!Vida_raw.Epoch} the query's pinned generation is used — entries are
   stamped with (and hits validated against) the generation the query runs
   on, so a concurrent writer can never mix two generations through the
   cache. Outside an epoch the file is probed directly (sampled windows,
   no [Raw_buffer]/[Io_stats] — validating cached entries does not count
   as raw access). *)
let source_fingerprint (source : Source.t) =
  match Vida_raw.Epoch.pinned source.Source.name with
  | Some fp -> Some (Vida_raw.Fingerprint.encode fp)
  | None -> (
    match source.Source.path with
    | None -> None
    | Some path ->
      Option.map Vida_raw.Fingerprint.encode (Vida_raw.Fingerprint.probe path))

(* Cache accessors that stamp entries with the backing file's fingerprint:
   a [find] after the file changed drops the stale entry and misses, so the
   column is re-derived from the current bytes instead of served as
   garbage. *)
let cache_find ctx (source : Source.t) key =
  Cache.find ?fingerprint:(source_fingerprint source) ctx.cache key

let cache_put ctx (source : Source.t) key payload =
  ignore (Cache.put ?fingerprint:(source_fingerprint source) ctx.cache key payload)

let locked ctx f = Vida_sync.Lock.protect ctx.lock f

let cleaning_policy ctx source =
  match locked ctx (fun () -> Hashtbl.find_opt ctx.cleaning source) with
  | Some p -> p
  | None -> Vida_cleaning.Policy.default

let bad_set ctx source =
  locked ctx (fun () ->
      match Hashtbl.find_opt ctx.bad_rows source with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.replace ctx.bad_rows source s;
        s)

let mark_bad ctx bad row =
  Vida_sync.Cell.write ~name:bad_rows_cell ~site:"plugins.mark-bad";
  locked ctx (fun () -> Hashtbl.replace bad row ())

let bad_row_count ctx source =
  locked ctx (fun () ->
      match Hashtbl.find_opt ctx.bad_rows source with
      | Some s -> Hashtbl.length s
      | None -> 0)

(* --- CSV --- *)

(* Decodes [arrays] (field, type, column index, destination) of rows
   [from] (default 0) to the last through the cleaning policy, each field
   read from its recorded offset: a column's first load, and its
   extension over appended rows. [on_dropped row] takes a value the
   policy drops; a value it rejects raises a parse error. *)
let decode_csv_rows ?from pm ~name policy arrays ~on_dropped =
  let cols = List.map (fun (_, _, col, _) -> col) arrays in
  Vida_raw.Positional_map.record_while_scanning ?from pm ~cols (fun row fields ->
      let span =
        (* raw byte range of the row, for quarantine reporting *)
        let start, stop = Vida_raw.Positional_map.row_bounds pm row in
        (name, start, stop - start)
      in
      List.iteri
        (fun i (f, ty, _, arr) ->
          match Vida_cleaning.Policy.clean ~span policy ~field:f ty fields.(i) with
          | Ok (Some v) -> arr.(row) <- v
          | Ok None -> on_dropped row
          | Error msg ->
            let _, offset, _ = span in
            Vida_error.parse_error ~source:name ~offset "%s" msg)
        arrays)

(* Fetch one decoded column through the cache, loading [missing] columns in
   a single piggy-backed scan when needed. *)
let csv_columns ctx (source : Source.t) schema fs =
  let name = source.Source.name in
  let key f = { Cache.source = name; item = f; layout = Layout.Values } in
  let policy = cleaning_policy ctx name in
  (* Under a row-skipping policy every field participates in the skip
     decision, not just the projected ones — otherwise the rows a query
     sees would depend on how aggressively its plan pruned fields, and
     engines with different pruning would disagree on damaged files. *)
  let scan_fs =
    match Vida_cleaning.Policy.on_error policy with
    | Vida_cleaning.Policy.Skip_row | Vida_cleaning.Policy.Quarantine ->
      fs @ List.filter (fun f -> not (List.mem f fs)) (Schema.names schema)
    | _ -> fs
  in
  let lookups =
    List.map
      (fun f ->
        match Schema.index schema f with
        | None -> (f, `Absent)
        | Some col -> (
          match cache_find ctx source (key f) with
          | Some (Cache.Values vs) -> (f, `Cached vs)
          | Some _ | None -> (f, `Missing col)))
      scan_fs
  in
  let missing =
    List.filter_map (function f, `Missing col -> Some (f, col) | _ -> None) lookups
  in
  let loaded = Hashtbl.create 8 in
  if missing <> [] then (
    let pm = Structures.posmap ~domains:ctx.domains ctx.structures source in
    let nrows = Vida_raw.Positional_map.row_count pm in
    (* field types hoisted out of the per-row callback: one schema lookup
       per column for the whole scan, not one per cell *)
    let arrays =
      List.map
        (fun (f, col) ->
          let ty = (Schema.attr schema (Schema.index_exn schema f)).Schema.ty in
          (f, ty, col, Array.make nrows Value.Null))
        missing
    in
    let bad = bad_set ctx source.Source.name in
    (* problematic entry: remember it; generated code skips it *)
    decode_csv_rows pm ~name policy arrays ~on_dropped:(mark_bad ctx bad);
    List.iter
      (fun (f, _, _, arr) ->
        cache_put ctx source (key f) (Cache.Values arr);
        Hashtbl.replace loaded f arr)
      arrays);
  let nrows = ref (-1) in
  let columns =
    (* widened fields were scanned only for the skip decision: the caller
       gets exactly the columns it asked for *)
    List.map
      (fun f ->
        match List.assoc f lookups with
        | `Absent -> (f, `Null)
        | `Cached vs ->
          nrows := Array.length vs;
          (f, `Col vs)
        | `Missing _ ->
          let arr = Hashtbl.find loaded f in
          nrows := Array.length arr;
          (f, `Col arr))
      fs
  in
  let nrows =
    if !nrows >= 0 then !nrows
    else Vida_raw.Positional_map.row_count (Structures.posmap ~domains:ctx.domains ctx.structures source)
  in
  (columns, nrows)

let csv_producer ctx (source : Source.t) schema need consumer =
  let fs =
    match need with
    | Analysis.Whole -> Schema.names schema
    | Analysis.Fields fs -> fs
  in
  let columns, nrows = csv_columns ctx source schema fs in
  let name = source.Source.name in
  let bad = bad_set ctx name in
  (* one sanitizer access per producer run stands in for the per-row
     probes below — same lockset evidence without per-row overhead *)
  Vida_sync.Cell.read ~name:bad_rows_cell ~site:"plugins.csv-producer";
  for row = 0 to nrows - 1 do
    (* cache-served rows bypass the raw scan loops, so the epoch tick
       lives here too — a fully-cached query still notices a writer *)
    Vida_raw.Epoch.check ~source:name ();
    if not (Hashtbl.mem bad row) then
      consumer
        (Value.Record
           (List.map
              (fun (f, col) ->
                match col with
                | `Null -> (f, Value.Null)
                | `Col arr -> (f, arr.(row)))
              columns))
  done

(* --- JSON lines --- *)

let json_field_column ctx (source : Source.t) f =
  let key = { Cache.source = source.Source.name; item = f; layout = Layout.Values } in
  match cache_find ctx source key with
  | Some (Cache.Values vs) -> vs
  | Some _ | None ->
    let si = Structures.semi_index ~domains:ctx.domains ctx.structures source in
    let n = Vida_raw.Semi_index.object_count si in
    let policy = cleaning_policy ctx source.Source.name in
    let bad = bad_set ctx source.Source.name in
    let arr =
      Array.init n (fun obj ->
          match Vida_raw.Semi_index.field_value si ~obj ~field:f with
          | v -> v
          | exception Vida_error.Error e -> (
            match Vida_cleaning.Policy.on_error policy with
            | Vida_cleaning.Policy.Strict -> raise (Vida_error.Error e)
            | Vida_cleaning.Policy.Null_value | Vida_cleaning.Policy.Nearest ->
              Value.Null
            | Vida_cleaning.Policy.Skip_row ->
              mark_bad ctx bad obj;
              Value.Null
            | Vida_cleaning.Policy.Quarantine ->
              let pos, len = Vida_raw.Semi_index.object_bounds si obj in
              Vida_cleaning.Policy.quarantine policy ~source:source.Source.name
                ~offset:pos ~length:len (Vida_error.to_string e);
              mark_bad ctx bad obj;
              Value.Null))
    in
    cache_put ctx source key (Cache.Values arr);
    arr

let json_producer ctx (source : Source.t) need consumer =
  match need with
  | Analysis.Fields fs ->
    let columns = List.map (fun f -> (f, json_field_column ctx source f)) fs in
    let n =
      match columns with
      | (_, arr) :: _ -> Array.length arr
      | [] ->
        Vida_raw.Semi_index.object_count (Structures.semi_index ~domains:ctx.domains ctx.structures source)
    in
    let bad = bad_set ctx source.Source.name in
    Vida_sync.Cell.read ~name:bad_rows_cell ~site:"plugins.json-producer";
    for obj = 0 to n - 1 do
      Vida_raw.Epoch.check ~source:source.Source.name ();
      if not (Hashtbl.mem bad obj) then
        consumer (Value.Record (List.map (fun (f, arr) -> (f, arr.(obj))) columns))
    done
  | Analysis.Whole -> (
    let name = source.Source.name in
    let key =
      { Cache.source = name; item = whole_object_item; layout = Layout.Vbson }
    in
    (* the declared element shape: damaged lines can decode to a stray
       scalar (e.g. a merged fragment parsing as a bare string), which must
       go through the cleaning policy like any parse failure — and a nulled
       record-typed object keeps its field names so projections stay safe *)
    let record_fields =
      match source.Source.format with
      | Source.Json_lines { element = Ty.Record fields } -> Some (List.map fst fields)
      | _ -> None
    in
    let null_object () =
      match record_fields with
      | Some fields -> Value.Record (List.map (fun f -> (f, Value.Null)) fields)
      | None -> Value.Null
    in
    let checked_object si obj =
      let v = Vida_raw.Semi_index.object_value si obj in
      match (v, record_fields) with
      | Value.Record _, _ | _, None -> v
      | _, Some _ ->
        let pos, _ = Vida_raw.Semi_index.object_bounds si obj in
        Vida_error.parse_error ~source:name ~offset:pos
          "record object expected, got %s" (Value.to_string v)
    in
    match cache_find ctx source key with
    | Some (Cache.Strings encoded) ->
      Array.iter
        (fun s ->
          Vida_raw.Epoch.check ~source:name ();
          if s <> "" then consumer (Vbson.decode ~source:name s))
        encoded
    | Some _ | None ->
      let si = Structures.semi_index ~domains:ctx.domains ctx.structures source in
      let n = Vida_raw.Semi_index.object_count si in
      let policy = cleaning_policy ctx name in
      let bad = bad_set ctx name in
      Vida_sync.Cell.read ~name:bad_rows_cell ~site:"plugins.json-whole-producer";
      (* an empty encoding marks an object dropped by the cleaning policy,
         so replays from cache skip the same objects *)
      let encoded = Array.make n "" in
      for obj = 0 to n - 1 do
        if not (Hashtbl.mem bad obj) then (
          match checked_object si obj with
          | v ->
            encoded.(obj) <- Vbson.encode v;
            consumer v
          | exception Vida_error.Error e -> (
            match Vida_cleaning.Policy.on_error policy with
            | Vida_cleaning.Policy.Strict -> raise (Vida_error.Error e)
            | Vida_cleaning.Policy.Null_value | Vida_cleaning.Policy.Nearest ->
              let v = null_object () in
              encoded.(obj) <- Vbson.encode v;
              consumer v
            | Vida_cleaning.Policy.Skip_row -> mark_bad ctx bad obj
            | Vida_cleaning.Policy.Quarantine ->
              let pos, len = Vida_raw.Semi_index.object_bounds si obj in
              Vida_cleaning.Policy.quarantine policy ~source:name ~offset:pos
                ~length:len (Vida_error.to_string e);
              mark_bad ctx bad obj))
      done;
      cache_put ctx source key (Cache.Strings encoded))

(* --- XML --- *)

(* The XML index is built tolerantly: malformed child elements are skipped
   and reported as bad spans. Copy those spans into the policy's quarantine
   report once per source (when the policy asks for quarantining). *)
let xml_index_reported ctx (source : Source.t) =
  let xi = Structures.xml_index ctx.structures source in
  let name = source.Source.name in
  (match Vida_cleaning.Policy.on_error (cleaning_policy ctx name) with
  | Vida_cleaning.Policy.Quarantine
    when locked ctx (fun () ->
             if Hashtbl.mem ctx.structural_quarantined name then false
             else (Hashtbl.replace ctx.structural_quarantined name (); true)) ->
    let policy = cleaning_policy ctx name in
    List.iter
      (fun (pos, len, reason) ->
        Vida_cleaning.Policy.quarantine policy ~source:name ~offset:pos
          ~length:len reason)
      (Vida_raw.Xml_index.bad_spans xi)
  | _ -> ());
  xi

let xml_field_column ctx (source : Source.t) f =
  let key = { Cache.source = source.Source.name; item = f; layout = Layout.Values } in
  match cache_find ctx source key with
  | Some (Cache.Values vs) -> vs
  | Some _ | None ->
    let xi = xml_index_reported ctx source in
    let n = Vida_raw.Xml_index.element_count xi in
    let arr = Array.init n (fun elem -> Vida_raw.Xml_index.field_value xi ~elem ~field:f) in
    cache_put ctx source key (Cache.Values arr);
    arr

let xml_producer ctx (source : Source.t) need consumer =
  match need with
  | Analysis.Fields fs ->
    let columns = List.map (fun f -> (f, xml_field_column ctx source f)) fs in
    let n =
      match columns with
      | (_, arr) :: _ -> Array.length arr
      | [] -> Vida_raw.Xml_index.element_count (xml_index_reported ctx source)
    in
    for elem = 0 to n - 1 do
      Vida_raw.Epoch.check ~source:source.Source.name ();
      consumer (Value.Record (List.map (fun (f, arr) -> (f, arr.(elem))) columns))
    done
  | Analysis.Whole -> (
    let name = source.Source.name in
    let key =
      { Cache.source = name; item = whole_object_item; layout = Layout.Vbson }
    in
    match cache_find ctx source key with
    | Some (Cache.Strings encoded) ->
      Array.iter
        (fun s ->
          Vida_raw.Epoch.check ~source:name ();
          consumer (Vbson.decode ~source:name s))
        encoded
    | Some _ | None ->
      let xi = xml_index_reported ctx source in
      let n = Vida_raw.Xml_index.element_count xi in
      let encoded = Array.make n "" in
      for elem = 0 to n - 1 do
        let v = Vida_raw.Xml_index.element_value xi elem in
        encoded.(elem) <- Vbson.encode v;
        consumer v
      done;
      cache_put ctx source key (Cache.Strings encoded))

(* --- binary arrays --- *)

let binarray_producer ctx (source : Source.t) need consumer =
  let ba = Structures.binarray ctx.structures source in
  let all_fields =
    List.map (fun f -> f.Vida_raw.Binarray.name) (Vida_raw.Binarray.header ba).fields
  in
  let fs =
    match need with
    | Analysis.Whole -> all_fields
    | Analysis.Fields fs -> fs
  in
  let name = source.Source.name in
  let n = Vida_raw.Binarray.cell_count ba in
  let columns =
    List.map
      (fun f ->
        match Vida_raw.Binarray.field_index ba f with
        | None -> (f, `Null)
        | Some idx ->
          let key = { Cache.source = name; item = f; layout = Layout.Values } in
          let arr =
            match cache_find ctx source key with
            | Some (Cache.Values vs) -> vs
            | Some _ | None ->
              let arr = Array.init n (fun cell -> Vida_raw.Binarray.get ba ~cell ~field:idx) in
              cache_put ctx source key (Cache.Values arr);
              arr
          in
          (f, `Col arr))
      fs
  in
  for cell = 0 to n - 1 do
    Vida_raw.Epoch.check ~source:name ();
    consumer
      (Value.Record
         (List.map
            (fun (f, col) ->
              match col with `Null -> (f, Value.Null) | `Col arr -> (f, arr.(cell)))
            columns))
  done

(* binarray scan with zone-map block skipping: the ranges are a
   conservative superset filter; the caller re-applies the exact
   predicate *)
let binarray_ranged_producer ctx (source : Source.t) need ~ranges consumer =
  let ba = Structures.binarray ctx.structures source in
  let all_fields =
    List.map (fun f -> f.Vida_raw.Binarray.name) (Vida_raw.Binarray.header ba).fields
  in
  let fs =
    match need with
    | Analysis.Whole -> all_fields
    | Analysis.Fields fs -> fs
  in
  let franges =
    List.filter_map
      (fun (fname, lo, hi) ->
        match Vida_raw.Binarray.field_index ba fname with
        | Some field -> Some { Vida_raw.Binarray.field; lo; hi }
        | None -> None)
      ranges
  in
  let idxs =
    List.map (fun f -> (f, Vida_raw.Binarray.field_index ba f)) fs
  in
  Vida_raw.Binarray.scan_filtered ba ~ranges:franges (fun cell ->
      consumer
        (Value.Record
           (List.map
              (fun (f, idx) ->
                match idx with
                | None -> (f, Value.Null)
                | Some field -> (f, Vida_raw.Binarray.get ba ~cell ~field))
              idxs)))

(* Column-array view of a source, for engines that fold over rows directly
   (e.g. the parallel reducer). [None] when the format has no columnar
   access or rows are being skipped by a cleaning policy (alignment would
   be unsafe). *)
let column_arrays ctx (source : Source.t) ~fields =
  if bad_row_count ctx source.Source.name > 0 then None
  else
    match source.Source.format with
    | Source.Csv { schema; _ } ->
      let columns, nrows = csv_columns ctx source schema fields in
      (* the scan above may itself have marked rows bad (cold cache):
         re-check, or the fast path would include rows the policy skips *)
      if bad_row_count ctx source.Source.name > 0 then None
      else
        Some
          ( nrows,
            List.map
              (fun (f, col) ->
                match col with
                | `Col arr -> (f, arr)
                | `Null -> (f, Array.make nrows Value.Null))
              columns )
    | Source.Binary_array ->
      let ba = Structures.binarray ctx.structures source in
      let n = Vida_raw.Binarray.cell_count ba in
      Some
        ( n,
          List.map
            (fun f ->
              match Vida_raw.Binarray.field_index ba f with
              | None -> (f, Array.make n Value.Null)
              | Some idx ->
                let key =
                  { Cache.source = source.Source.name; item = f; layout = Layout.Values }
                in
                let arr =
                  match cache_find ctx source key with
                  | Some (Cache.Values vs) -> vs
                  | Some _ | None ->
                    let arr =
                      Array.init n (fun cell -> Vida_raw.Binarray.get ba ~cell ~field:idx)
                    in
                    cache_put ctx source key (Cache.Values arr);
                    arr
                in
                (f, arr))
            fields )
    | Source.Inline v ->
      let elements = Array.of_list (Value.elements v) in
      let n = Array.length elements in
      (* non-record elements would make field extraction silently yield
         Null where the row engines raise a type error — decline instead *)
      if not (Array.for_all (function Value.Record _ -> true | _ -> false) elements)
      then None
      else
        Some
          ( n,
            List.map
              (fun f ->
                ( f,
                  Array.map
                    (fun e ->
                      match Value.field_opt e f with Some v -> v | None -> Value.Null)
                    elements ))
              fields )
    | Source.Json_lines _ ->
      let columns = List.map (fun f -> (f, json_field_column ctx source f)) fields in
      (* the cold column build may itself have marked objects bad — same
         re-check as the CSV path, or the columnar fold would include
         objects the cleaning policy skips *)
      if bad_row_count ctx source.Source.name > 0 then None
      else
        let n =
          match columns with
          | (_, arr) :: _ -> Array.length arr
          | [] ->
            Vida_raw.Semi_index.object_count
              (Structures.semi_index ~domains:ctx.domains ctx.structures source)
        in
        Some (n, columns)
    | Source.Xml _ ->
      let columns = List.map (fun f -> (f, xml_field_column ctx source f)) fields in
      let n =
        match columns with
        | (_, arr) :: _ -> Array.length arr
        | [] -> Vida_raw.Xml_index.element_count (xml_index_reported ctx source)
      in
      Some (n, columns)
    | Source.External _ -> None

(* --- generic --- *)

let materialize_source ctx (source : Source.t) =
  match source.Source.format with
  | Source.Inline v -> v
  | Source.Csv { schema; _ } ->
    let items = ref [] in
    csv_producer ctx source schema Analysis.Whole (fun v -> items := v :: !items);
    Value.Bag (List.rev !items)
  | Source.Json_lines _ ->
    let items = ref [] in
    json_producer ctx source Analysis.Whole (fun v -> items := v :: !items);
    Value.Bag (List.rev !items)
  | Source.Xml _ ->
    let items = ref [] in
    xml_producer ctx source Analysis.Whole (fun v -> items := v :: !items);
    Value.List (List.rev !items)
  | Source.Binary_array ->
    let ba = Structures.binarray ctx.structures source in
    Vida_raw.Binarray.to_value ba
  | Source.External { produce; _ } ->
    let items = ref [] in
    produce (fun v -> items := v :: !items);
    Value.Bag (List.rev !items)

let base_eval_env ctx =
  let env =
    List.fold_left (fun env (x, v) -> Eval.bind x v env) Eval.empty_env ctx.params
  in
  List.fold_left
    (fun env source -> Eval.bind source.Source.name (materialize_source ctx source) env)
    env
    (Registry.sources ctx.registry)

let source_count ctx (source : Source.t) =
  match source.Source.format with
  | Source.Inline v -> List.length (Value.elements v)
  | Source.Csv _ ->
    Vida_raw.Positional_map.row_count (Structures.posmap ~domains:ctx.domains ctx.structures source)
  | Source.Json_lines _ ->
    Vida_raw.Semi_index.object_count (Structures.semi_index ~domains:ctx.domains ctx.structures source)
  | Source.Xml _ ->
    Vida_raw.Xml_index.element_count (Structures.xml_index ctx.structures source)
  | Source.Binary_array ->
    Vida_raw.Binarray.cell_count (Structures.binarray ctx.structures source)
  | Source.External { count; _ } -> count ()

let producer ctx (expr : Expr.t) ~need consumer =
  match expr with
  | Expr.Var name -> (
    match Registry.find ctx.registry name with
    | Some source -> (
      match source.Source.format with
      | Source.Csv { schema; _ } -> csv_producer ctx source schema need consumer
      | Source.Json_lines _ -> json_producer ctx source need consumer
      | Source.Xml _ -> xml_producer ctx source need consumer
      | Source.Binary_array -> binarray_producer ctx source need consumer
      | Source.Inline v -> List.iter consumer (Value.elements v)
      | Source.External { produce; _ } -> produce consumer)
    | None -> (
      match List.assoc_opt name ctx.params with
      | Some v -> List.iter consumer (Value.elements v)
      | None -> engine_error "unknown source %s" name))
  | expr ->
    (* arbitrary source expression: generic interpreter fallback *)
    let v = Eval.eval (base_eval_env ctx) expr in
    (match v with
    | Value.Null -> ()
    | v -> List.iter consumer (Value.elements v))

let invalidate ctx name =
  Cache.invalidate_source ctx.cache name;
  Structures.invalidate ctx.structures name;
  locked ctx (fun () ->
      Hashtbl.remove ctx.bad_rows name;
      Hashtbl.remove ctx.structural_quarantined name;
      Hashtbl.remove ctx.restored_quarantine name);
  ignore (Registry.refresh ctx.registry name)

(* --- live-data refresh: append-aware incremental repair ---

   Paper §2.1 drops a source's auxiliary structures and caches when its
   file changes. For the append-only case (log-structured files, the
   common live-data shape — see {!Vida_raw.Delta}) that wastes every scan
   already paid for, so structures are extended in place
   ({!Structures.repair_appended}) and cached columns are extended with
   just the appended items and re-stamped with the new fingerprint. Any
   wrinkle — cleaning policies in force, rows already marked bad, a parse
   failure in the appended bytes, a payload shape we don't recognize —
   falls back to the paper's drop-and-rederive; extension is an
   optimization, never a correctness risk. *)

exception Unextendable

(* [old] grown to [n] cells, the new ones [fill]. [Array.append] copies
   the old cells with plain initializing stores; a blit into a fresh
   major-heap array would pay a write barrier per cell. *)
let extended ~n ~fill old =
  if n < Array.length old then raise Unextendable;
  Array.append old (Array.make (n - Array.length old) fill)

(* Old cells carry over; cells from [from] on are re-derived ([from] is
   one before the old item count for line-oriented formats, whose last old
   item may have been a partial line completed by the append). *)
let extended_with ~n ~from ~fill ~derive old =
  let arr = extended ~n ~fill old in
  for i = from to n - 1 do
    arr.(i) <- derive i
  done;
  arr

(* Every cached CSV column is a populated positional-map column (its first
   load recorded it), and the extended map carries those offsets over the
   appended rows: the new cells are decoded in one pass over rows
   [from..], through the first load's offset read and cleaning call. *)
let extend_csv_caches ctx (source : Source.t) pm ~old_rows ~fingerprint entries =
  let name = source.Source.name in
  let schema =
    match source.Source.format with
    | Source.Csv { schema; _ } -> schema
    | _ -> raise Unextendable
  in
  let n = Vida_raw.Positional_map.row_count pm in
  let from = max 0 (old_rows - 1) in
  let columns =
    List.filter_map
      (fun ((key : Cache.key), payload, _) ->
        match (payload, key.Cache.layout, Schema.index schema key.Cache.item) with
        | Cache.Values old, Layout.Values, Some col when Array.length old = old_rows ->
          let arr = extended ~n ~fill:Value.Null old in
          Some (key, payload, (key.Cache.item, (Schema.attr schema col).Schema.ty, col, arr))
        | _ -> None (* unrecognized shape: left to stale-drop on next access *))
      entries
  in
  if columns <> [] then (
    decode_csv_rows ~from pm ~name (cleaning_policy ctx name)
      (List.map (fun (_, _, column) -> column) columns)
      ~on_dropped:(fun _ ->
        (* an appended row needs the full cleaning machinery *)
        raise Unextendable);
    List.iter
      (fun (key, old, (_, _, _, arr)) ->
        ignore (Cache.extend ~fingerprint ctx.cache key ~old ~from (Cache.Values arr)))
      columns)

let extend_json_caches ctx (source : Source.t) si ~old_objects ~fingerprint entries =
  let n = Vida_raw.Semi_index.object_count si in
  let from = max 0 (old_objects - 1) in
  let record_fields =
    match source.Source.format with
    | Source.Json_lines { element = Ty.Record fields } -> Some (List.map fst fields)
    | _ -> None
  in
  List.iter
    (fun ((key : Cache.key), payload, _) ->
      match (payload, key.Cache.layout) with
      | Cache.Values old, Layout.Values when Array.length old = old_objects ->
        let derive obj =
          Vida_raw.Semi_index.field_value si ~obj ~field:key.Cache.item
        in
        ignore
          (Cache.extend ~fingerprint ctx.cache key ~old:payload ~from
             (Cache.Values (extended_with ~n ~from ~fill:Value.Null ~derive old)))
      | Cache.Strings old, Layout.Vbson
        when String.equal key.Cache.item whole_object_item
             && Array.length old = old_objects ->
        let derive obj =
          let v = Vida_raw.Semi_index.object_value si obj in
          (match (v, record_fields) with
          | Value.Record _, _ | _, None -> ()
          | _ -> raise Unextendable (* stray scalar: policy's business *));
          Vbson.encode v
        in
        ignore
          (Cache.extend ~fingerprint ctx.cache key ~old:payload ~from
             (Cache.Strings (extended_with ~n ~from ~fill:"" ~derive old)))
      | _ -> ())
    entries

(* XML elements are whole (an element's bounds never straddle old EOF:
   the resume point backs up before any span that did), so old cells are
   all kept. *)
let extend_xml_caches ctx xi ~old_elements ~fingerprint entries =
  let n = Vida_raw.Xml_index.element_count xi in
  List.iter
    (fun ((key : Cache.key), payload, _) ->
      match (payload, key.Cache.layout) with
      | Cache.Values old, Layout.Values when Array.length old = old_elements ->
        let derive elem =
          Vida_raw.Xml_index.field_value xi ~elem ~field:key.Cache.item
        in
        ignore
          (Cache.extend ~fingerprint ctx.cache key ~old:payload ~from:old_elements
             (Cache.Values (extended_with ~n ~from:old_elements ~fill:Value.Null ~derive old)))
      | Cache.Strings old, Layout.Vbson
        when String.equal key.Cache.item whole_object_item
             && Array.length old = old_elements ->
        let derive elem = Vbson.encode (Vida_raw.Xml_index.element_value xi elem) in
        ignore
          (Cache.extend ~fingerprint ctx.cache key ~old:payload ~from:old_elements
             (Cache.Strings (extended_with ~n ~from:old_elements ~fill:"" ~derive old)))
      | _ -> ())
    entries

let extend_source_caches ctx (source : Source.t) (r : Structures.repair) =
  let name = source.Source.name in
  let entries = Cache.entries_of_source ctx.cache name in
  if entries <> [] then (
    let fingerprint =
      Vida_raw.Fingerprint.encode
        (Vida_raw.Fingerprint.of_buffer r.Structures.new_buffer)
    in
    match (r.Structures.csv, r.Structures.json, r.Structures.xml) with
    | Some (pm, old_rows), _, _ ->
      extend_csv_caches ctx source pm ~old_rows ~fingerprint entries
    | _, Some (si, old_objects), _ ->
      extend_json_caches ctx source si ~old_objects ~fingerprint entries
    | _, _, Some (xi, old_elements, new_list_tag) ->
      if new_list_tag then
        (* normalized shape of old elements changed (a tag became a
           list): cached element values are wrong, drop them *)
        Cache.invalidate_source ctx.cache name
      else extend_xml_caches ctx xi ~old_elements ~fingerprint entries
    | None, None, None ->
      (* no structure to extend from (binary arrays re-open; or nothing
         was built): old-generation entries stale-drop on access anyway,
         but drop them now so the source presents one generation *)
      Cache.invalidate_source ctx.cache name)

(* The registry is refreshed first, so the caches extend under the format
   the new generation has; a re-inference that changed it leaves the
   cached cells typed for the old one, so they are dropped. *)
let try_extend ctx (source : Source.t) ~delta ~old_fp ~probed =
  let name = source.Source.name in
  let refreshed =
    Option.value ~default:source (Registry.refresh ~delta ~probed ctx.registry name)
  in
  let r =
    match Structures.repair_appended ctx.structures refreshed ~old_fp ~probed with
    | Some r -> r
    | None -> raise Unextendable
  in
  let dirty =
    locked ctx (fun () ->
        (match Hashtbl.find_opt ctx.bad_rows name with
        | Some s -> Hashtbl.length s > 0
        | None -> false)
        || Hashtbl.mem ctx.cleaning name)
  in
  if dirty then (
    (* columns were derived under a cleaning policy (rows skipped,
       values repaired): extension would need to replay the policy over
       appended rows including its side effects — drop the caches and
       let the next scan re-derive everything under the policy *)
    Cache.invalidate_source ctx.cache name;
    locked ctx (fun () ->
        Hashtbl.remove ctx.bad_rows name;
        Hashtbl.remove ctx.structural_quarantined name))
  else if not (Ty.equal (Source.element_type source) (Source.element_type refreshed))
  then Cache.invalidate_source ctx.cache name
  else
    try extend_source_caches ctx refreshed r
    with _ ->
      (* malformed appended bytes, shape surprises: the structures stay
         extended (they are navigation only), the caches re-derive *)
      Cache.invalidate_source ctx.cache name

let refresh_source ctx (source : Source.t) =
  let name = source.Source.name in
  let rebuilt () = invalidate ctx name; `Rebuilt in
  (* the registry snapshot is a fingerprint: comparing it with a fresh
     probe costs no further IO *)
  let snapshot_matches fp =
    match source.Source.snapshot with
    | Some snap -> Vida_raw.File_snapshot.matches snap fp
    | None -> true
  in
  match source.Source.path with
  | None -> (`Unchanged, None)
  | Some path -> (
    match Structures.peek_buffer ctx.structures name with
    | Some buf when Vida_raw.Raw_buffer.loaded buf -> (
      let old_fp = Vida_raw.Fingerprint.of_buffer buf in
      let delta, probed = Vida_raw.Delta.classify ~old_fp path in
      match (delta, probed) with
      | Vida_raw.Delta.Unchanged, Some fp ->
        (* content is current; a registry snapshot of another generation
           (taken before a change the loaded bytes already reflect) is
           retaken from the probe *)
        if not (snapshot_matches fp) then
          ignore (Registry.refresh ~probed:fp ctx.registry name);
        (`Unchanged, probed)
      | Vida_raw.Delta.Appended _, Some fp -> (
        match try_extend ctx source ~delta ~old_fp ~probed:fp with
        | () -> (`Extended, probed)
        | exception _ -> (rebuilt (), probed))
      | _ -> (rebuilt (), probed))
    | _ -> (
      (* nothing derived yet: the registration-time snapshot decides *)
      match Vida_raw.Fingerprint.probe path with
      | Some fp when snapshot_matches fp -> (`Unchanged, Some fp)
      | probed -> (rebuilt (), probed)))

(* --- the generation a result repair continues ---

   A cached fold can continue over appended rows only if the rows it
   folded are the first rows now, as they were: read off the source's
   built row structure (positional map, semi-index, XML index), when that
   structure holds the generation the query pinned and the source is
   clean (no policy, no bad rows). *)
let pinned_items ctx (source : Source.t) =
  let name = source.Source.name in
  let structure =
    match source.Source.format with
    | Source.Csv _ ->
      Option.map
        (fun pm ->
          ( Vida_raw.Positional_map.buffer pm,
            Vida_raw.Positional_map.row_count pm,
            fun size -> Vida_raw.Positional_map.rows_within pm ~size ))
        (Structures.peek_posmap ctx.structures name)
    | Source.Json_lines _ ->
      Option.map
        (fun si ->
          ( Vida_raw.Semi_index.buffer si,
            Vida_raw.Semi_index.object_count si,
            fun size -> Vida_raw.Semi_index.objects_within si ~size ))
        (Structures.peek_semi_index ctx.structures name)
    | Source.Xml _ -> (
      (* a damaged element is the cleaning layer's: recompute *)
      match Structures.peek_xml_index ctx.structures name with
      | Some xi when Vida_raw.Xml_index.bad_spans xi = [] ->
        Some
          ( Vida_raw.Xml_index.buffer xi,
            Vida_raw.Xml_index.element_count xi,
            fun size -> Vida_raw.Xml_index.elements_within xi ~size )
      | Some _ | None -> None)
    | _ -> None
  in
  let clean () =
    bad_row_count ctx name = 0 && not (locked ctx (fun () -> Hashtbl.mem ctx.cleaning name))
  in
  match (structure, Vida_raw.Epoch.pinned name) with
  | Some (buf, _, _), Some pin
    when Vida_raw.Raw_buffer.loaded buf && clean ()
         && Vida_raw.Fingerprint.equal (Vida_raw.Fingerprint.of_buffer buf) pin ->
    structure
  | _ -> None

let item_count ctx source = Option.map (fun (_, n, _) -> n) (pinned_items ctx source)

let items_before ctx source ~(old_fp : Vida_raw.Fingerprint.t) =
  match pinned_items ctx source with
  | Some (buf, n, within) ->
    let v = Vida_raw.Raw_buffer.contents buf in
    let size = old_fp.Vida_raw.Fingerprint.size in
    if size < v.len
       && Vida_raw.Fingerprint.equal (Vida_raw.Fingerprint.of_sub v.data ~size) old_fp
    then Option.map (fun k -> (k, n)) (within size)
    else None
  | None -> None

let set_cleaning ctx ~source policy =
  locked ctx (fun () -> Hashtbl.replace ctx.cleaning source policy);
  (* decoded columns were produced under the old policy *)
  Cache.invalidate_source ctx.cache source;
  locked ctx (fun () ->
      Hashtbl.remove ctx.bad_rows source;
      Hashtbl.remove ctx.structural_quarantined source;
      Hashtbl.remove ctx.restored_quarantine source)

(* Quarantined raw spans recorded for [source] so far (empty unless its
   policy is [Quarantine]), prefixed with any entries restored from a
   state directory. *)
let quarantine_report ctx source =
  let restored =
    locked ctx (fun () ->
        Option.value ~default:[] (Hashtbl.find_opt ctx.restored_quarantine source))
  in
  let live = Vida_cleaning.Policy.quarantined (cleaning_policy ctx source) in
  (* a warm scan may rediscover a restored span (the column materializer
     re-cleans every row); report each known-bad span once *)
  let rediscovered e =
    List.exists
      (fun l ->
        l.Vida_cleaning.Policy.q_offset = e.Vida_cleaning.Policy.q_offset
        && l.Vida_cleaning.Policy.q_length = e.Vida_cleaning.Policy.q_length)
      live
  in
  List.filter (fun e -> not (rediscovered e)) restored @ live

(* --- durable quarantine ledger ---

   What the cleaning machinery has learned about a damaged source — which
   rows are bad, whether its structure was quarantined wholesale, which
   raw spans were rejected and why — is paid for with full scans. These
   two let the state directory carry that ledger across a restart; the
   caller (the [Vida] facade) owns staleness: a ledger is only restored
   when the source file's fingerprint still matches the one stamped at
   export. *)

let ledger_export ctx source =
  let quarantined = quarantine_report ctx source in
  locked ctx (fun () ->
      let bad =
        match Hashtbl.find_opt ctx.bad_rows source with
        | Some s -> List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) s [])
        | None -> []
      in
      (bad, Hashtbl.mem ctx.structural_quarantined source, quarantined))

let ledger_restore ctx ~source ~bad ~structural ~quarantined =
  Vida_sync.Cell.write ~name:bad_rows_cell ~site:"plugins.ledger-restore";
  locked ctx (fun () ->
      (if bad <> [] then (
         let s =
           match Hashtbl.find_opt ctx.bad_rows source with
           | Some s -> s
           | None ->
             let s = Hashtbl.create 8 in
             Hashtbl.replace ctx.bad_rows source s;
             s
         in
         List.iter (fun r -> Hashtbl.replace s r ()) bad));
      if structural then Hashtbl.replace ctx.structural_quarantined source ();
      if quarantined <> [] then
        Hashtbl.replace ctx.restored_quarantine source quarantined)
