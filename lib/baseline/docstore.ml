open Vida_data
open Vida_storage
open Vida_raw

type collection = { mutable docs : string list (* reverse order *); mutable count : int }

type t = { colls : (string, collection) Hashtbl.t }

let create () = { colls = Hashtbl.create 8 }

let collection t name =
  match Hashtbl.find_opt t.colls name with
  | Some c -> c
  | None ->
    let c = { docs = []; count = 0 } in
    Hashtbl.replace t.colls name c;
    c

let insert t ~name doc =
  let c = collection t name in
  c.docs <- Vbson.encode doc :: c.docs;
  c.count <- c.count + 1

let import_jsonl t ~name buf =
  let si = Semi_index.build buf in
  let n = Semi_index.object_count si in
  for obj = 0 to n - 1 do
    insert t ~name (Semi_index.object_value si obj)
  done;
  n

let doc_count t ~name =
  match Hashtbl.find_opt t.colls name with Some c -> c.count | None -> 0

let collections t = Hashtbl.fold (fun name _ acc -> name :: acc) t.colls []

(* MongoDB-style record allocation: each document is placed in a record
   rounded up to the next power of two (the long-time default
   "powerOf2Sizes" strategy), plus a record header — this is what made the
   paper's imported JSON reach twice its raw size. *)
let record_size doc_bytes =
  let needed = doc_bytes + 16 (* record header *) in
  let rec pow2 n = if n >= needed then n else pow2 (n * 2) in
  pow2 32

let storage_bytes t =
  Hashtbl.fold
    (fun _ c acc ->
      List.fold_left (fun acc d -> acc + record_size (String.length d)) acc c.docs)
    t.colls 0

let scan t ~name f =
  match Hashtbl.find_opt t.colls name with
  | None -> invalid_arg (Printf.sprintf "Docstore: no collection %S" name)
  | Some c -> List.iter (fun d -> f (Vbson.decode d)) (List.rev c.docs)

let run t plan =
  let resolve name ~need consumer =
    (* document stores decode whole documents; the need hint only trims the
       record afterwards *)
    match need with
    | Vida_engine.Analysis.Whole -> scan t ~name consumer
    | Vida_engine.Analysis.Fields fs ->
      scan t ~name (fun doc ->
          consumer
            (Value.Record
               (List.map
                  (fun f ->
                    ( f,
                      match Value.field_opt doc f with
                      | Some v -> v
                      | None -> Value.Null ))
                  fs)))
  in
  Vida_engine.Interp.resolved ~resolve plan
