open Vida_data
open Vida_storage

let attribute_limit = 250
let page_size = 8192

(* One vertical partition: a subset of attributes, tuples serialized into
   heap pages as concatenated VBSON values (arity known from the partition
   schema), row order shared across partitions. *)
type partition = {
  pschema : Schema.t;
  mutable closed : string list;  (* full pages, reverse order *)
  current : Buffer.t;
}

type table = {
  schema : Schema.t;
  parts : partition array;
  (* which partition and position within it each attribute lives at *)
  locate : (string * int * int) array;  (* attr name, partition, index *)
  mutable nrows : int;
}

type t = { tables : (string, table) Hashtbl.t }

let create () = { tables = Hashtbl.create 8 }

let chunk l n =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let create_table t ~name schema =
  if Hashtbl.mem t.tables name then
    invalid_arg (Printf.sprintf "Rowstore: table %S exists" name);
  let chunks = chunk (Schema.attributes schema) attribute_limit in
  let chunks = if chunks = [] then [ [] ] else chunks in
  let parts =
    Array.of_list
      (List.map
         (fun attrs ->
           { pschema = Schema.make attrs; closed = []; current = Buffer.create page_size })
         chunks)
  in
  let locate =
    Array.of_list
      (List.concat
         (List.mapi
            (fun p attrs -> List.mapi (fun i a -> (a.Schema.name, p, i)) attrs)
            chunks))
  in
  Hashtbl.replace t.tables name { schema; parts; locate; nrows = 0 }

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Rowstore: no table %S" name)

let insert t ~name tuple =
  let tbl = table t name in
  if Array.length tuple <> Schema.arity tbl.schema then
    invalid_arg "Rowstore.insert: arity mismatch";
  let offset = ref 0 in
  Array.iter
    (fun part ->
      let arity = Schema.arity part.pschema in
      let payload = Buffer.create 64 in
      for i = 0 to arity - 1 do
        Buffer.add_string payload (Vbson.encode tuple.(!offset + i))
      done;
      offset := !offset + arity;
      let payload = Buffer.contents payload in
      (* tuple header: u32 length (tuples can exceed 64 KB, e.g. flattened
         JSON text columns) *)
      if Buffer.length part.current + String.length payload + 4 > page_size
         && Buffer.length part.current > 0
      then (
        part.closed <- Buffer.contents part.current :: part.closed;
        Buffer.clear part.current);
      let len = String.length payload in
      for shift = 0 to 3 do
        Buffer.add_char part.current (Char.chr ((len lsr (8 * shift)) land 0xFF))
      done;
      Buffer.add_string part.current payload)
    tbl.parts;
  tbl.nrows <- tbl.nrows + 1

let row_count t ~name = (table t name).nrows
let table_schema t ~name = (table t name).schema
let partitions t ~name = Array.length (table t name).parts
let tables t = Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []

let storage_bytes t =
  Hashtbl.fold
    (fun _ tbl acc ->
      Array.fold_left
        (fun acc part ->
          List.fold_left (fun acc p -> acc + String.length p) acc part.closed
          + Buffer.length part.current)
        acc tbl.parts)
    t.tables 0

(* Iterate a partition's tuples in row order, calling [f] with the decoded
   values. *)
let iter_partition part f =
  let arity = Schema.arity part.pschema in
  let scan_page page =
    let n = String.length page in
    let pos = ref 0 in
    while !pos < n do
      let len =
        Char.code page.[!pos]
        lor (Char.code page.[!pos + 1] lsl 8)
        lor (Char.code page.[!pos + 2] lsl 16)
        lor (Char.code page.[!pos + 3] lsl 24)
      in
      let payload_start = !pos + 4 in
      let values = Array.make arity Value.Null in
      let vpos = ref payload_start in
      for i = 0 to arity - 1 do
        let v, next = Vbson.decode_prefix page ~pos:!vpos in
        values.(i) <- v;
        vpos := next
      done;
      f values;
      pos := payload_start + len
    done
  in
  List.iter scan_page (List.rev part.closed);
  if Buffer.length part.current > 0 then scan_page (Buffer.contents part.current)

let scan t ~name ~fields f =
  let tbl = table t name in
  let wanted =
    match fields with
    | None -> Schema.names tbl.schema
    | Some fs -> fs
  in
  (* partitions holding at least one wanted attribute are read whole
     (row-store behaviour: you pay for the full partition row) *)
  let located =
    List.filter_map
      (fun fname ->
        Array.find_opt (fun (n, _, _) -> String.equal n fname) tbl.locate)
      wanted
  in
  let part_ids = List.sort_uniq compare (List.map (fun (_, p, _) -> p) located) in
  match part_ids with
  | [] ->
    (* no known attribute: emit empty records *)
    for _ = 1 to tbl.nrows do
      f (Value.Record (List.map (fun fname -> (fname, Value.Null)) wanted))
    done
  | part_ids ->
    (* materialize each needed partition column-of-tuples, then zip *)
    let decoded =
      List.map
        (fun p ->
          let rows = Array.make tbl.nrows [||] in
          let i = ref 0 in
          iter_partition tbl.parts.(p) (fun values ->
              rows.(!i) <- values;
              incr i);
          (p, rows))
        part_ids
    in
    for row = 0 to tbl.nrows - 1 do
      let fields_out =
        List.map
          (fun fname ->
            match Array.find_opt (fun (n, _, _) -> String.equal n fname) tbl.locate with
            | None -> (fname, Value.Null)
            | Some (_, p, i) -> (fname, (List.assoc p decoded).(row).(i)))
          wanted
      in
      f (Value.Record fields_out)
    done

let run t plan =
  let resolve name ~need consumer =
    let fields =
      match need with
      | Vida_engine.Analysis.Whole -> None
      | Vida_engine.Analysis.Fields fs -> Some fs
    in
    scan t ~name ~fields consumer
  in
  Vida_engine.Interp.resolved ~resolve plan
