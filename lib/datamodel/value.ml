type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Record of (string * t) list
  | List of t list
  | Bag of t list
  | Set of t list
  | Array of { dims : int list; data : t array }

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2 (* numerics share a rank: compared numerically *)
  | String _ -> 3
  | Record _ -> 4
  | List _ -> 5
  | Bag _ -> 6
  | Set _ -> 7
  | Array _ -> 8

let rec compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool a, Bool b -> Bool.compare a b
  | Int a, Int b -> Int.compare a b
  | Float a, Float b -> Float.compare a b
  | Int a, Float b -> Float.compare (float_of_int a) b
  | Float a, Int b -> Float.compare a (float_of_int b)
  | String a, String b -> String.compare a b
  | Record a, Record b ->
    let cmp_field (na, va) (nb, vb) =
      let c = String.compare na nb in
      if c <> 0 then c else compare va vb
    in
    compare_lists cmp_field a b
  | List a, List b | Bag a, Bag b | Set a, Set b -> compare_lists compare a b
  | Array a, Array b ->
    let c = Stdlib.compare a.dims b.dims in
    if c <> 0 then c
    else compare_lists compare (Stdlib.Array.to_list a.data) (Stdlib.Array.to_list b.data)
  | _ -> Int.compare (rank a) (rank b)

and compare_lists : 'a. ('a -> 'a -> int) -> 'a list -> 'a list -> int =
  fun cmp a b ->
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b ->
    let c = cmp x y in
    if c <> 0 then c else compare_lists cmp a b

let equal a b = compare a b = 0

let rec hash v =
  match v with
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s
  | Record fields ->
    List.fold_left (fun acc (n, v) -> (acc * 65599) + Hashtbl.hash n + hash v) 43 fields
  | List vs | Bag vs | Set vs ->
    List.fold_left (fun acc v -> (acc * 65599) + hash v) (47 + rank v) vs
  | Array { dims; data } ->
    Stdlib.Array.fold_left
      (fun acc v -> (acc * 65599) + hash v)
      (53 + Hashtbl.hash dims) data

module Keys = Hashtbl.Make (struct
  type nonrec t = t list

  let equal a b = List.equal equal a b
  let hash ks = List.fold_left (fun acc v -> (acc * 65599) + hash v) 17 ks
end)

let rec has_null = function
  | [] -> false
  | Null :: _ -> true
  | _ :: rest -> has_null rest

let set_of_list vs = Set (List.sort_uniq compare vs)

let to_bool = function
  | Bool b -> b
  | v -> type_error "expected bool, got %s" (match v with Null -> "null" | _ -> "non-bool")

let to_int = function
  | Int i -> i
  | v -> type_error "expected int (rank %d)" (rank v)

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "expected numeric (rank %d)" (rank v)

let to_string_exn = function
  | String s -> s
  | v -> type_error "expected string (rank %d)" (rank v)

let field_opt v name =
  match v with Record fields -> List.assoc_opt name fields | _ -> None

let field v name =
  match v with
  | Record fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> type_error "record has no field %S" name)
  | _ -> type_error "field %S projected from non-record" name

let elements = function
  | List vs | Bag vs | Set vs -> vs
  | Array { data; _ } -> Stdlib.Array.to_list data
  | _ -> type_error "expected a collection"

let array_get v idxs =
  match v with
  | Array { dims; data } ->
    if List.length idxs <> List.length dims then
      type_error "array indexed with %d indices, has %d dims" (List.length idxs)
        (List.length dims);
    let flat =
      List.fold_left2
        (fun acc i d ->
          if i < 0 || i >= d then type_error "array index %d out of bound %d" i d;
          (acc * d) + i)
        0 idxs dims
    in
    data.(flat)
  | _ -> type_error "indexing a non-array"

let rec typeof = function
  | Null -> Ty.Any
  | Bool _ -> Ty.Bool
  | Int _ -> Ty.Int
  | Float _ -> Ty.Float
  | String _ -> Ty.String
  | Record fields -> Ty.Record (List.map (fun (n, v) -> (n, typeof v)) fields)
  | List vs -> Ty.Coll (Ty.List, element_type vs)
  | Bag vs -> Ty.Coll (Ty.Bag, element_type vs)
  | Set vs -> Ty.Coll (Ty.Set, element_type vs)
  | Array { data; _ } -> Ty.Coll (Ty.Array, element_type (Stdlib.Array.to_list data))

and element_type vs =
  (* least upper bound of the element types; an irreconcilable pair makes the
     whole collection [Any] (it must not re-specialize afterwards) *)
  match vs with
  | [] -> Ty.Any
  | v :: rest ->
    (* [Ty.unify] treats [Any] as a gradual unknown that can re-specialize;
       here [Any] must be an absorbing top or elements stop conforming *)
    let lub a b =
      let rec go a b =
        match a, b with
        | Ty.Any, _ | _, Ty.Any -> Ty.Any
        | Ty.Record fa, Ty.Record fb when List.length fa = List.length fb ->
          if List.for_all2 (fun (na, _) (nb, _) -> String.equal na nb) fa fb then
            Ty.Record (List.map2 (fun (n, ta) (_, tb) -> (n, go ta tb)) fa fb)
          else Ty.Any
        | Ty.Coll (ka, ta), Ty.Coll (kb, tb) when ka = kb -> Ty.Coll (ka, go ta tb)
        | a, b -> ( match Ty.unify a b with Some t -> t | None -> Ty.Any)
      in
      go a b
    in
    let rec go acc = function
      | [] -> acc
      | v :: rest -> go (lub acc (typeof v)) rest
    in
    go (typeof v) rest

let rec conforms v ty =
  match v, ty with
  | Null, _ -> true
  | _, Ty.Any -> true
  | Bool _, Ty.Bool | Int _, Ty.Int | Float _, Ty.Float | String _, Ty.String -> true
  | Int _, Ty.Float -> true (* numeric widening accepted on ingestion *)
  | Record fields, Ty.Record ftys ->
    List.length fields = List.length ftys
    && List.for_all2
         (fun (n, v) (n', t) -> String.equal n n' && conforms v t)
         fields ftys
  | List vs, Ty.Coll (Ty.List, t)
  | Bag vs, Ty.Coll (Ty.Bag, t)
  | Set vs, Ty.Coll (Ty.Set, t) ->
    List.for_all (fun v -> conforms v t) vs
  | Array { data; _ }, Ty.Coll (Ty.Array, t) ->
    Stdlib.Array.for_all (fun v -> conforms v t) data
  | _ -> false

let pp_sep ppf () = Format.fprintf ppf ", "

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.fprintf ppf "%S" s
  | Record fields ->
    let pp_field ppf (n, v) = Format.fprintf ppf "%s := %a" n pp v in
    Format.fprintf ppf "<%a>" (Format.pp_print_list ~pp_sep pp_field) fields
  | List vs -> Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep pp) vs
  | Bag vs -> Format.fprintf ppf "{|%a|}" (Format.pp_print_list ~pp_sep pp) vs
  | Set vs -> Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep pp) vs
  | Array { dims; data } ->
    Format.fprintf ppf "array%a[%a]"
      (fun ppf dims ->
        Format.fprintf ppf "(%a)"
          (Format.pp_print_list ~pp_sep Format.pp_print_int)
          dims)
      dims
      (Format.pp_print_list ~pp_sep pp)
      (Stdlib.Array.to_list data)

let to_string v = Format.asprintf "%a" pp v

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let to_json v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | String s ->
      Buffer.add_char buf '"';
      json_escape buf s;
      Buffer.add_char buf '"'
    | Record fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (n, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          json_escape buf n;
          Buffer.add_string buf "\":";
          go v)
        fields;
      Buffer.add_char buf '}'
    | List vs | Bag vs | Set vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        vs;
      Buffer.add_char buf ']'
    | Array { dims; data } -> go_array dims data 0 (Stdlib.Array.length data)
  and go_array dims data off len =
    match dims with
    | [] | [ _ ] ->
      Buffer.add_char buf '[';
      for i = off to off + len - 1 do
        if i > off then Buffer.add_char buf ',';
        go data.(i)
      done;
      Buffer.add_char buf ']'
    | d :: rest ->
      let stride = len / d in
      Buffer.add_char buf '[';
      for i = 0 to d - 1 do
        if i > 0 then Buffer.add_char buf ',';
        go_array rest data (off + (i * stride)) stride
      done;
      Buffer.add_char buf ']'
  in
  go v;
  Buffer.contents buf

(* FNV-1a over native ints. OCaml ints wrap mod 2^63, and the low 63 bits
   of a product mod 2^64 depend only on the low 63 bits of its operands, so
   starting from the offset basis 0xcbf29ce484222325 cut to 63 bits gives
   the 64-bit hash's low bits exactly; 62 of them are kept. *)
let fnv64 s =
  let h = ref 0x4bf29ce484222325 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h land 0x3FFFFFFFFFFFFFFF

type encoded = { json : string; crc : int }

let encode v =
  let json = to_json v in
  { json; crc = fnv64 json }
