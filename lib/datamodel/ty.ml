type coll = Set | Bag | List | Array

type t =
  | Bool
  | Int
  | Float
  | String
  | Record of (string * t) list
  | Coll of coll * t
  | Any

(* Physically equal types are equal: derived schemas share the field
   types of the catalog's collection types, so comparing a schema with
   itself does not walk a wide record. *)
let rec equal a b =
  a == b ||
  match a, b with
  | Bool, Bool | Int, Int | Float, Float | String, String | Any, Any -> true
  | Record fa, Record fb ->
    List.length fa = List.length fb
    && List.for_all2 (fun (na, ta) (nb, tb) -> String.equal na nb && equal ta tb) fa fb
  | Coll (ka, ta), Coll (kb, tb) -> ka = kb && equal ta tb
  | (Bool | Int | Float | String | Record _ | Coll _ | Any), _ -> false

let rec unify a b =
  if a == b then Some a
  else
    match a, b with
    | Any, t | t, Any -> Some t
    | Int, Float | Float, Int -> Some Float
    | Record fa, Record fb when List.length fa = List.length fb ->
      let unify_field (na, ta) (nb, tb) =
        if String.equal na nb then Option.map (fun t -> (na, t)) (unify ta tb)
        else None
      in
      let fields = List.map2 unify_field fa fb in
      if List.for_all Option.is_some fields then
        Some (Record (List.map Option.get fields))
      else None
    | Coll (ka, ta), Coll (kb, tb) when ka = kb ->
      Option.map (fun t -> Coll (ka, t)) (unify ta tb)
    | _ -> if equal a b then Some a else None

let is_numeric = function Int | Float | Any -> true | _ -> false

let field t name =
  match t with
  | Record fields -> List.assoc_opt name fields
  | Any -> Some Any
  | _ -> None

let element = function
  | Coll (_, t) -> Some t
  | Any -> Some Any
  | _ -> None

let coll_name = function
  | Set -> "set"
  | Bag -> "bag"
  | List -> "list"
  | Array -> "array"

let rec pp ppf = function
  | Bool -> Format.pp_print_string ppf "bool"
  | Int -> Format.pp_print_string ppf "int"
  | Float -> Format.pp_print_string ppf "float"
  | String -> Format.pp_print_string ppf "string"
  | Any -> Format.pp_print_string ppf "any"
  | Record fields ->
    let pp_field ppf (name, t) = Format.fprintf ppf "%s: %a" name pp t in
    Format.fprintf ppf "<%a>"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_field)
      fields
  | Coll (k, t) -> Format.fprintf ppf "%s(%a)" (coll_name k) pp t

let to_string t = Format.asprintf "%a" pp t
