(* Answer checking. Every timed answer is compared with a reference answer
   computed on a fresh single-domain instance without plan or result
   reuse. Floats agree to a relative 1e-9, because morsel-parallel folds
   reassociate sums. Collections compare as multisets: the HBP queries
   yield bags and scalars only, and a framed reply decodes every collection
   as a JSON array. *)

open Vida_data

let rel_tol = 1e-9

let numeric = function
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | _ -> None

let is_collection = function
  | Value.List _ | Value.Bag _ | Value.Set _ | Value.Array _ -> true
  | _ -> false

let rec close a b =
  match (numeric a, numeric b) with
  | Some x, Some y ->
    x = y
    || (Float.is_nan x && Float.is_nan y)
    || Float.abs (x -. y) <= rel_tol *. Float.max (Float.abs x) (Float.abs y)
  | _ -> (
    match (a, b) with
    | Value.Record fa, Value.Record fb ->
      List.length fa = List.length fb
      && List.for_all2 (fun (na, va) (nb, vb) -> na = nb && close va vb) fa fb
    | _ when is_collection a && is_collection b ->
      let sa = List.sort Value.compare (Value.elements a)
      and sb = List.sort Value.compare (Value.elements b) in
      List.length sa = List.length sb && List.for_all2 close sa sb
    | _ -> Value.equal a b)

(* Canonical text of an answer: numbers to 9 significant digits (Int and
   Float alike), collections sorted. Two builds that agree under [close]
   almost always print the same text, so its digest compares a parent
   commit with a change. *)
let rec canonical v =
  match v with
  | Value.Null -> "null"
  | Value.Bool b -> string_of_bool b
  | Value.Int _ | Value.Float _ ->
    Printf.sprintf "%.9g" (Option.get (numeric v))
  | Value.String s -> Printf.sprintf "%S" s
  | Value.Record fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (name, x) -> Printf.sprintf "%S:%s" name (canonical x)) fields)
    ^ "}"
  | Value.List _ | Value.Bag _ | Value.Set _ | Value.Array _ ->
    "["
    ^ String.concat "," (List.sort compare (List.map canonical (Value.elements v)))
    ^ "]"

(* [None] stands for a query that returned an error. *)
let digest answers =
  answers
  |> List.map (function Some v -> canonical v | None -> "error")
  |> String.concat "\n" |> Digest.string |> Digest.to_hex
