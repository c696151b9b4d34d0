open Vida_data

type prim =
  | Sum | Prod | Max | Min | Count | Avg | Median | All | Some_
  | Top of int  (* k largest values, descending list *)
  | Bottom of int  (* k smallest values, ascending list *)

type t = Prim of prim | Coll of Ty.coll

let commutative = function
  | Prim _ -> true
  | Coll Ty.Set | Coll Ty.Bag -> true
  | Coll Ty.List | Coll Ty.Array -> false

let idempotent = function
  | Prim (Max | Min | All | Some_) -> true
  | Prim (Sum | Prod | Count | Avg | Median | Top _ | Bottom _) -> false
  | Coll Ty.Set -> true
  | Coll (Ty.Bag | Ty.List | Ty.Array) -> false

(* Fegaras & Maier require an idempotent accumulator for set generators; we
   relax that: set values are kept canonical (sorted, deduplicated), so any
   commutative fold over their elements is operationally well-defined — this
   is what lets SQL's grouping and DISTINCT aggregates translate. The strict
   idempotence condition still guards the normalizer's flattening rule
   (Rewrite.flatten_ok), where deduplication really would be lost. *)
let accepts ~acc ~gen =
  match gen with
  | Ty.Set | Ty.Bag -> commutative acc
  | Ty.List | Ty.Array -> true

let zero = function
  | Prim Sum -> Value.Int 0
  | Prim Prod -> Value.Int 1
  | Prim Count -> Value.Int 0
  | Prim Max | Prim Min -> Value.Null
  | Prim Avg -> Value.Record [ ("sum", Value.Float 0.); ("count", Value.Int 0) ]
  | Prim Median -> Value.List []
  | Prim (Top _ | Bottom _) -> Value.List []
  | Prim All -> Value.Bool true
  | Prim Some_ -> Value.Bool false
  | Coll Ty.Set -> Value.Set []
  | Coll Ty.Bag -> Value.Bag []
  | Coll Ty.List -> Value.List []
  | Coll Ty.Array -> Value.Array { dims = [ 0 ]; data = [||] }

let numeric_binop name fint ffloat a b =
  match a, b with
  | Value.Int x, Value.Int y -> Value.Int (fint x y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Value.Float (ffloat (Value.to_float a) (Value.to_float b))
  | _ -> Value.type_error "%s over non-numeric values" name

let merge m a b =
  match m, a, b with
  (* aggregate monoids skip NULL contributions (SQL aggregate semantics) *)
  | Prim (Sum | Prod | Count | All | Some_), Value.Null, v
  | Prim (Sum | Prod | Count | All | Some_), v, Value.Null ->
    v
  | _ ->
  match m with
  | Prim Sum -> numeric_binop "sum" ( + ) ( +. ) a b
  | Prim Prod -> numeric_binop "prod" ( * ) ( *. ) a b
  | Prim Count -> numeric_binop "count" ( + ) ( +. ) a b
  | Prim Max -> (
    match a, b with
    | Value.Null, v | v, Value.Null -> v
    | a, b -> if Value.compare a b >= 0 then a else b)
  | Prim Min -> (
    match a, b with
    | Value.Null, v | v, Value.Null -> v
    | a, b -> if Value.compare a b <= 0 then a else b)
  | Prim Avg ->
    let sum v = Value.to_float (Value.field v "sum")
    and count v = Value.to_int (Value.field v "count") in
    Value.Record
      [ ("sum", Value.Float (sum a +. sum b));
        ("count", Value.Int (count a + count b))
      ]
  | Prim Median -> Value.List (Value.elements a @ Value.elements b)
  | Prim (Top k) ->
    (* keep only the k largest; descending order makes merge associative *)
    let merged =
      List.sort (fun x y -> Value.compare y x) (Value.elements a @ Value.elements b)
    in
    Value.List (List.filteri (fun i _ -> i < k) merged)
  | Prim (Bottom k) ->
    let merged = List.sort Value.compare (Value.elements a @ Value.elements b) in
    Value.List (List.filteri (fun i _ -> i < k) merged)
  | Prim All -> Value.Bool (Value.to_bool a && Value.to_bool b)
  | Prim Some_ -> Value.Bool (Value.to_bool a || Value.to_bool b)
  | Coll Ty.Set -> Value.set_of_list (Value.elements a @ Value.elements b)
  | Coll Ty.Bag -> Value.Bag (Value.elements a @ Value.elements b)
  | Coll Ty.List -> Value.List (Value.elements a @ Value.elements b)
  | Coll Ty.Array -> (
    match a, b with
    | Value.Array a', Value.Array b' ->
      Value.Array
        { dims = [ Array.length a'.data + Array.length b'.data ];
          data = Array.append a'.data b'.data
        }
    | _ -> Value.type_error "array merge over non-arrays")

let unit m v =
  match m with
  | Prim Count -> if v = Value.Null then Value.Int 0 else Value.Int 1
  | Prim Avg ->
    if v = Value.Null then zero (Prim Avg)
    else
      Value.Record [ ("sum", Value.Float (Value.to_float v)); ("count", Value.Int 1) ]
  | Prim Median -> if v = Value.Null then Value.List [] else Value.List [ v ]
  | Prim (Top _ | Bottom _) -> if v = Value.Null then Value.List [] else Value.List [ v ]
  | Prim (Sum | Prod | Max | Min | All | Some_) -> v
  | Coll Ty.Set -> Value.Set [ v ]
  | Coll Ty.Bag -> Value.Bag [ v ]
  | Coll Ty.List -> Value.List [ v ]
  | Coll Ty.Array -> Value.Array { dims = [ 1 ]; data = [| v |] }

let finalize m acc =
  match m with
  | Prim Avg ->
    let count = Value.to_int (Value.field acc "count") in
    if count = 0 then Value.Null
    else Value.Float (Value.to_float (Value.field acc "sum") /. float_of_int count)
  | Prim Median -> (
    match List.sort Value.compare (Value.elements acc) with
    | [] -> Value.Null
    | vs ->
      let n = List.length vs in
      let mid = List.nth vs (n / 2) in
      if n mod 2 = 1 then mid
      else
        let lower = List.nth vs ((n / 2) - 1) in
        (match lower, mid with
        | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
          Value.Float ((Value.to_float lower +. Value.to_float mid) /. 2.)
        | _ -> lower))
  | _ -> acc

(* Folding [acc := merge m acc (unit m v)] copies the whole carrier of a
   collection (and of median) on every element. The accumulator keeps
   their contributions newest-first and builds the carrier once; scalar
   monoids merge in place, each step O(1) (O(k) for top/bottom k). *)
type accumulator = {
  monoid : t;
  mutable acc : Value.t;  (* scalar monoids: the running merge *)
  mutable items : Value.t list;  (* collection monoids, newest first *)
  mutable count : int;
}

let accumulator m = { monoid = m; acc = zero m; items = []; count = 0 }

let resumable = function
  | Prim (Count | Sum | Prod | Max | Min | Avg | All | Some_) | Coll (Ty.Bag | Ty.List) ->
    true
  | Prim (Median | Top _ | Bottom _) | Coll (Ty.Set | Ty.Array) -> false

let resume m carrier =
  match m with
  | Coll _ | Prim Median ->
    let items = List.rev (Value.elements carrier) in
    { monoid = m; acc = zero m; items; count = List.length items }
  | Prim _ -> { monoid = m; acc = carrier; items = []; count = 0 }

let add a v =
  match a.monoid, v with
  | Prim Median, Value.Null -> ()
  | (Coll _ | Prim Median), v ->
    a.items <- v :: a.items;
    a.count <- a.count + 1
  | m, v -> a.acc <- merge m a.acc (unit m v)

(* a set keeps the first of equal elements, as merging one by one does *)
let dedup_sorted vs =
  let rec go kept = function
    | x :: y :: rest when Value.equal x y -> go kept (x :: rest)
    | x :: rest -> go (x :: kept) rest
    | [] -> List.rev kept
  in
  go [] vs

let contents a =
  match a.monoid with
  | Coll Ty.Bag -> Value.Bag (List.rev a.items)
  | Coll Ty.List | Prim Median -> Value.List (List.rev a.items)
  | Coll Ty.Set ->
    Value.Set (dedup_sorted (List.stable_sort Value.compare (List.rev a.items)))
  | Coll Ty.Array ->
    Value.Array { dims = [ a.count ]; data = Array.of_list (List.rev a.items) }
  | Prim _ -> a.acc

let fold m vs =
  let a = accumulator m in
  List.iter (add a) vs;
  finalize m (contents a)

let name = function
  | Prim Sum -> "sum"
  | Prim Prod -> "prod"
  | Prim Max -> "max"
  | Prim Min -> "min"
  | Prim Count -> "count"
  | Prim Avg -> "avg"
  | Prim Median -> "median"
  | Prim All -> "all"
  | Prim Some_ -> "some"
  | Prim (Top k) -> Printf.sprintf "top(%d)" k
  | Prim (Bottom k) -> Printf.sprintf "bottom(%d)" k
  | Coll k -> Ty.coll_name k

let of_name = function
  | "sum" -> Some (Prim Sum)
  | "prod" -> Some (Prim Prod)
  | "max" -> Some (Prim Max)
  | "min" -> Some (Prim Min)
  | "count" -> Some (Prim Count)
  | "avg" -> Some (Prim Avg)
  | "median" -> Some (Prim Median)
  | "all" -> Some (Prim All)
  | "some" | "exists" -> Some (Prim Some_)
  | "set" -> Some (Coll Ty.Set)
  | "bag" -> Some (Coll Ty.Bag)
  | "list" -> Some (Coll Ty.List)
  | "array" -> Some (Coll Ty.Array)
  | _ -> None

let equal a b = a = b
let pp ppf m = Format.pp_print_string ppf (name m)
