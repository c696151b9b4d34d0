open Vida_calculus
open Vida_algebra

type need = Fields of string list | Whole

module Sset = Set.Make (String)

(* Walk an expression recording uses of [var]: Proj (Var var, f) counts as a
   field use; any other occurrence of Var var counts as a whole-value
   escape. Binders shadow. *)
let rec walk var fields whole (e : Expr.t) =
  match e with
  | Expr.Proj (Expr.Var v, f) when String.equal v var -> fields := Sset.add f !fields
  | Expr.Var v -> if String.equal v var then whole := true
  | Expr.Const _ | Expr.Zero _ -> ()
  | Expr.Proj (e, _) | Expr.UnOp (_, e) | Expr.Singleton (_, e) -> walk var fields whole e
  | Expr.Record fs -> List.iter (fun (_, e) -> walk var fields whole e) fs
  | Expr.If (a, b, c) ->
    walk var fields whole a;
    walk var fields whole b;
    walk var fields whole c
  | Expr.BinOp (_, a, b) | Expr.Apply (a, b) | Expr.Merge (_, a, b) ->
    walk var fields whole a;
    walk var fields whole b
  | Expr.Lambda (v, body) -> if not (String.equal v var) then walk var fields whole body
  | Expr.Index (e, idxs) ->
    walk var fields whole e;
    List.iter (walk var fields whole) idxs
  | Expr.Comp (_, head, quals) ->
    let rec go shadowed = function
      | [] -> if not shadowed then walk var fields whole head
      | Expr.Pred p :: rest ->
        if not shadowed then walk var fields whole p;
        go shadowed rest
      | Expr.Gen (v, e) :: rest | Expr.Bind (v, e) :: rest ->
        if not shadowed then walk var fields whole e;
        go (shadowed || String.equal v var) rest
    in
    go false quals

let var_needs exprs ~var =
  let fields = ref Sset.empty and whole = ref false in
  List.iter (walk var fields whole) exprs;
  if !whole then Whole else Fields (Sset.elements !fields)

let plan_exprs p =
  let acc = ref [] in
  let rec go (p : Plan.t) =
    (match p with
    | Plan.Unit -> ()
    | Plan.Source { expr; _ } -> acc := expr :: !acc
    | Plan.Select { pred; _ } -> acc := pred :: !acc
    | Plan.Map { expr; _ } -> acc := expr :: !acc
    | Plan.Product _ -> ()
    | Plan.Join { pred; _ } -> acc := pred :: !acc
    | Plan.Unnest { path; _ } -> acc := path :: !acc
    | Plan.Reduce { head; _ } -> acc := head :: !acc
    | Plan.Nest { head; keys; _ } -> acc := head :: (List.map snd keys @ !acc));
    List.iter go (Plan.children p)
  in
  go p;
  !acc

let plan_var_needs p ~var = var_needs (plan_exprs p) ~var

let neutralize_count (plan : Plan.t) =
  match plan with
  | Plan.Reduce ({ monoid = Monoid.Prim Monoid.Count; head = Expr.Var v; child } as r) ->
    let rec source_vars p acc =
      match p with
      | Plan.Source { var; _ } -> var :: acc
      | Plan.Select { child; _ } | Plan.Map { child; _ } -> source_vars child acc
      | Plan.Join { left; right; _ } | Plan.Product { left; right } ->
        source_vars left (source_vars right acc)
      | _ -> acc
    in
    if List.mem v (source_vars child []) then
      Plan.Reduce { r with head = Expr.Const (Vida_data.Value.Int 0) }
    else plan
  | plan -> plan

let range_of ~var (e : Expr.t) =
  let num = function
    | Vida_data.Value.Int i -> Some (float_of_int i)
    | Vida_data.Value.Float f -> Some f
    | _ -> None
  in
  let bound op k =
    match op with
    | Expr.Eq -> Some (Some k, Some k)
    | Expr.Ge | Expr.Gt -> Some (Some k, None)
    | Expr.Le | Expr.Lt -> Some (None, Some k)
    | _ -> None
  in
  let flip = function
    | Expr.Ge -> Expr.Le
    | Expr.Gt -> Expr.Lt
    | Expr.Le -> Expr.Ge
    | Expr.Lt -> Expr.Gt
    | op -> op
  in
  match e with
  | Expr.BinOp (op, Expr.Proj (Expr.Var v, f), Expr.Const c) when String.equal v var -> (
    match num c with
    | Some k -> Option.map (fun (lo, hi) -> (f, lo, hi)) (bound op k)
    | None -> None)
  | Expr.BinOp (op, Expr.Const c, Expr.Proj (Expr.Var v, f)) when String.equal v var -> (
    match num c with
    | Some k -> Option.map (fun (lo, hi) -> (f, lo, hi)) (bound (flip op) k)
    | None -> None)
  | _ -> None

let rec conjuncts (e : Expr.t) =
  match e with
  | Expr.BinOp (Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let subset vars allowed =
  List.for_all (fun v -> List.mem v allowed) vars

let split_equi ~left ~right pred =
  let keys = ref [] and residual = ref [] in
  List.iter
    (fun c ->
      match c with
      | Expr.BinOp (Expr.Eq, a, b) ->
        let fa = Expr.free_vars a and fb = Expr.free_vars b in
        if subset fa left && subset fb right && fa <> [] && fb <> [] then
          keys := (a, b) :: !keys
        else if subset fb left && subset fa right && fa <> [] && fb <> [] then
          keys := (b, a) :: !keys
        else residual := c :: !residual
      | c -> residual := c :: !residual)
    (conjuncts pred);
  let residual =
    match List.rev !residual with
    | [] -> None
    | first :: rest ->
      Some (List.fold_left (fun acc c -> Expr.BinOp (Expr.And, acc, c)) first rest)
  in
  (List.rev !keys, residual)
