open Vida_calculus
open Vida_algebra

let rec conjuncts (e : Expr.t) =
  match e with
  | Expr.BinOp (Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Expr.bool true
  | first :: rest ->
    List.fold_left (fun acc c -> Expr.BinOp (Expr.And, acc, c)) first rest

let subset vars allowed = List.for_all (fun v -> List.mem v allowed) vars

type rule = { name : string; rewrite : Plan.t -> Plan.t option }

(* Each rule is one local rewrite attempt at the root of a subtree. *)

let select_true_elim (p : Plan.t) =
  match p with
  | Plan.Select { pred = Expr.Const (Vida_data.Value.Bool true); child } -> Some child
  | _ -> None

let select_split_conjunction (p : Plan.t) =
  match p with
  | Plan.Select { pred = Expr.BinOp (Expr.And, a, b); child } ->
    Some (Plan.Select { pred = a; child = Plan.Select { pred = b; child } })
  | _ -> None

let select_past_map (p : Plan.t) =
  match p with
  | Plan.Select { pred; child = Plan.Map ({ var; _ } as m) }
    when not (List.mem var (Expr.free_vars pred)) ->
    Some (Plan.Map { m with child = Plan.Select { pred; child = m.child } })
  | _ -> None

let select_past_unnest (p : Plan.t) =
  match p with
  | Plan.Select { pred; child = Plan.Unnest ({ var; _ } as u) }
    when not (List.mem var (Expr.free_vars pred)) ->
    Some (Plan.Unnest { u with child = Plan.Select { pred; child = u.child } })
  | _ -> None

let select_into_product (p : Plan.t) =
  match p with
  | Plan.Select { pred; child = Plan.Product { left; right } } ->
    let fv = Expr.free_vars pred in
    let lvars = Plan.bound_vars left and rvars = Plan.bound_vars right in
    if subset fv lvars then
      Some (Plan.Product { left = Plan.Select { pred; child = left }; right })
    else if subset fv rvars then
      Some (Plan.Product { left; right = Plan.Select { pred; child = right } })
    else Some (Plan.Join { pred; left; right })
  | _ -> None

let select_into_join (p : Plan.t) =
  match p with
  | Plan.Select { pred; child = Plan.Join ({ left; right; _ } as j) } ->
    let fv = Expr.free_vars pred in
    let lvars = Plan.bound_vars left and rvars = Plan.bound_vars right in
    if subset fv lvars then
      Some (Plan.Join { j with left = Plan.Select { pred; child = left } })
    else if subset fv rvars then
      Some (Plan.Join { j with right = Plan.Select { pred; child = right } })
    else Some (Plan.Join { j with pred = conjoin (conjuncts j.pred @ [ pred ]) })
  | _ -> None

let product_unit_elim (p : Plan.t) =
  match p with
  | Plan.Product { left = Plan.Unit; right } -> Some right
  | Plan.Product { left; right = Plan.Unit } -> Some left
  | _ -> None

let builtin_rules =
  [ { name = "select-true-elim"; rewrite = select_true_elim };
    { name = "select-split-conjunction"; rewrite = select_split_conjunction };
    { name = "select-past-map"; rewrite = select_past_map };
    { name = "select-past-unnest"; rewrite = select_past_unnest };
    { name = "select-into-product"; rewrite = select_into_product };
    { name = "select-into-join"; rewrite = select_into_join };
    { name = "product-unit-elim"; rewrite = product_unit_elim } ]

let extra_rules : rule list ref = ref []

type check = rule:string -> before:Plan.t -> after:Plan.t -> unit

let no_check ~rule:_ ~before:_ ~after:_ = ()

(* One rewrite attempt at the root: first applicable rule wins. Every
   firing is reported to [check] with the rule named — a subtree is
   closed over its own binders (the algebra binds bottom-up), so it can be
   verified in isolation. *)
let rewrite_root check (p : Plan.t) : Plan.t option =
  let rec try_rules = function
    | [] -> None
    | r :: rest -> (
      match r.rewrite p with
      | None -> try_rules rest
      | Some p' ->
        check ~rule:r.name ~before:p ~after:p';
        Some p')
  in
  try_rules (builtin_rules @ !extra_rules)

let rec fixpoint_root check p n =
  if n = 0 then p
  else
    match rewrite_root check p with
    | Some p' -> fixpoint_root check p' (n - 1)
    | None -> p

let rec pass check p =
  let p = fixpoint_root check p 32 in
  Plan.map_children (pass check) p

let apply ?(check = no_check) p =
  (* a pushed-down selection can enable further pushdown below it: iterate
     whole-tree passes to a (bounded) fixpoint *)
  let rec go p n =
    if n = 0 then p
    else
      let p' = pass check p in
      if Plan.equal p' p then p else go p' (n - 1)
  in
  go p 16
