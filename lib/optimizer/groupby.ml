open Vida_calculus
open Vida_algebra

(* variables bound by a qualifier list, in order *)
let binder_vars quals =
  List.filter_map
    (function Expr.Gen (v, _) | Expr.Bind (v, _) -> Some v | Expr.Pred _ -> None)
    quals

(* the extra qualifiers of an aggregate must be exactly the key-equality
   filters: for each (n, key_expr), Pred (key_expr = Proj (k, n)) *)
let match_key_filters k key_fields extra =
  let remaining = ref key_fields in
  let ok =
    List.for_all
      (fun q ->
        match q with
        | Expr.Pred (Expr.BinOp (Expr.Eq, lhs, Expr.Proj (Expr.Var k', n)))
          when String.equal k' k -> (
          match List.assoc_opt n !remaining with
          | Some key_expr when Expr.equal lhs key_expr ->
            remaining := List.remove_assoc n !remaining;
            true
          | _ -> false)
        | _ -> false)
      extra
  in
  ok && !remaining = []

let split_prefix prefix l =
  let rec go p l =
    match p, l with
    | [], rest -> Some rest
    | _ :: _, [] -> None
    | x :: p, y :: l ->
      (match x, y with
      | Expr.Gen (v, e), Expr.Gen (w, f) | Expr.Bind (v, e), Expr.Bind (w, f) ->
        if String.equal v w && Expr.equal e f then go p l else None
      | Expr.Pred e, Expr.Pred f -> if Expr.equal e f then go p l else None
      | _ -> None)
  in
  go prefix l

type out_field =
  | Key of string  (* key name *)
  | Agg of Monoid.t * Expr.t  (* aggregate monoid, head over the inner vars *)

let rewrite (plan : Plan.t) : Plan.t option =
  match plan with
  | Plan.Reduce
      { monoid = out_m;
        head = Expr.Record out_fields;
        child =
          Plan.Source
            { var = k;
              expr = Expr.Comp (Monoid.Coll Vida_data.Ty.Set, Expr.Record key_fields, gquals)
            }
      } -> (
    let inner_vars = binder_vars gquals in
    let key_names = List.map fst key_fields in
    let classify (name, e) =
      match e with
      | Expr.Proj (Expr.Var k', n) when String.equal k' k && List.mem n key_names ->
        Some (name, Key n)
      | Expr.Comp ((Monoid.Prim _ as agg_m), agg_head, aq) -> (
        match split_prefix gquals aq with
        | Some extra
          when match_key_filters k key_fields extra
               && List.for_all (fun v -> List.mem v inner_vars || not (String.equal v k))
                    (Expr.free_vars agg_head) ->
          Some (name, Agg (agg_m, agg_head))
        | _ -> None)
      | _ -> None
    in
    let classified = List.map classify out_fields in
    if List.exists Option.is_none classified then None
    else (
      let classified = List.map Option.get classified in
      (* the grouped stream: the group-by qualifiers as a plan *)
      let stream =
        match Translate.plan_of_comp (Expr.Comp (Monoid.Coll Vida_data.Ty.Bag, Expr.int 0, gquals)) with
        | Plan.Reduce { child; _ } -> child
        | p -> p
      in
      let group_var = Expr.fresh_var "group" in
      let elem_var = Expr.fresh_var "x" in
      (* each group collects a record of the inner bindings *)
      let carrier = Expr.Record (List.map (fun v -> (v, Expr.Var v)) inner_vars) in
      let over_element e =
        List.fold_left
          (fun e v -> Expr.subst v (Expr.Proj (Expr.Var elem_var, v)) e)
          e inner_vars
      in
      let nest =
        Plan.Nest
          { monoid = Monoid.Coll Vida_data.Ty.Bag;
            var = group_var;
            head = carrier;
            keys = key_fields;
            child = stream
          }
      in
      (* per-group aggregates keep the key-equality filter so NULL-keyed
         rows still contribute to nothing (three-valued equality), exactly
         as in the correlated encoding *)
      let key_filters =
        List.map
          (fun (n, key_expr) ->
            Expr.Pred (Expr.BinOp (Expr.Eq, over_element key_expr, Expr.Var n)))
          key_fields
      in
      let head' =
        Expr.Record
          (List.map
             (fun (name, cls) ->
               match cls with
               | Key n -> (name, Expr.Var n)
               | Agg (agg_m, agg_head) ->
                 ( name,
                   Expr.Comp
                     ( agg_m,
                       over_element agg_head,
                       Expr.Gen (elem_var, Expr.Var group_var) :: key_filters ) ))
             classified)
      in
      let rewritten = Plan.Reduce { monoid = out_m; head = head'; child = nest } in
      match Plan.validate ~externals:(Plan.free_vars plan) rewritten with
      | Ok () -> Some rewritten
      | Error _ -> None))
  | _ -> None
