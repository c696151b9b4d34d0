open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_engine

type env = (string * Value.t) list

let eval_scalar (env : env) e =
  Eval.eval (Eval.env_of_list env) e

let rec stream ~resolve needs (p : Plan.t) (emit : env -> unit) : unit =
  match p with
  | Plan.Unit -> emit []
  | Plan.Source { var; expr } -> (
    match expr with
    | Expr.Var name ->
      let need =
        match Hashtbl.find_opt needs var with
        | Some n -> n
        | None -> Analysis.Whole
      in
      resolve name ~need (fun v -> emit [ (var, v) ])
    | e ->
      let v = eval_scalar [] e in
      List.iter (fun v -> emit [ (var, v) ]) (Value.elements v))
  | Plan.Select { pred; child } ->
    stream ~resolve needs child (fun env ->
        if Eval.truthy (eval_scalar env pred) then emit env)
  | Plan.Map { var; expr; child } ->
    stream ~resolve needs child (fun env -> emit (env @ [ (var, eval_scalar env expr) ]))
  | Plan.Unnest { var; path; outer; child } ->
    stream ~resolve needs child (fun env ->
        let elements =
          match eval_scalar env path with
          | Value.Null -> []
          | coll -> Value.elements coll
        in
        match elements with
        | [] -> if outer then emit (env @ [ (var, Value.Null) ])
        | vs -> List.iter (fun v -> emit (env @ [ (var, v) ])) vs)
  | Plan.Product { left; right } ->
    let rights = ref [] in
    stream ~resolve needs right (fun env -> rights := env :: !rights);
    let rights = List.rev !rights in
    stream ~resolve needs left (fun lenv ->
        List.iter (fun renv -> emit (lenv @ renv)) rights)
  | Plan.Join { pred; left; right } -> (
    let lvars = Plan.bound_vars left and rvars = Plan.bound_vars right in
    let keys, residual = Analysis.split_equi ~left:lvars ~right:rvars pred in
    match keys with
    | [] -> stream ~resolve needs (Plan.Select { pred; child = Plan.Product { left; right } }) emit
    | keys ->
      let table : env list Value.Keys.t = Value.Keys.create 1024 in
      stream ~resolve needs right (fun renv ->
          let key = List.map (fun (_, rk) -> eval_scalar renv rk) keys in
          if not (Value.has_null key) then (
            let bucket = try Value.Keys.find table key with Not_found -> [] in
            Value.Keys.replace table key (renv :: bucket)));
      stream ~resolve needs left (fun lenv ->
          let key = List.map (fun (lk, _) -> eval_scalar lenv lk) keys in
          if not (Value.has_null key) then
            match Value.Keys.find_opt table key with
            | None -> ()
            | Some bucket ->
              List.iter
                (fun renv ->
                  let env = lenv @ renv in
                  match residual with
                  | None -> emit env
                  | Some r -> if Eval.truthy (eval_scalar env r) then emit env)
                (List.rev bucket)))
  | Plan.Reduce _ -> invalid_arg "Plan_interp: nested Reduce"
  | Plan.Nest { monoid; var; head; keys; child } ->
    let table : Value.t ref Value.Keys.t = Value.Keys.create 256 in
    let order = ref [] in
    stream ~resolve needs child (fun env ->
        let key = List.map (fun (_, k) -> eval_scalar env k) keys in
        let acc =
          match Value.Keys.find_opt table key with
          | Some acc -> acc
          | None ->
            let acc = ref (Monoid.zero monoid) in
            Value.Keys.add table key acc;
            order := key :: !order;
            acc
        in
        acc := Monoid.merge monoid !acc (Monoid.unit monoid (eval_scalar env head)));
    List.iter
      (fun key ->
        let acc = Value.Keys.find table key in
        emit
          (List.map2 (fun (name, _) v -> (name, v)) keys key
          @ [ (var, Monoid.finalize monoid !acc) ]))
      (List.rev !order)

let needs_table (plan : Plan.t) =
  let tbl = Hashtbl.create 8 in
  let rec vars (p : Plan.t) =
    (match p with
    | Plan.Source { var; _ } -> Hashtbl.replace tbl var (Analysis.plan_var_needs plan ~var)
    | _ -> ());
    List.iter vars (Plan.children p)
  in
  vars plan;
  tbl

let run ~resolve (plan : Plan.t) =
  let needs = needs_table plan in
  match plan with
  | Plan.Reduce { monoid; head; child } ->
    let acc = ref (Monoid.zero monoid) in
    stream ~resolve needs child (fun env ->
        acc := Monoid.merge monoid !acc (Monoid.unit monoid (eval_scalar env head)));
    Monoid.finalize monoid !acc
  | p ->
    let out = ref [] in
    stream ~resolve needs p (fun env -> out := Value.Record env :: !out);
    Value.Bag (List.rev !out)
