open Vida_data
open Vida_calculus
open Vida_algebra

type env = (string * Value.t) list

module Governor = Vida_governor.Governor

(* Charge an operator's materialized bindings (join build side, product
   snapshot, group state) against the ambient governor memory budget.
   Sizing is skipped entirely when no budget is active. *)
let charge_env (env : env) =
  if Governor.budgeted () then
    Governor.charge ~source:"interp"
      (List.fold_left
         (fun acc (_, v) -> acc + 16 + Vida_storage.Cache.value_bytes v)
         0 env)

let charge_value v =
  if Governor.budgeted () then
    Governor.charge ~source:"interp" (16 + Vida_storage.Cache.value_bytes v)

let eval_scalar ctx (env : env) e =
  (* generic engines re-resolve names per tuple: rebuild the interpreter
     environment each time (deliberately; this is the measured overhead) *)
  let base =
    List.fold_left
      (fun acc (x, v) -> Eval.bind x v acc)
      Eval.empty_env ctx.Plugins.params
  in
  let base =
    (* resolve source names lazily only if the scalar mentions them *)
    List.fold_left
      (fun acc name ->
        match Vida_catalog.Registry.find ctx.Plugins.registry name with
        | Some source when List.mem name (Expr.free_vars e) ->
          Eval.bind name (Plugins.materialize_source ctx source) acc
        | _ -> acc)
      base
      (Vida_catalog.Registry.names ctx.Plugins.registry)
  in
  let full = List.fold_left (fun acc (x, v) -> Eval.bind x v acc) base env in
  Eval.eval full e

let rec stream ctx (p : Plan.t) (emit : env -> unit) : unit =
  match p with
  | Plan.Unit -> emit []
  | Plan.Source { var; expr } ->
    (* generic plugin: whole elements, no projection pushdown; every tuple
       entering the pipeline is a cooperative cancellation/deadline poll *)
    Plugins.producer ctx expr ~need:Analysis.Whole (fun v ->
        Governor.poll ~source:"interp" ();
        emit [ (var, v) ])
  | Plan.Select { pred; child } ->
    stream ctx child (fun env -> if Eval.truthy (eval_scalar ctx env pred) then emit env)
  | Plan.Map { var; expr; child } ->
    stream ctx child (fun env -> emit (env @ [ (var, eval_scalar ctx env expr) ]))
  | Plan.Unnest { var; path; outer; child } ->
    stream ctx child (fun env ->
        let elements =
          match eval_scalar ctx env path with
          | Value.Null -> []
          | coll -> Value.elements coll
        in
        match elements with
        | [] -> if outer then emit (env @ [ (var, Value.Null) ])
        | vs -> List.iter (fun v -> emit (env @ [ (var, v) ])) vs)
  | Plan.Product { left; right } ->
    let rights = ref [] in
    stream ctx right (fun env ->
        charge_env env;
        rights := env :: !rights);
    Governor.checkpoint ~source:"interp" ();
    let rights = List.rev !rights in
    stream ctx left (fun lenv -> List.iter (fun renv -> emit (lenv @ renv)) rights)
  | Plan.Join { pred; left; right } -> (
    let lvars = Plan.bound_vars left and rvars = Plan.bound_vars right in
    let keys, residual = Analysis.split_equi ~left:lvars ~right:rvars pred in
    match keys with
    | [] ->
      stream ctx
        (Plan.Select { pred; child = Plan.Product { left; right } })
        emit
    | keys ->
      let table : env list Value.Keys.t = Value.Keys.create 1024 in
      stream ctx right (fun renv ->
          let key = List.map (fun (_, rk) -> eval_scalar ctx renv rk) keys in
          if not (Value.has_null key) then (
            charge_env renv;
            let bucket = try Value.Keys.find table key with Not_found -> [] in
            Value.Keys.replace table key (renv :: bucket)));
      (* hash build done: boundary check before the probe phase starts *)
      Governor.checkpoint ~source:"interp" ();
      stream ctx left (fun lenv ->
          let key = List.map (fun (lk, _) -> eval_scalar ctx lenv lk) keys in
          if not (Value.has_null key) then
            match Value.Keys.find_opt table key with
            | None -> ()
            | Some bucket ->
              List.iter
                (fun renv ->
                  let env = lenv @ renv in
                  match residual with
                  | None -> emit env
                  | Some r -> if Eval.truthy (eval_scalar ctx env r) then emit env)
                (List.rev bucket)))
  | Plan.Reduce _ -> invalid_arg "Interp: nested Reduce"
  | Plan.Nest { monoid; var; head; keys; child } ->
    let table : Value.t ref Value.Keys.t = Value.Keys.create 256 in
    let order = ref [] in
    stream ctx child (fun env ->
        let key = List.map (fun (_, k) -> eval_scalar ctx env k) keys in
        let acc =
          match Value.Keys.find_opt table key with
          | Some acc -> acc
          | None ->
            let acc = ref (Monoid.zero monoid) in
            Value.Keys.add table key acc;
            order := key :: !order;
            acc
        in
        let unit = Monoid.unit monoid (eval_scalar ctx env head) in
        charge_value unit;
        acc := Monoid.merge monoid !acc unit);
    Governor.checkpoint ~source:"interp" ();
    List.iter
      (fun key ->
        let acc = Value.Keys.find table key in
        emit
          (List.map2 (fun (name, _) v -> (name, v)) keys key
          @ [ (var, Monoid.finalize monoid !acc) ]))
      (List.rev !order)

let query ctx (plan : Plan.t) =
  match plan with
  | Plan.Reduce { monoid; head; child } ->
    fun () ->
      let acc = ref (Monoid.zero monoid) in
      stream ctx child (fun env ->
          acc := Monoid.merge monoid !acc (Monoid.unit monoid (eval_scalar ctx env head)));
      Monoid.finalize monoid !acc
  | p ->
    fun () ->
      let out = ref [] in
      stream ctx p (fun env -> out := Value.Record env :: !out);
      Value.Bag (List.rev !out)
