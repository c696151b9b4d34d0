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

(* The one Volcano executor: [source ~var expr f] streams the elements a
   generator binds, [eval env e] evaluates a scalar under an environment.
   Every tuple entering the pipeline is a cooperative cancellation and
   deadline poll; outside a governor session the hooks are no-ops. *)
let run ~source ~eval (plan : Plan.t) =
  let rec stream (p : Plan.t) (emit : env -> unit) : unit =
    match p with
    | Plan.Unit -> emit []
    | Plan.Source { var; expr } ->
      source ~var expr (fun v ->
          Governor.poll ~source:"interp" ();
          emit [ (var, v) ])
    | Plan.Select { pred; child } ->
      stream child (fun env -> if Eval.truthy (eval env pred) then emit env)
    | Plan.Map { var; expr; child } ->
      stream child (fun env -> emit (env @ [ (var, eval env expr) ]))
    | Plan.Unnest { var; path; outer; child } ->
      stream child (fun env ->
          let elements =
            match eval env path with
            | Value.Null -> []
            | coll -> Value.elements coll
          in
          match elements with
          | [] -> if outer then emit (env @ [ (var, Value.Null) ])
          | vs -> List.iter (fun v -> emit (env @ [ (var, v) ])) vs)
    | Plan.Product { left; right } ->
      let rights = ref [] in
      stream right (fun env ->
          charge_env env;
          rights := env :: !rights);
      Governor.checkpoint ~source:"interp" ();
      let rights = List.rev !rights in
      stream left (fun lenv -> List.iter (fun renv -> emit (lenv @ renv)) rights)
    | Plan.Join { pred; left; right } -> (
      let lvars = Plan.bound_vars left and rvars = Plan.bound_vars right in
      let keys, residual = Analysis.split_equi ~left:lvars ~right:rvars pred in
      match keys with
      | [] -> stream (Plan.Select { pred; child = Plan.Product { left; right } }) emit
      | keys ->
        let table : env list Value.Keys.t = Value.Keys.create 1024 in
        stream right (fun renv ->
            let key = List.map (fun (_, rk) -> eval renv rk) keys in
            if not (Value.has_null key) then (
              charge_env renv;
              let bucket = try Value.Keys.find table key with Not_found -> [] in
              Value.Keys.replace table key (renv :: bucket)));
        (* hash build done: boundary check before the probe phase starts *)
        Governor.checkpoint ~source:"interp" ();
        stream left (fun lenv ->
            let key = List.map (fun (lk, _) -> eval lenv lk) keys in
            if not (Value.has_null key) then
              match Value.Keys.find_opt table key with
              | None -> ()
              | Some bucket ->
                List.iter
                  (fun renv ->
                    let env = lenv @ renv in
                    match residual with
                    | None -> emit env
                    | Some r -> if Eval.truthy (eval env r) then emit env)
                  (List.rev bucket)))
    | Plan.Reduce _ -> invalid_arg "Interp: nested Reduce"
    | Plan.Nest { monoid; var; head; keys; child } ->
      let table : Value.t ref Value.Keys.t = Value.Keys.create 256 in
      let order = ref [] in
      stream child (fun env ->
          let key = List.map (fun (_, k) -> eval env k) keys in
          let acc =
            match Value.Keys.find_opt table key with
            | Some acc -> acc
            | None ->
              let acc = ref (Monoid.zero monoid) in
              Value.Keys.add table key acc;
              order := key :: !order;
              acc
          in
          let unit = Monoid.unit monoid (eval env head) in
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
  in
  match plan with
  | Plan.Reduce { monoid; head; child } ->
    let acc = ref (Monoid.zero monoid) in
    stream child (fun env ->
        acc := Monoid.merge monoid !acc (Monoid.unit monoid (eval env head)));
    Monoid.finalize monoid !acc
  | p ->
    let out = ref [] in
    stream p (fun env -> out := Value.Record env :: !out);
    Value.Bag (List.rev !out)

(* The Generic foil's scalar evaluation: generic engines re-resolve names
   per tuple, so the interpreter environment is rebuilt each time
   (deliberately; this is the measured overhead). *)
let eval_generic ctx (env : env) e =
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

let query ctx plan () =
  (* generic plugin: whole elements, no projection pushdown *)
  run
    ~source:(fun ~var:_ expr f -> Plugins.producer ctx expr ~need:Analysis.Whole f)
    ~eval:(eval_generic ctx) plan

let resolved ~resolve (plan : Plan.t) =
  let eval env e = Eval.eval (Eval.env_of_list env) e in
  let source ~var (expr : Expr.t) f =
    match expr with
    | Expr.Var name -> resolve name ~need:(Analysis.plan_var_needs plan ~var) f
    | e -> List.iter f (Value.elements (eval [] e))
  in
  run ~source ~eval plan
