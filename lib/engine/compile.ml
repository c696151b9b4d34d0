open Vida_data
open Vida_calculus
open Vida_algebra

module Governor = Vida_governor.Governor

(* Charge materialized operator state (join build snapshots, product
   snapshots, group accumulators) against the ambient governor memory
   budget; sizing is skipped when no budget is active. *)
let charge_snapshot (vs : Value.t list) =
  if Governor.budgeted () then
    Governor.charge ~source:"compile"
      (List.fold_left
         (fun acc v -> acc + 16 + Vida_storage.Cache.value_bytes v)
         0 vs)

let charge_value v =
  if Governor.budgeted () then
    Governor.charge ~source:"compile" (16 + Vida_storage.Cache.value_bytes v)

(* Binders of a plan subtree, in binding order (used for slot allocation and
   for snapshotting a side of a join). *)
let rec binders (p : Plan.t) : string list =
  match p with
  | Plan.Unit -> []
  | Plan.Source { var; _ } -> [ var ]
  | Plan.Select { child; _ } -> binders child
  | Plan.Map { var; child; _ } -> binders child @ [ var ]
  | Plan.Product { left; right } | Plan.Join { left; right; _ } ->
    binders left @ binders right
  | Plan.Unnest { var; child; _ } -> binders child @ [ var ]
  | Plan.Reduce { child; _ } -> binders child
  | Plan.Nest { var; keys; child; _ } -> binders child @ List.map fst keys @ [ var ]

(* --- scalar compilation --- *)

let rec compile_scalar ctx (slots : (string * int) list) (e : Expr.t) :
    Value.t array -> Value.t =
  match e with
  | Expr.Const v -> fun _ -> v
  | Expr.Var x -> (
    match List.assoc_opt x slots with
    | Some i -> fun env -> env.(i)
    | None ->
      (* session-level free variable: parameter or registered source,
         resolved once at first use *)
      let resolved =
        lazy
          (match List.assoc_opt x ctx.Plugins.params with
          | Some v -> v
          | None -> (
            match Vida_catalog.Registry.find ctx.Plugins.registry x with
            | Some source -> Plugins.materialize_source ctx source
            | None -> raise (Plugins.Engine_error (Printf.sprintf "unbound variable %s" x))))
      in
      fun _ -> Lazy.force resolved)
  | Expr.Proj (e, f) ->
    let ce = compile_scalar ctx slots e in
    fun env -> (
      match ce env with
      | Value.Null -> Value.Null
      | Value.Record _ as r -> (
        match Value.field_opt r f with Some v -> v | None -> Value.Null)
      | v ->
        raise
          (Eval.Error
             (Printf.sprintf "projection .%s from non-record %s" f (Value.to_string v))))
  | Expr.Record fields ->
    let compiled = List.map (fun (n, e) -> (n, compile_scalar ctx slots e)) fields in
    fun env -> Value.Record (List.map (fun (n, c) -> (n, c env)) compiled)
  | Expr.If (c, t, f) ->
    let cc = compile_scalar ctx slots c
    and ct = compile_scalar ctx slots t
    and cf = compile_scalar ctx slots f in
    fun env -> (
      match cc env with
      | Value.Bool true -> ct env
      | Value.Bool false | Value.Null -> cf env
      | v -> raise (Eval.Error (Printf.sprintf "if condition evaluated to %s" (Value.to_string v))))
  | Expr.BinOp (op, a, b) ->
    let ca = compile_scalar ctx slots a and cb = compile_scalar ctx slots b in
    fun env -> Eval.eval_binop op (ca env) (cb env)
  | Expr.UnOp (op, a) ->
    let ca = compile_scalar ctx slots a in
    fun env -> Eval.eval_unop op (ca env)
  | Expr.Zero m ->
    let z = Monoid.zero m in
    fun _ -> z
  | Expr.Singleton (m, e) ->
    let ce = compile_scalar ctx slots e in
    fun env -> Monoid.unit m (ce env)
  | Expr.Merge (m, a, b) ->
    let ca = compile_scalar ctx slots a and cb = compile_scalar ctx slots b in
    fun env -> Monoid.merge m (ca env) (cb env)
  | Expr.Index (e, idxs) ->
    let ce = compile_scalar ctx slots e
    and cidxs = List.map (compile_scalar ctx slots) idxs in
    fun env -> (
      match ce env with
      | Value.Null -> Value.Null
      | arr -> Value.array_get arr (List.map (fun c -> Value.to_int (c env)) cidxs))
  | Expr.Comp _ ->
    (* correlated subquery: compile to a closure over the outer env *)
    compile_subquery ctx slots e
  | Expr.Lambda _ | Expr.Apply _ ->
    (* functions escape closure compilation: generic interpreter fallback *)
    let base = lazy (Plugins.base_eval_env ctx) in
    fun env ->
      let full =
        List.fold_left
          (fun acc (x, i) -> Eval.bind x env.(i) acc)
          (Lazy.force base) slots
      in
      Eval.eval full e

(* --- correlated subqueries --- *)

and compile_subquery ctx outer_slots (e : Expr.t) : Value.t array -> Value.t =
  let plan = Translate.plan_of_comp e in
  let free = Plan.free_vars plan in
  let outer_needed = List.filter (fun v -> List.mem_assoc v outer_slots) free in
  let sub_outer_slots = List.mapi (fun i v -> (v, i)) outer_needed in
  let run = compile_query ctx ~outer_slots:sub_outer_slots plan in
  let copies =
    List.map (fun (v, dst) -> (List.assoc v outer_slots, dst)) sub_outer_slots
  in
  fun outer_env ->
    run (fun sub_env ->
        List.iter (fun (src, dst) -> sub_env.(dst) <- outer_env.(src)) copies)

(* --- operator compilation --- *)

(* [compile_query ctx ~outer_slots plan] returns [run] such that [run init]
   executes the plan and yields its value; [init] preloads outer bindings
   into the fresh environment. *)
and compile_query ctx ~outer_slots (plan : Plan.t) : (Value.t array -> unit) -> Value.t =
  let base = List.length outer_slots in
  let flushes : (unit -> unit) list ref = ref [] in
  match plan with
  | Plan.Reduce { monoid; head; child } ->
    let vars = binders child in
    let slots = outer_slots @ List.mapi (fun i v -> (v, base + i)) vars in
    let nslots = base + List.length vars in
    let chead = compile_scalar ctx slots head in
    let needs = needs_table plan in
    (* a fold with no outer bindings hands its carrier over: the root's
       (a plan whose carrier is kept has no subquery) *)
    let finalize =
      if outer_slots = [] then Plugins.finalize_root ctx monoid else Monoid.finalize monoid
    in
    fun init ->
      let env = Array.make nslots Value.Null in
      init env;
      let acc = Monoid.accumulator monoid in
      let run =
        compile_ops ctx slots needs flushes env child (fun () ->
            Monoid.add acc (chead env))
      in
      run ();
      List.iter (fun flush -> flush ()) !flushes;
      finalize (Monoid.contents acc)
  | p ->
    (* non-reduce top: produce the bag of binding records, matching the
       reference executor *)
    let vars = binders p in
    let slots = outer_slots @ List.mapi (fun i v -> (v, base + i)) vars in
    let nslots = base + List.length vars in
    (* a bare stream outputs every binding whole, so no projection pushdown *)
    let needs = Hashtbl.create 8 in
    List.iter (fun v -> Hashtbl.replace needs v Analysis.Whole) vars;
    fun init ->
      let env = Array.make nslots Value.Null in
      init env;
      let out = ref [] in
      let run =
        compile_ops ctx slots needs flushes env p (fun () ->
            out :=
              Value.Record (List.map (fun v -> (v, env.(List.assoc v slots))) vars)
              :: !out)
      in
      run ();
      List.iter (fun flush -> flush ()) !flushes;
      Value.Bag (List.rev !out)

and needs_table (plan : Plan.t) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun var -> Hashtbl.replace tbl var (Analysis.plan_var_needs plan ~var))
    (binders plan);
  tbl

(* Compile the operator tree to a push pipeline over the shared [env].
   Operators are lightly instrumented: observed selectivities and
   cardinalities flush into [ctx.feedback] after each run (paper §5
   runtime feedback), where the optimizer picks them up for later
   queries. *)
and compile_ops ctx slots needs flushes env (p : Plan.t) (consume : unit -> unit) :
    unit -> unit =
  let slot v = List.assoc v slots in
  match p with
  | Plan.Unit -> fun () -> consume ()
  | Plan.Source { var; expr } ->
    let s = slot var in
    if List.exists (fun v -> List.mem_assoc v slots) (Expr.free_vars expr) then (
      (* correlated source: the collection expression references plan-bound
         variables (e.g. a group produced by Nest) — evaluate it against
         the environment instead of dispatching to a file plugin *)
      let ce = compile_scalar ctx slots expr in
      fun () ->
        match ce env with
        | Value.Null -> ()
        | coll ->
          List.iter
            (fun v ->
              env.(s) <- v;
              consume ())
            (Value.elements coll))
    else (
      let need =
        match Hashtbl.find_opt needs var with
        | Some n -> n
        | None -> Analysis.Whole
      in
      let produced = ref 0 in
      (match expr with
      | Expr.Var name ->
        flushes :=
          (fun () ->
            if !produced > 0 then
              Feedback.record ctx.Plugins.feedback
                ~key:(Feedback.cardinality_key name)
                ~observed:(float_of_int !produced);
            produced := 0)
          :: !flushes
      | _ -> ());
      fun () ->
        Plugins.producer ctx expr ~need (fun v ->
            Governor.poll ~source:"compile" ();
            incr produced;
            env.(s) <- v;
            consume ()))
  | Plan.Select _ -> (
    (* gather the whole selection chain so scan-level pushdown sees every
       conjunct, not just the innermost Select *)
    let rec gather acc (p : Plan.t) =
      match p with
      | Plan.Select { pred; child } -> gather (pred :: acc) child
      | p -> (acc, p)
    in
    let preds, base = gather [] p in
    (* chain the compiled filters (each instrumented for feedback) *)
    let filtered =
      List.fold_left
        (fun consume pred ->
          let cp = compile_scalar ctx slots pred in
          let seen = ref 0 and passed = ref 0 in
          flushes :=
            (fun () ->
              if !seen >= 16 then
                Feedback.record ctx.Plugins.feedback
                  ~key:(Feedback.selectivity_key pred)
                  ~observed:(float_of_int !passed /. float_of_int !seen);
              seen := 0;
              passed := 0)
            :: !flushes;
          fun () ->
            incr seen;
            if Eval.truthy (cp env) then (
              incr passed;
              consume ()))
        consume preds
    in
    (* scan-level predicate pushdown: a filtered scan of a binary array
       hands its numeric bounds to the format's zone maps, skipping blocks
       that cannot match; the exact predicates still run above *)
    match base with
    | Plan.Source { var; expr = Expr.Var name } -> (
      let source = Vida_catalog.Registry.find ctx.Plugins.registry name in
      match source with
      | Some ({ Vida_catalog.Source.format = Vida_catalog.Source.Binary_array; _ } as source) ->
        let ranges =
          List.filter_map (Analysis.range_of ~var)
            (List.concat_map Analysis.conjuncts preds)
        in
        if ranges = [] then compile_ops ctx slots needs flushes env base filtered
        else (
          let s = slot var in
          let need =
            match Hashtbl.find_opt needs var with
            | Some n -> n
            | None -> Analysis.Whole
          in
          fun () ->
            Plugins.binarray_ranged_producer ctx source need ~ranges (fun v ->
                Governor.poll ~source:"compile" ();
                env.(s) <- v;
                filtered ()))
      | _ -> compile_ops ctx slots needs flushes env base filtered)
    | base -> compile_ops ctx slots needs flushes env base filtered)
  | Plan.Map { var; expr; child } ->
    let s = slot var in
    let ce = compile_scalar ctx slots expr in
    compile_ops ctx slots needs flushes env child (fun () ->
        env.(s) <- ce env;
        consume ())
  | Plan.Unnest { var; path; outer; child } ->
    let s = slot var in
    let cp = compile_scalar ctx slots path in
    compile_ops ctx slots needs flushes env child (fun () ->
        let elements =
          match cp env with Value.Null -> [] | coll -> Value.elements coll
        in
        match elements with
        | [] ->
          if outer then (
            env.(s) <- Value.Null;
            consume ())
        | vs ->
          List.iter
            (fun v ->
              env.(s) <- v;
              consume ())
            vs)
  | Plan.Product { left; right } ->
    let right_slots = List.map slot (binders right) in
    let stored = ref [] in
    let run_right =
      compile_ops ctx slots needs flushes env right (fun () ->
          let snapshot = List.map (fun i -> env.(i)) right_slots in
          charge_snapshot snapshot;
          stored := snapshot :: !stored)
    in
    let run_left =
      compile_ops ctx slots needs flushes env left (fun () ->
          List.iter
            (fun snapshot ->
              List.iter2 (fun i v -> env.(i) <- v) right_slots snapshot;
              consume ())
            !stored)
    in
    fun () ->
      stored := [];
      run_right ();
      (* right side fully materialized: boundary check before re-scan *)
      Governor.checkpoint ~source:"compile" ();
      stored := List.rev !stored;
      run_left ()
  | Plan.Join { pred; left; right } -> (
    let lvars = binders left and rvars = binders right in
    let keys, residual = Analysis.split_equi ~left:lvars ~right:rvars pred in
    match keys with
    | [] ->
      (* no equi-conjunct: product plus filter *)
      compile_ops ctx slots needs flushes env
        (Plan.Select { pred; child = Plan.Product { left; right } })
        consume
    | keys ->
      let right_slots = List.map slot rvars in
      let lkeys = List.map (fun (l, _) -> compile_scalar ctx slots l) keys in
      let rkeys = List.map (fun (_, r) -> compile_scalar ctx slots r) keys in
      let cresidual = Option.map (compile_scalar ctx slots) residual in
      let table : Value.t list list Value.Keys.t = Value.Keys.create 1024 in
      let l_in = ref 0 and r_in = ref 0 and out = ref 0 in
      flushes :=
        (fun () ->
          if !l_in > 0 && !r_in > 0 then
            Feedback.record ctx.Plugins.feedback ~key:(Feedback.join_key pred)
              ~observed:
                (float_of_int !out /. (float_of_int !l_in *. float_of_int !r_in));
          l_in := 0;
          r_in := 0;
          out := 0)
        :: !flushes;
      let run_right =
        compile_ops ctx slots needs flushes env right (fun () ->
            incr r_in;
            let key = List.map (fun c -> c env) rkeys in
            (* NULL keys never match (three-valued equality) *)
            if not (Value.has_null key) then (
              let snapshot = List.map (fun i -> env.(i)) right_slots in
              charge_snapshot snapshot;
              let bucket = try Value.Keys.find table key with Not_found -> [] in
              Value.Keys.replace table key (snapshot :: bucket)))
      in
      let run_left =
        compile_ops ctx slots needs flushes env left (fun () ->
            incr l_in;
            let key = List.map (fun c -> c env) lkeys in
            if not (Value.has_null key) then
              match Value.Keys.find_opt table key with
              | None -> ()
              | Some bucket ->
                List.iter
                  (fun snapshot ->
                    List.iter2 (fun i v -> env.(i) <- v) right_slots snapshot;
                    match cresidual with
                    | None ->
                      incr out;
                      consume ()
                    | Some cr ->
                      if Eval.truthy (cr env) then (
                        incr out;
                        consume ()))
                  (List.rev bucket))
      in
      fun () ->
        Value.Keys.reset table;
        run_right ();
        (* hash build done: boundary check before the probe phase starts *)
        Governor.checkpoint ~source:"compile" ();
        run_left ())
  | Plan.Reduce _ ->
    invalid_arg "Compile: nested Reduce operator (subqueries live in scalars)"
  | Plan.Nest { monoid; var; head; keys; child } ->
    let key_slots = List.map (fun (n, _) -> slot n) keys in
    let var_slot = slot var in
    let ckeys = List.map (fun (_, k) -> compile_scalar ctx slots k) keys in
    let chead = compile_scalar ctx slots head in
    let table : Monoid.accumulator Value.Keys.t = Value.Keys.create 256 in
    let order = ref [] in
    let run_child =
      compile_ops ctx slots needs flushes env child (fun () ->
          let key = List.map (fun c -> c env) ckeys in
          let acc =
            match Value.Keys.find_opt table key with
            | Some acc -> acc
            | None ->
              let acc = Monoid.accumulator monoid in
              Value.Keys.add table key acc;
              order := key :: !order;
              acc
          in
          let v = chead env in
          if Governor.budgeted () then charge_value (Monoid.unit monoid v);
          Monoid.add acc v)
    in
    fun () ->
      Value.Keys.reset table;
      order := [];
      run_child ();
      Governor.checkpoint ~source:"compile" ();
      List.iter
        (fun key ->
          let acc = Value.Keys.find table key in
          List.iter2 (fun s v -> env.(s) <- v) key_slots key;
          env.(var_slot) <- Monoid.finalize monoid (Monoid.contents acc);
          consume ())
        (List.rev !order)

(* Degradation ladder, vectorized rung (ISSUE 8): plans matching the
   vectorized fragment run as fused batch kernels; a static decline or a
   runtime [Not_vectorizable] (columns turn out untypeable, no columnar
   view under the active cleaning policy) is recorded as the
   ["vectorized->closure"] fallback and the closure engine takes over.
   Plans outside the fragment ([`Silent]) go straight to the closure
   engine — that is their designed path, not a degradation. *)
let closure ctx plan =
  let run = compile_query ctx ~outer_slots:[] plan in
  fun () -> run (fun _ -> ())

let query ctx plan =
  let closure () = closure ctx plan in
  match Vector.compile ctx ~domains:1 plan with
  | `Silent -> closure ()
  | `Decline reason ->
    let run = closure () in
    fun () ->
      Vector.note_fallback reason;
      run ()
  | `Run vrun ->
    let fallback = lazy (closure ()) in
    fun () -> (
      match vrun () with
      | v -> v
      | exception Vector.Not_vectorizable reason ->
        Vector.note_fallback reason;
        (Lazy.force fallback) ())

let scalar ctx ~slots e = compile_scalar ctx slots e
