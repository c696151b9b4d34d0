open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
module Morsel = Vida_raw.Morsel
module Governor = Vida_governor.Governor
module Effects = Vida_analysis.Effects

(* Morsel-driven parallel execution over columnar scans.

   [try_query] recognizes plan shapes whose hot loop can fold disjoint row
   ranges on worker domains:

     - Reduce over a Select*/Map* chain on one columnar source, for every
       monoid: morsel partials are merged in morsel (= source) order, so
       non-commutative collection monoids concatenate correctly;
     - Reduce over an equi-Join of two such chains: parallel hash build
       over right-side morsels (stitched in source order), then a parallel
       probe+fold over left-side morsels;
     - a bare chain (no Reduce): parallel filtered/projected
       materialization, concatenated in morsel order — the same bag, in
       the same order, the sequential engine produces.

   Anything else returns [None] and the caller falls back to the
   sequential engines — that fallback is the correctness anchor: with
   [domains = 1] or an unsupported shape, results are the sequential
   engine's by construction.

   Worker-domain safety: each task compiles its own closures (no shared
   mutable compile state), reads immutable column arrays built up front on
   the calling domain, and polls/charges the caller's governor session
   through its atomic counters. Expressions whose compiled form could
   touch shared lazy state (subqueries, lambdas, free variables that
   resolve to registry sources and would materialize them inside a
   worker) are rejected by {!Vida_analysis.Effects.worker_verdict},
   declining parallelism rather than racing; every decline is recorded
   with its reason in {!last_declines}. *)

type decline = { where : string; reason : string }

(* Observability only: declines are recorded from whichever domain hits
   one and read by `.analyze`; a lost entry under contention costs a
   diagnostic line, never an answer. Registered race-allowed with the
   sanitizer on that basis. *)
let declines_cell = "parallel.declines"

let () =
  Vida_sync.Cell.allow_race ~name:declines_cell
    ~justification:
      "decline log is diagnostic-only; a lost entry under contention drops \
       an .analyze line, never an answer"

let declines : decline list ref = ref []

let note_decline ~where reason =
  Vida_sync.Cell.write ~name:declines_cell ~site:"parallel.note-decline";
  declines := { where; reason } :: !declines

let last_declines () =
  Vida_sync.Cell.read ~name:declines_cell ~site:"parallel.last-declines";
  List.rev !declines

(* Observation hook for the plan-shape rewrites this module performs
   (count-head neutralization, one-sided filter pushdown): same contract
   as [Vida_optimizer.Rules.checker]. *)
let checker : (rule:string -> before:Plan.t -> after:Plan.t -> unit) ref =
  ref (fun ~rule:_ ~before:_ ~after:_ -> ())

let with_checker f body =
  let saved = !checker in
  checker := f;
  Fun.protect ~finally:(fun () -> checker := saved) body

type step = Filter of Expr.t | Bind of string * Expr.t

(* Decompose Select*/Map* over a single Source; returns the source var and
   name plus the operator steps in execution order (innermost first). *)
let rec decompose (p : Plan.t) steps =
  match p with
  | Plan.Select { pred; child } -> decompose child (Filter pred :: steps)
  | Plan.Map { var; expr; child } -> decompose child (Bind (var, expr) :: steps)
  | Plan.Source { var; expr = Expr.Var name } -> Some (var, name, steps)
  | _ -> None

let chain_vars var steps =
  var :: List.filter_map (function Bind (v, _) -> Some v | Filter _ -> None) steps

(* Closure compilation of [e] must not reach shared mutable state when run
   on a worker domain; the effect analysis decides, and a decline carries
   the offending subterm so callers (and `.analyze`) can explain it. *)
let scoped ctx ~bound ~where e =
  match
    Effects.worker_verdict ~bound
      ~params:(List.map fst ctx.Plugins.params)
      e
  with
  | Ok () -> true
  | Error r ->
    note_decline ~where (Effects.reason_to_string r);
    false

let steps_scoped ctx ~bound ~where steps =
  List.for_all
    (function
      | Filter p -> scoped ctx ~bound ~where:(where ^ " filter") p
      | Bind (_, e) -> scoped ctx ~bound ~where:(where ^ " binding") e)
    steps

(* Fields of [source] the plan needs for chain variable [var]. [Whole] is
   only honored for formats whose declared field list reconstructs the
   row exactly as the sequential producer does (CSV schema, binary-array
   header); JSON/XML objects may carry fields beyond the declared element
   type, so [Whole] declines there. *)
let fields_for ctx ?(whole = false) plan ~var (source : Source.t) =
  match
    if whole then Analysis.Whole else Analysis.plan_var_needs plan ~var
  with
  | Analysis.Fields fs -> Some fs
  | Analysis.Whole -> (
    match source.Source.format with
    | Source.Csv { schema; _ } -> Some (Schema.names schema)
    | Source.Binary_array ->
      Some
        (List.map
           (fun f -> f.Vida_raw.Binarray.name)
           (Vida_raw.Binarray.header
              (Structures.binarray ctx.Plugins.structures source))
             .fields)
    | _ -> None)

type chain = {
  var : string;
  name : string;  (* registry name of the source *)
  steps : step list;
  n : int;  (* row count *)
  columns : (string * Value.t array) array;
}

(* Rebuild the algebra subtree a chain stands for — used to hand the
   engine's own rewrites to the plan verifier in the same [before]/[after]
   form the optimizer rules use. *)
let plan_of_step child = function
  | Filter pred -> Plan.Select { pred; child }
  | Bind (var, expr) -> Plan.Map { var; expr; child }

let plan_of_chain (c : chain) =
  List.fold_left plan_of_step
    (Plan.Source { var = c.var; expr = Expr.Var c.name })
    c.steps

let resolve_chain ctx ?whole plan (p : Plan.t) =
  match decompose p [] with
  | None -> None
  | Some (var, name, steps) -> (
    match Registry.find ctx.Plugins.registry name with
    | None -> None
    | Some source -> (
      let bound = chain_vars var steps in
      if not (steps_scoped ctx ~bound ~where:"chain" steps) then None
      else
        match fields_for ctx ?whole plan ~var source with
        | None -> None (* Whole needed, format can't reconstruct rows *)
        | Some fields -> (
          (* [] is fine: only the row count matters (e.g. a neutralized
             count head) and column_arrays reports it for every format *)
          match Plugins.column_arrays ctx source ~fields with
          | None -> None
          | Some (n, columns) ->
            Some { var; name; steps; n; columns = Array.of_list columns })))

(* Per-task compiled pipeline for one chain: applies steps to the row
   loaded in slot [base] and calls [sink] on rows that survive. Compiled
   closures are task-local; the column arrays they read are immutable. *)
let compile_steps ctx ~slots steps =
  List.map
    (function
      | Filter pred -> `Filter (Compile.scalar ctx ~slots pred)
      | Bind (v, e) -> `Bind (List.assoc v slots, Compile.scalar ctx ~slots e))
    steps

let run_steps compiled env k =
  let rec apply = function
    | [] -> k ()
    | `Filter cp :: rest -> if Eval.truthy (cp env) then apply rest
    | `Bind (slot, ce) :: rest ->
      env.(slot) <- ce env;
      apply rest
  in
  apply compiled

(* Row record built from hoisted column arrays without a per-row closure. *)
let record_of_columns columns i =
  let rec go j acc =
    if j < 0 then acc
    else
      let f, arr = Array.unsafe_get columns j in
      go (j - 1) ((f, arr.(i)) :: acc)
  in
  Value.Record (go (Array.length columns - 1) [])

(* Morsels per domain: a few extra so the atomic-counter scheduler can
   rebalance skew between chunks. *)
let morsel_ranges n d = Morsel.chunks n (d * 4)

(* Discharge the monoid-law obligation before merging partials: the
   indexed fold below combines them in morsel (= source) order, an
   [`Ordered] strategy, which {!Effects.check_merge} proves sufficient for
   every monoid — including non-commutative list/array concatenation. *)
let merge_partials monoid partials =
  (match Effects.check_merge monoid ~strategy:`Ordered with
  | Ok () -> ()
  | Error reason ->
    raise
      (Vida_error.Error
         (Vida_error.Plan_invalid
            { stage = "parallel"; rule = Some "morsel-merge"; reason })));
  Array.fold_left (Monoid.merge monoid) (Monoid.zero monoid) partials

(* --- Reduce over a single chain ------------------------------------- *)

(* Vectorized rung inside morsels: the kernel is compiled once on the
   calling domain (typing the promoted columns); each worker instantiates
   its own scratch and folds its ranges batch-at-a-time. Partials are the
   same pre-finalize accumulator carriers the tuple path produces, so
   {!merge_partials} is unchanged. A kernel that cannot be built (untyped
   columns, unsupported expression) records the vectorized->closure rung
   and the tuple-at-a-time loop below takes over. *)
let fold_chain_vectorized ctx ~domains ~monoid ~head (c : chain) =
  let steps =
    List.map
      (function
        | Filter pred -> Vector.VFilter pred
        | Bind (v, e) -> Vector.VBind (v, e))
      c.steps
  in
  match
    Vector.compile_chain ctx ~name:c.name ~var:c.var ~columns:c.columns
      ~nrows:c.n ~steps ~monoid ~head
  with
  | Error reason ->
    Vector.note_fallback_stats reason;
    Governor.note_fallback ~stage:"vectorized->closure" ~reason ();
    None
  | Ok kernel ->
    (* P10: discharge the merge-order obligation explicitly on every
       vectorized dispatch when the sanitizer is active. The indexed fold
       in [merge_partials] is an [`Ordered] merge; a future scheduler
       that reordered partials would fail here before returning rows. *)
    if Vida_sync.enabled () then begin
      Vida_sync.note_kernel_check ();
      match Vida_analysis.Kernel.check_merge_order monoid ~strategy:`Ordered with
      | Some reason ->
        Vida_sync.kernel_failed ~id:"P10" ~subject:c.name "%s" reason
      | None -> ()
    end;
    let ranges = morsel_ranges c.n domains in
    let partials =
      Morsel.run ~domains ~tasks:(Array.length ranges) (fun t ->
          let lo, hi = ranges.(t) in
          Vector.run_instance kernel ~lo ~hi)
    in
    Vector.flush_feedback ctx kernel;
    Some (Monoid.finalize monoid (merge_partials monoid partials))

let fold_chain_rows ctx ~domains ~monoid ~head (c : chain) =
  let vars = chain_vars c.var c.steps in
  let slots = List.mapi (fun i v -> (v, i)) vars in
  let nslots = List.length vars in
  let ranges = morsel_ranges c.n domains in
  let partials =
    Morsel.run ~domains ~tasks:(Array.length ranges) (fun t ->
        let compiled = compile_steps ctx ~slots c.steps in
        let chead = Compile.scalar ctx ~slots head in
        let env = Array.make nslots Value.Null in
        let acc = Monoid.accumulator monoid in
        let lo, hi = ranges.(t) in
        for i = lo to hi - 1 do
          Governor.poll ~source:"parallel" ();
          env.(0) <- record_of_columns c.columns i;
          run_steps compiled env (fun () -> Monoid.add acc (chead env))
        done;
        Monoid.contents acc)
  in
  (* indexed merge: partials combine in morsel (= source) order, which is
     what makes non-commutative monoids (list/array concat) correct *)
  Monoid.finalize monoid (merge_partials monoid partials)

let fold_chain ctx ~domains ~monoid ~head (c : chain) =
  match fold_chain_vectorized ctx ~domains ~monoid ~head c with
  | Some v -> v
  | None -> fold_chain_rows ctx ~domains ~monoid ~head c

(* --- bare chain: parallel filtered/projected materialization --------- *)

let materialize_chain ctx ~domains (c : chain) =
  let vars = chain_vars c.var c.steps in
  let slots = List.mapi (fun i v -> (v, i)) vars in
  let nslots = List.length vars in
  let ranges = morsel_ranges c.n domains in
  let chunks =
    Morsel.run ~domains ~tasks:(Array.length ranges) (fun t ->
        let compiled = compile_steps ctx ~slots c.steps in
        let env = Array.make nslots Value.Null in
        let out = ref [] in
        let lo, hi = ranges.(t) in
        for i = lo to hi - 1 do
          Governor.poll ~source:"parallel" ();
          env.(0) <- record_of_columns c.columns i;
          run_steps compiled env (fun () ->
              out :=
                Value.Record
                  (List.map (fun (v, s) -> (v, env.(s))) slots)
                :: !out)
        done;
        List.rev !out)
  in
  Value.Bag (List.concat (Array.to_list chunks))

(* --- Reduce over an equi-join of two chains -------------------------- *)

let charge_snapshot (vs : Value.t list) =
  if Governor.budgeted () then
    Governor.charge ~source:"parallel"
      (List.fold_left
         (fun acc v -> acc + 16 + Vida_storage.Cache.value_bytes v)
         0 vs)

let join_reduce ctx ~domains ~monoid ~head ~pred ~post (lc : chain) (rc : chain) =
  let lvars = chain_vars lc.var lc.steps and rvars = chain_vars rc.var rc.steps in
  let post_vars =
    List.filter_map (function Bind (v, _) -> Some v | Filter _ -> None) post
  in
  let vars = lvars @ rvars @ post_vars in
  let slots = List.mapi (fun i v -> (v, i)) vars in
  let nslots = List.length vars in
  let lbase = 0 and rbase = List.length lvars in
  let keys, residual = Analysis.split_equi ~left:lvars ~right:rvars pred in
  if keys = [] then None
  else if
    not
      (scoped ctx ~bound:vars ~where:"join head" head
      && steps_scoped ctx ~bound:vars ~where:"post-join" post
      && List.for_all
           (fun (l, r) ->
             scoped ctx ~bound:vars ~where:"join key" l
             && scoped ctx ~bound:vars ~where:"join key" r)
           keys
      &&
      match residual with
      | Some r -> scoped ctx ~bound:vars ~where:"join residual" r
      | None -> true)
  then None
  else begin
    let right_slots = List.mapi (fun i _ -> rbase + i) rvars in
    (* build: each right-side morsel collects (key, snapshot) pairs in row
       order; the hash table is stitched on the calling domain in morsel
       order, reproducing the sequential engine's bucket order exactly *)
    let rranges = morsel_ranges rc.n domains in
    let built =
      Morsel.run ~domains ~tasks:(Array.length rranges) (fun t ->
          let compiled = compile_steps ctx ~slots rc.steps in
          let rkeys = List.map (fun (_, r) -> Compile.scalar ctx ~slots r) keys in
          let env = Array.make nslots Value.Null in
          let out = ref [] in
          let lo, hi = rranges.(t) in
          for i = lo to hi - 1 do
            Governor.poll ~source:"parallel" ();
            env.(rbase) <- record_of_columns rc.columns i;
            run_steps compiled env (fun () ->
                let key = List.map (fun c -> c env) rkeys in
                (* NULL keys never match (three-valued equality) *)
                if not (Value.has_null key) then (
                  let snapshot = List.map (fun s -> env.(s)) right_slots in
                  charge_snapshot snapshot;
                  out := (key, snapshot) :: !out))
          done;
          List.rev !out)
    in
    let table : Value.t list list Value.Keys.t = Value.Keys.create 1024 in
    Array.iter
      (List.iter (fun (key, snapshot) ->
           let bucket = try Value.Keys.find table key with Not_found -> [] in
           Value.Keys.replace table key (snapshot :: bucket)))
      built;
    (* buckets were accumulated newest-first; flip them once so the probe
       streams matches in right-source order, as the sequential probe does *)
    let ordered = Value.Keys.create (Value.Keys.length table) in
    Value.Keys.iter (fun key bucket -> Value.Keys.replace ordered key (List.rev bucket)) table;
    (* hash build done: boundary check before the probe phase starts *)
    Governor.checkpoint ~source:"parallel" ();
    let lranges = morsel_ranges lc.n domains in
    let partials =
      Morsel.run ~domains ~tasks:(Array.length lranges) (fun t ->
          let compiled = compile_steps ctx ~slots lc.steps in
          let cpost = compile_steps ctx ~slots post in
          let lkeys = List.map (fun (l, _) -> Compile.scalar ctx ~slots l) keys in
          let cresidual = Option.map (Compile.scalar ctx ~slots) residual in
          let chead = Compile.scalar ctx ~slots head in
          let env = Array.make nslots Value.Null in
          let acc = Monoid.accumulator monoid in
          let lo, hi = lranges.(t) in
          for i = lo to hi - 1 do
            Governor.poll ~source:"parallel" ();
            env.(lbase) <- record_of_columns lc.columns i;
            run_steps compiled env (fun () ->
                let key = List.map (fun c -> c env) lkeys in
                if not (Value.has_null key) then
                  match Value.Keys.find_opt ordered key with
                  | None -> ()
                  | Some bucket ->
                    List.iter
                      (fun snapshot ->
                        List.iter2
                          (fun s v -> env.(s) <- v)
                          right_slots snapshot;
                        let emit () =
                          run_steps cpost env (fun () ->
                              Monoid.add acc (chead env))
                        in
                        match cresidual with
                        | None -> emit ()
                        | Some cr -> if Eval.truthy (cr env) then emit ())
                      bucket)
          done;
          Monoid.contents acc)
    in
    Some (Monoid.finalize monoid (merge_partials monoid partials))
  end

(* --- entry point ------------------------------------------------------ *)

(* Peel Select/Map operators above a join/product core, in execution
   order (innermost first) — the translator leaves join predicates as
   Selects above a Product. *)
let rec strip_ops (p : Plan.t) acc =
  match p with
  | Plan.Select { pred; child } -> strip_ops child (Filter pred :: acc)
  | Plan.Map { var; expr; child } -> strip_ops child (Bind (var, expr) :: acc)
  | core -> (core, acc)

let conj = function
  | [] -> None
  | p :: ps ->
    Some (List.fold_left (fun acc q -> Expr.BinOp (Expr.And, acc, q)) p ps)

(* Reduce over a join/product core: resolve both input chains, push
   one-sided filters into them (filters commute with the product — only
   evaluation counts change, never results), conjoin two-sided filters
   into the join predicate for equi-splitting, and keep everything else
   (binds, filters over bind vars) as post-join steps. *)
let try_join_reduce ctx ~domains:budget ~monoid ~head plan ~left ~right steps =
  match (resolve_chain ctx plan left, resolve_chain ctx plan right) with
  | Some lc, Some rc ->
    let lvars = chain_vars lc.var lc.steps and rvars = chain_vars rc.var rc.steps in
    let one_side vars e =
      List.for_all
        (fun v -> List.mem v vars || List.mem_assoc v ctx.Plugins.params)
        (Expr.free_vars e)
    in
    let lpush = ref [] and rpush = ref [] and cross = ref [] and post = ref [] in
    List.iter
      (fun stp ->
        match stp with
        | Filter p when one_side lvars p -> lpush := stp :: !lpush
        | Filter p when one_side rvars p -> rpush := stp :: !rpush
        | Filter p when one_side (lvars @ rvars) p -> cross := p :: !cross
        | stp -> post := stp :: !post)
      steps;
    (match conj (List.rev !cross) with
    | None ->
      note_decline ~where:"join core"
        "no cross-side equi-conjunct to build a hash table on";
      None
    | Some pred ->
      let lc' = { lc with steps = lc.steps @ List.rev !lpush } in
      let rc' = { rc with steps = rc.steps @ List.rev !rpush } in
      (* the pushdown is a plan-shape rewrite: report it to the verifier
         hook in the same Product+Select form the translator uses *)
      (if !lpush <> [] || !rpush <> [] then
         let rebuild l r rest =
           List.fold_left plan_of_step
             (Plan.Product { left = plan_of_chain l; right = plan_of_chain r })
             rest
         in
         let before = rebuild lc rc steps in
         let after =
           rebuild lc' rc'
             (List.map (fun p -> Filter p) (List.rev !cross) @ List.rev !post)
         in
         !checker ~rule:"parallel-filter-pushdown" ~before ~after);
      let lc = lc' and rc = rc' in
      let domains = Morsel.domains_for_rows ~domains:budget (lc.n + rc.n) in
      if domains <= 1 then None
      else
        join_reduce ctx ~domains ~monoid ~head ~pred ~post:(List.rev !post) lc rc)
  | _ -> None

(* [count v] where [v] is a generator variable counts one per row —
   generator bindings are records, never [Null], so count's NULL-skipping
   cannot fire. Neutralizing the head before needs analysis keeps [count r]
   over a hierarchical source from demanding whole objects. (Map-bound vars
   can be [Null] and must keep their head: sequential count skips them.) *)
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
    if List.mem v (source_vars child []) then begin
      let plan' = Plan.Reduce { r with head = Expr.Const (Value.Int 0) } in
      !checker ~rule:"parallel-neutralize-count-head" ~before:plan ~after:plan';
      plan'
    end
    else plan
  | plan -> plan

(* Reduce on the row path: a single chain folds in morsels, an equi-join
   core builds and probes in morsels. *)
let reduce_rows ctx ~budget (plan : Plan.t) =
  match plan with
  | Plan.Reduce { monoid; head; child } -> (
    match resolve_chain ctx plan child with
    | Some c ->
      if
        not
          (scoped ctx
             ~bound:(chain_vars c.var c.steps)
             ~where:"fold head" head)
      then None
      else
        let domains = Morsel.domains_for_rows ~domains:budget c.n in
        if domains <= 1 then None
        else Some (fold_chain ctx ~domains ~monoid ~head c)
    | None -> (
      match strip_ops child [] with
      | Plan.Join { pred; left; right }, steps ->
        try_join_reduce ctx ~domains:budget ~monoid ~head plan ~left ~right
          (Filter pred :: steps)
      | Plan.Product { left; right }, steps ->
        try_join_reduce ctx ~domains:budget ~monoid ~head plan ~left ~right steps
      | _ -> None))
  | _ -> None

let try_query ctx ?domains (plan : Plan.t) : Value.t option =
  declines := [];
  let budget =
    match domains with Some d -> max 1 d | None -> ctx.Plugins.domains
  in
  if budget <= 1 then None
  else
    match plan with
    | Plan.Reduce _ -> (
      (* the vectorized join runs first, as [fold_chain] tries
         [fold_chain_vectorized], over the neutralized plan, so it reads
         the fields the row path reads; a declined join takes the row
         path, and when that declines too, the closure engine answers
         here rather than letting the sequential entry try the kernel a
         second time *)
      let rows = neutralize_count plan in
      let declined reason =
        Vector.note_fallback_stats reason;
        Governor.note_fallback ~stage:"vectorized->closure" ~reason ();
        match reduce_rows ctx ~budget rows with
        | Some v -> Some v
        | None -> Some (Compile.closure ctx plan ())
      in
      match Vector.compile_join ctx ~domains:budget rows with
      | `Silent -> reduce_rows ctx ~budget rows
      | `Decline reason -> declined reason
      | `Run run -> (
        match run () with
        | v -> Some v
        | exception Vector.Not_vectorizable reason -> declined reason))
    | p -> (
      (* bare chain output carries every binder's whole record *)
      match resolve_chain ctx ~whole:true p p with
      | None -> None
      | Some c ->
        let domains = Morsel.domains_for_rows ~domains:budget c.n in
        if domains <= 1 then None
        else Some (materialize_chain ctx ~domains c))
