open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
module Morsel = Vida_raw.Morsel
module Governor = Vida_governor.Governor
module Effects = Vida_analysis.Effects

(* Morsel-driven parallel execution over columnar scans.

   [try_query] runs a plan on worker domains: first through the
   vectorized kernels ({!Vector.compile} at the domain budget, which
   splits a single-chain scan or a join's top probe into morsels), and
   when they decline, a Reduce over a Select*/Map* chain on one columnar
   source folds tuple at a time in morsels, for every monoid. Morsel
   partials are merged in morsel (= source) order, so non-commutative
   collection monoids concatenate correctly. Since string filters and
   unnest joins run as kernels, no HBP query reaches that row fold
   ([reduce_rows]); it answers the shapes the kernels decline (monoids
   without a fused kernel, mixed or untypeable columns, string heads),
   and result repair continues cached folds through it.

   Anything else returns [None] and the caller runs the closure engine —
   that fallback is the correctness anchor: with [domains = 1] or an
   unsupported shape, results are the sequential engine's by
   construction.

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

let chain_vars var steps =
  var
  :: List.filter_map
       (function Vector.VBind (v, _) -> Some v | Vector.VFilter _ -> None)
       steps

(* Closure compilation of [e] must not reach shared mutable state when run
   on a worker domain; the effect analysis decides, and a decline carries
   the offending subterm so callers (and `.analyze`) can explain it. A
   [quiet] check (a result repair's) logs nothing. *)
let scoped ?(quiet = false) ctx ~bound ~where e =
  match
    Effects.worker_verdict ~bound
      ~params:(List.map fst ctx.Plugins.params)
      e
  with
  | Ok () -> true
  | Error r ->
    if not quiet then note_decline ~where (Effects.reason_to_string r);
    false

let steps_scoped ?quiet ctx ~bound ~where steps =
  List.for_all
    (function
      | Vector.VFilter p -> scoped ?quiet ctx ~bound ~where:(where ^ " filter") p
      | Vector.VBind (_, e) -> scoped ?quiet ctx ~bound ~where:(where ^ " binding") e)
    steps

(* Fields of [source] the plan needs for chain variable [var]. [Whole] is
   only honored for formats whose declared field list reconstructs the
   row exactly as the sequential producer does (CSV schema, binary-array
   header); JSON/XML objects may carry fields beyond the declared element
   type, so [Whole] declines there. *)
let fields_for ctx plan ~var (source : Source.t) =
  match Analysis.plan_var_needs plan ~var with
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
  steps : Vector.vstep list;
  n : int;  (* row count *)
  columns : (string * Value.t array) array;
}

let resolve_chain ?quiet ctx plan (p : Plan.t) =
  match Vector.decompose p with
  | None -> None
  | Some (var, name, steps) -> (
    match Registry.find ctx.Plugins.registry name with
    | None -> None
    | Some source -> (
      let bound = chain_vars var steps in
      if not (steps_scoped ?quiet ctx ~bound ~where:"chain" steps) then None
      else
        match fields_for ctx plan ~var source with
        | None -> None (* Whole needed, format can't reconstruct rows *)
        | Some fields -> (
          (* [] is fine: only the row count matters (e.g. a neutralized
             count head) and column_arrays reports it for every format *)
          match Plugins.column_arrays ctx source ~fields with
          | None -> None
          | Some (n, columns) ->
            Some { var; steps; n; columns = Array.of_list columns })))

(* Per-task compiled pipeline for one chain: applies steps to the row
   loaded in slot [base] and calls [sink] on rows that survive. Compiled
   closures are task-local; the column arrays they read are immutable.
   A filter with a tap counts into task-local ints; [flush_counts] adds
   them to the tap, shared by every task, once per range. *)
let compile_steps ctx ~slots steps =
  List.map
    (function
      | `Filter (pred, None) -> `Filter (Compile.scalar ctx ~slots pred)
      | `Filter (pred, Some tap) -> `Count (Compile.scalar ctx ~slots pred, tap, ref 0, ref 0)
      | `Bind (v, e) -> `Bind (List.assoc v slots, Compile.scalar ctx ~slots e))
    steps

let run_steps compiled env k =
  let rec apply = function
    | [] -> k ()
    | `Filter cp :: rest -> if Eval.truthy (cp env) then apply rest
    | `Count (cp, _, seen, passed) :: rest ->
      incr seen;
      if Eval.truthy (cp env) then begin
        incr passed;
        apply rest
      end
    | `Bind (slot, ce) :: rest ->
      env.(slot) <- ce env;
      apply rest
  in
  apply compiled

let flush_counts compiled =
  List.iter
    (function
      | `Count (_, tap, seen, passed) ->
        ignore (Atomic.fetch_and_add tap.Vector.seen !seen);
        ignore (Atomic.fetch_and_add tap.Vector.passed !passed)
      | `Filter _ | `Bind _ -> ())
    compiled

(* Row record built from hoisted column arrays without a per-row closure. *)
let record_of_columns columns i =
  let rec go j acc =
    if j < 0 then acc
    else
      let f, arr = Array.unsafe_get columns j in
      go (j - 1) ((f, arr.(i)) :: acc)
  in
  Value.Record (go (Array.length columns - 1) [])

(* Rows [from, c.n) of the chain folded into a pre-finalize carrier. With
   a stored [carrier] the fold continues it: at one domain row by row
   from the carrier itself, on more domains as morsel partials merged
   after it. With [record] it returns the filters' taps with it. *)
let fold_chain_rows ?(record = false) ctx ~domains ~monoid ~head ?(from = 0) ?carrier
    (c : chain) =
  let vars = chain_vars c.var c.steps in
  let slots = List.mapi (fun i v -> (v, i)) vars in
  let nslots = List.length vars in
  let steps =
    List.map
      (function
        | Vector.VFilter p -> `Filter (p, if record then Some (Vector.new_tap p) else None)
        | Vector.VBind (v, e) -> `Bind (v, e))
      c.steps
  in
  let fold acc ~lo ~hi =
    let compiled = compile_steps ctx ~slots steps in
    let chead = Compile.scalar ctx ~slots head in
    let env = Array.make nslots Value.Null in
    for i = lo to hi - 1 do
      Governor.poll ~source:"parallel" ();
      env.(0) <- record_of_columns c.columns i;
      run_steps compiled env (fun () -> Monoid.add acc (chead env))
    done;
    flush_counts compiled;
    Monoid.contents acc
  in
  let folded =
    if domains <= 1 then
      let acc =
        match carrier with
        | Some carrier -> Monoid.resume monoid carrier
        | None -> Monoid.accumulator monoid
      in
      fold acc ~lo:from ~hi:c.n
    else
      let partial =
        Vector.fold_morsels ~domains ~monoid ~subject:"rows" (c.n - from) (fun ~lo ~hi ->
            fold (Monoid.accumulator monoid) ~lo:(from + lo) ~hi:(from + hi))
      in
      match carrier with
      | Some carrier -> Monoid.merge monoid carrier partial
      | None -> partial
  in
  (folded, List.filter_map (function `Filter (_, tap) -> tap | `Bind _ -> None) steps)

(* The row path behind a kernel decline: a Reduce over one chain folds in
   morsels, and records its filters' selectivities as the kernels and the
   closure engine do (a morsel-split scan records no cardinality). *)
let reduce_rows ctx ~budget (plan : Plan.t) =
  match plan with
  | Plan.Reduce { monoid; head; child } -> (
    match resolve_chain ctx plan child with
    | None -> None
    | Some c ->
      if not (scoped ctx ~bound:(chain_vars c.var c.steps) ~where:"fold head" head)
      then None
      else
        let domains = Morsel.domains_for_rows ~domains:budget c.n in
        if domains <= 1 then None
        else begin
          let folded, taps = fold_chain_rows ~record:true ctx ~domains ~monoid ~head c in
          Vector.flush_taps ctx taps;
          Some (Plugins.finalize_root ctx monoid folded)
        end)
  | _ -> None

(* --- result repair ---

   A cached fold over one source's chain, computed when the source held
   [from] rows, is continued over the rows an append added: the monoid
   guarantees fold (old ++ new) = fold old ⊕ fold new, and a resumable
   monoid computes the right side from the stored carrier at the cost of
   the new rows alone. *)

let resumable_chain ctx (plan : Plan.t) =
  match plan with
  | Plan.Reduce { monoid; head; child } when Monoid.resumable monoid -> (
    match Vector.decompose child with
    | Some (var, name, steps) ->
      let bound = chain_vars var steps in
      if steps_scoped ~quiet:true ctx ~bound ~where:"chain" steps
         && scoped ~quiet:true ctx ~bound ~where:"fold head" head
      then Some (monoid, head, child, name)
      else None
    | None -> None)
  | _ -> None

let resumable ctx plan =
  Option.map (fun (_, _, _, name) -> name) (resumable_chain ctx plan)

let resume ctx plan ~carrier ~from =
  match resumable_chain ctx plan with
  | None -> None
  | Some (monoid, head, child, _) -> (
    match resolve_chain ~quiet:true ctx plan child with
    | Some c when c.n >= from ->
      let domains = Morsel.domains_for_rows ~domains:ctx.Plugins.domains (c.n - from) in
      (* a repair observes the appended rows only: it records no feedback *)
      Some (fst (fold_chain_rows ctx ~domains ~monoid ~head ~from ~carrier c), c.n)
    | Some _ | None -> None)

let try_query ctx ?domains (plan : Plan.t) : Value.t option =
  declines := [];
  let budget =
    match domains with Some d -> max 1 d | None -> ctx.Plugins.domains
  in
  if budget <= 1 then None
  else
    let declined reason =
      Vector.note_fallback reason;
      reduce_rows ctx ~budget plan
    in
    match Vector.compile ctx ~domains:budget plan with
    | `Silent -> reduce_rows ctx ~budget plan
    | `Decline reason -> declined reason
    | `Run run -> (
      match run () with
      | v -> Some v
      | exception Vector.Not_vectorizable reason -> declined reason)
