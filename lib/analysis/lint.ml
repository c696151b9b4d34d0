open Vida_data
open Vida_calculus
open Vida_algebra

type severity = Info | Warning | Error

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let rank = function Info -> 0 | Warning -> 1 | Error -> 2

type finding = { id : string; severity : severity; message : string }

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %s: %s" f.id (severity_name f.severity) f.message

let catalog =
  [ ("P01", Warning, "cartesian product: no predicate relates the two sides");
    ("P02", Warning, "filter not pushed below the operator it could descend past");
    ("P03", Warning, "wide materialization pollutes the value caches");
    ("P04", Error, "unknown source or parameter referenced");
    ("P05", Warning, "source file changed on disk: sidecar/fingerprint staleness hazard");
    ("P06", Info, "trivially-true filter");
    ("P07", Info, "non-commutative fold: result depends on source order");
    (* kernel-safety obligations over the vectorized rung, discharged
       dynamically in sanitize mode: P08/P09 on every kernel batch run,
       P10 wherever morsel partials merge, Vector.fold_morsels (see
       Kernel and Vida_sync) *)
    ("P08", Error, "selection vector must be sorted, unique and in-bounds per batch");
    ("P09", Error, "kernel scratch state must not escape its morsel");
    ("P10", Error, "vectorized fold merge order must satisfy merge_requirement") ]

let wide_threshold = 12

let finding id message =
  let severity =
    match List.find_opt (fun (i, _, _) -> String.equal i id) catalog with
    | Some (_, s, _) -> s
    | None -> Warning
  in
  { id; severity; message }

let subset vars allowed = List.for_all (fun v -> List.mem v allowed) vars

(* width of one environment record: record-typed binders contribute their
   field count, everything else one slot *)
let env_width gamma =
  List.fold_left
    (fun acc (_, t) ->
      acc + (match t with Ty.Record fs -> List.length fs | _ -> 1))
    0 gamma

let mentions_both pred lvars rvars =
  let fv = Expr.free_vars pred in
  List.exists (fun v -> List.mem v lvars) fv
  && List.exists (fun v -> List.mem v rvars) fv

let rec sources_of (p : Plan.t) =
  (match p with
  | Plan.Source { expr = Expr.Var name; _ } -> [ name ]
  | _ -> [])
  @ List.concat_map sources_of (Plan.children p)

let plan ?env ?(stale = []) (p : Plan.t) =
  let out = ref [] in
  let emit id fmt = Format.kasprintf (fun m -> out := finding id m :: !out) fmt in
  let plan_vars = Plan.bound_vars p in
  (* P01: carry the selection predicates seen on the way down; a Product
     with no enclosing or sibling predicate spanning both sides is a
     cartesian scan *)
  let rec walk preds (p : Plan.t) =
    (match p with
    | Plan.Product { left; right } ->
      let lv = Plan.bound_vars left and rv = Plan.bound_vars right in
      if not (List.exists (fun pr -> mentions_both pr lv rv) preds) then
        emit "P01" "cartesian product of {%s} and {%s}: no join predicate"
          (String.concat ", " lv) (String.concat ", " rv)
    | Plan.Join { pred; left; right } ->
      let lv = Plan.bound_vars left and rv = Plan.bound_vars right in
      if not (List.exists (fun pr -> mentions_both pr lv rv) (pred :: preds))
      then
        emit "P01" "join of {%s} and {%s} degenerates to a cartesian product"
          (String.concat ", " lv) (String.concat ", " rv)
    | Plan.Select { pred; child } -> (
      (match pred with
      | Expr.Const (Value.Bool true) ->
        emit "P06" "trivially-true filter"
      | _ -> ());
      let fv =
        List.filter (fun v -> List.mem v plan_vars) (Expr.free_vars pred)
      in
      match child with
      | Plan.Product { left; right } | Plan.Join { left; right; _ } ->
        let lv = Plan.bound_vars left and rv = Plan.bound_vars right in
        if fv <> [] && (subset fv lv || subset fv rv) then
          emit "P02"
            "filter on %s sits above a join but touches only one side"
            (String.concat ", " fv)
      | Plan.Map { var; _ } when not (List.mem var fv) ->
        emit "P02" "filter on %s not pushed past the binding of %s"
          (String.concat ", " fv) var
      | _ -> ())
    | Plan.Reduce { monoid; _ } | Plan.Nest { monoid; _ } ->
      if not (Monoid.commutative monoid) then
        emit "P07"
          "fold into non-commutative monoid %s: result depends on source order"
          (Monoid.name monoid)
    | Plan.Unit | Plan.Source _ | Plan.Map _ | Plan.Unnest _ -> ());
    let preds =
      match p with
      | Plan.Select { pred; _ } -> pred :: preds
      | Plan.Join { pred; _ } -> pred :: preds
      | _ -> preds
    in
    List.iter (walk preds) (Plan.children p)
  in
  walk [] p;
  List.iter
    (fun name ->
      if List.mem name stale then
        emit "P05"
          "source %s changed on disk since registration: positional maps, \
           semi-indexes and cached fingerprints are stale until first access \
           re-registers it"
          name)
    (sources_of p);
  (match env with
  | None -> ()
  | Some env ->
    List.iter
      (fun v ->
        if not (List.mem_assoc v env) then
          emit "P04" "unknown source or parameter %s" v)
      (Plan.free_vars p);
    (* P03 only applies to bare streams: a Reduce/Nest root folds the
       stream away instead of materializing it *)
    (match p with
    | Plan.Reduce _ | Plan.Nest _ -> ()
    | stream -> (
      match Verifier.environment ~env stream with
      | gamma ->
        let w = env_width gamma in
        if w > wide_threshold then
          emit "P03"
            "materializing %d-field environments (threshold %d): decoded \
             columns will evict hotter cache entries"
            w wide_threshold
      | exception _ -> () (* the verifier reports typing problems *))));
  List.stable_sort
    (fun a b -> compare (rank b.severity) (rank a.severity))
    (List.rev !out)

let max_severity findings =
  List.fold_left
    (fun acc f ->
      match acc with
      | None -> Some f.severity
      | Some s -> Some (if rank f.severity > rank s then f.severity else s))
    None findings
