open Vida_calculus
open Vida_algebra

type report = {
  before : Cost.estimate;
  after : Cost.estimate;
  rewritten : Plan.t;
}

(* --- decomposition of the stream part into a dependency graph --- *)

type item =
  | ISource of { var : string; expr : Expr.t }
  | IUnnest of { var : string; path : Expr.t; outer : bool }
  | IMap of { var : string; expr : Expr.t }

let item_var = function
  | ISource { var; _ } | IUnnest { var; _ } | IMap { var; _ } -> var

let item_expr = function
  | ISource { expr; _ } -> expr
  | IUnnest { path; _ } -> path
  | IMap { expr; _ } -> expr

exception Unsupported

(* Flatten a stream plan into items + predicate conjuncts; raises
   [Unsupported] on shapes the greedy builder does not handle. *)
let rec decompose (p : Plan.t) : item list * Expr.t list =
  match p with
  | Plan.Unit -> ([], [])
  | Plan.Source { var; expr } -> ([ ISource { var; expr } ], [])
  | Plan.Select { pred; child } ->
    let items, preds = decompose child in
    (items, preds @ Rules.conjuncts pred)
  | Plan.Map { var; expr; child } ->
    let items, preds = decompose child in
    (items @ [ IMap { var; expr } ], preds)
  | Plan.Unnest { var; path; outer; child } ->
    let items, preds = decompose child in
    (items @ [ IUnnest { var; path; outer } ], preds)
  | Plan.Product { left; right } ->
    let li, lp = decompose left and ri, rp = decompose right in
    (li @ ri, lp @ rp)
  | Plan.Join { pred; left; right } ->
    let li, lp = decompose left and ri, rp = decompose right in
    (li @ ri, lp @ rp @ Rules.conjuncts pred)
  | Plan.Reduce _ | Plan.Nest _ -> raise Unsupported

(* --- greedy reconstruction --- *)

let attach placed item =
  match item, placed with
  | ISource { var; expr }, None -> Plan.Source { var; expr }
  | ISource { var; expr }, Some p ->
    Plan.Product { left = p; right = Plan.Source { var; expr } }
  | IUnnest { var; path; outer }, Some p ->
    Plan.Unnest { var; path; outer; child = p }
  | IUnnest { var; path; outer }, None ->
    Plan.Unnest { var; path; outer; child = Plan.Unit }
  | IMap { var; expr }, Some p -> Plan.Map { var; expr; child = p }
  | IMap { var; expr }, None -> Plan.Map { var; expr; child = Plan.Unit }

let apply_preds plan preds =
  List.fold_left (fun plan pred -> Plan.Select { pred; child = plan }) plan preds

let greedy ~check ctx items preds =
  let all_vars = List.map item_var items in
  let deps item =
    List.filter
      (fun v -> List.mem v all_vars && not (String.equal v (item_var item)))
      (Expr.free_vars (item_expr item))
  in
  let pred_ready bound pred =
    List.for_all (fun v -> (not (List.mem v all_vars)) || List.mem v bound)
      (Expr.free_vars pred)
  in
  let rec build placed bound remaining preds =
    match remaining with
    | [] -> apply_preds (Option.value placed ~default:Plan.Unit) preds
    | _ ->
      let ready =
        List.filter (fun it -> List.for_all (fun d -> List.mem d bound) (deps it)) remaining
      in
      let candidates = if ready = [] then [ List.hd remaining ] else ready in
      let score item =
        let bound' = item_var item :: bound in
        let satisfied, _ = List.partition (pred_ready bound') preds in
        let trial = Rules.apply ~check (apply_preds (attach placed item) satisfied) in
        let est = Cost.estimate ctx trial in
        est.Cost.cost +. est.Cost.cardinality
      in
      let best =
        List.fold_left
          (fun acc item ->
            let s = score item in
            match acc with
            | Some (_, best_s) when best_s <= s -> acc
            | _ -> Some (item, s))
          None candidates
      in
      let item, _ = Option.get best in
      let bound = item_var item :: bound in
      let satisfied, rest = List.partition (pred_ready bound) preds in
      let placed = Some (apply_preds (attach placed item) satisfied) in
      build placed bound (List.filter (fun it -> it != item) remaining) rest
  in
  build None [] items preds

(* swap hash-join sides so the smaller estimated input is built *)
let rec choose_build_sides ~check ctx (p : Plan.t) =
  let p = Plan.map_children (choose_build_sides ~check ctx) p in
  match p with
  | Plan.Join ({ left; right; _ } as j) ->
    let l = Cost.estimate ctx left and r = Cost.estimate ctx right in
    if r.Cost.cardinality > l.Cost.cardinality *. 1.5 then (
      let p' = Plan.Join { j with left = right; right = left } in
      check ~rule:"join-build-side-swap" ~before:p ~after:p';
      p')
    else p
  | p -> p

let optimize_stream ~check ctx (p : Plan.t) =
  match decompose p with
  | items, preds ->
    choose_build_sides ~check ctx (Rules.apply ~check (greedy ~check ctx items preds))
  | exception Unsupported -> choose_build_sides ~check ctx (Rules.apply ~check p)

let optimize ?(check = Rules.no_check) ctx (p : Plan.t) =
  (* grouping recognition first: the correlated group-by idiom becomes a
     single Nest pass, then its input stream is ordered as usual *)
  match Groupby.rewrite p with
  | Some (Plan.Reduce ({ child = Plan.Nest n; _ } as r) as nested) ->
    check ~rule:"groupby-nest" ~before:p ~after:nested;
    Plan.Reduce
      { r with child = Plan.Nest { n with child = optimize_stream ~check ctx n.child } }
  | Some p' ->
    check ~rule:"groupby-nest" ~before:p ~after:p';
    p'
  | None -> (
    match p with
    | Plan.Reduce r -> Plan.Reduce { r with child = optimize_stream ~check ctx r.child }
    | Plan.Nest n -> Plan.Nest { n with child = optimize_stream ~check ctx n.child }
    | p -> optimize_stream ~check ctx p)

let optimize_with_report ctx p =
  let before = Cost.estimate ctx p in
  let rewritten = optimize ctx p in
  let after = Cost.estimate ctx rewritten in
  (rewritten, { before; after; rewritten })
