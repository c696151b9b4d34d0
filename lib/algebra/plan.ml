open Vida_calculus

type t =
  | Unit
  | Source of { var : string; expr : Expr.t }
  | Select of { pred : Expr.t; child : t }
  | Map of { var : string; expr : Expr.t; child : t }
  | Product of { left : t; right : t }
  | Join of { pred : Expr.t; left : t; right : t }
  | Unnest of { var : string; path : Expr.t; outer : bool; child : t }
  | Reduce of { monoid : Monoid.t; head : Expr.t; child : t }
  | Nest of {
      monoid : Monoid.t;
      var : string;
      head : Expr.t;
      keys : (string * Expr.t) list;
      child : t;
    }

let rec bound_vars = function
  | Unit -> []
  | Source { var; _ } -> [ var ]
  | Select { child; _ } -> bound_vars child
  | Map { var; child; _ } -> bound_vars child @ [ var ]
  | Product { left; right } | Join { left; right; _ } ->
    bound_vars left @ bound_vars right
  | Unnest { var; child; _ } -> bound_vars child @ [ var ]
  | Reduce _ -> []  (* a reduce produces a single value, not environments *)
  | Nest { var; keys; _ } -> List.map fst keys @ [ var ]

module Sset = Set.Make (String)

let rec free_set p =
  let expr_free bound e =
    Sset.diff (Sset.of_list (Expr.free_vars e)) bound
  in
  match p with
  | Unit -> Sset.empty
  | Source { expr; _ } -> Sset.of_list (Expr.free_vars expr)
  | Select { pred; child } ->
    Sset.union (free_set child) (expr_free (Sset.of_list (bound_vars child)) pred)
  | Map { expr; child; _ } ->
    Sset.union (free_set child) (expr_free (Sset.of_list (bound_vars child)) expr)
  | Product { left; right } | Join { left; right; pred = _ } -> (
    let base = Sset.union (free_set left) (free_set right) in
    match p with
    | Join { pred; _ } ->
      Sset.union base
        (expr_free (Sset.of_list (bound_vars left @ bound_vars right)) pred)
    | _ -> base)
  | Unnest { path; child; _ } ->
    Sset.union (free_set child) (expr_free (Sset.of_list (bound_vars child)) path)
  | Reduce { head; child; _ } ->
    Sset.union (free_set child) (expr_free (Sset.of_list (bound_vars child)) head)
  | Nest { head; keys; child; _ } ->
    let bound = Sset.of_list (bound_vars child) in
    List.fold_left
      (fun acc (_, k) -> Sset.union acc (expr_free bound k))
      (Sset.union (free_set child) (expr_free bound head))
      keys

let free_vars p = Sset.elements (free_set p)

let children = function
  | Unit | Source _ -> []
  | Select { child; _ } | Map { child; _ } | Unnest { child; _ }
  | Reduce { child; _ }
  | Nest { child; _ } ->
    [ child ]
  | Product { left; right } | Join { left; right; _ } -> [ left; right ]

(* Children that come back physically unchanged keep their parent: an
   untouched subtree stays the same node, which the plan verifier's
   per-derivation memo relies on to skip re-typing it. *)
let map_children f p =
  match p with
  | Unit | Source _ -> p
  | Select ({ child; _ } as r) ->
    let c = f child in
    if c == child then p else Select { r with child = c }
  | Map ({ child; _ } as r) ->
    let c = f child in
    if c == child then p else Map { r with child = c }
  | Unnest ({ child; _ } as r) ->
    let c = f child in
    if c == child then p else Unnest { r with child = c }
  | Reduce ({ child; _ } as r) ->
    let c = f child in
    if c == child then p else Reduce { r with child = c }
  | Nest ({ child; _ } as r) ->
    let c = f child in
    if c == child then p else Nest { r with child = c }
  | Product { left; right } ->
    let l = f left in
    let r = f right in
    if l == left && r == right then p else Product { left = l; right = r }
  | Join ({ left; right; _ } as j) ->
    let l = f left in
    let r = f right in
    if l == left && r == right then p else Join { j with left = l; right = r }

let validate ?(known = fun _ -> false) ~externals p =
  let problem = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !problem = None then problem := Some s) fmt in
  (* the externals are needed only for a variable no binder supplies *)
  let externals = lazy (Sset.of_list externals) in
  let check_expr bound e =
    List.iter
      (fun v ->
        if (not (Sset.mem v bound)) && not (Sset.mem v (Lazy.force externals)) then
          fail "expression references unbound variable %s" v)
      (Expr.free_vars e)
  in
  let rec go p =
    if not (known p) then check p
  and check p =
    let binders = bound_vars p in
    let rec dup = function
      | [] -> ()
      | v :: rest -> if List.mem v rest then fail "duplicate binder %s" v else dup rest
    in
    dup binders;
    (match p with
    | Unit | Source _ -> ()
    | Select { pred; child } -> check_expr (Sset.of_list (bound_vars child)) pred
    | Map { expr; child; var } ->
      check_expr (Sset.of_list (bound_vars child)) expr;
      if List.mem var (bound_vars child) then fail "Map rebinds %s" var
    | Product _ -> ()
    | Join { pred; left; right } ->
      check_expr (Sset.of_list (bound_vars left @ bound_vars right)) pred
    | Unnest { path; child; var; _ } ->
      check_expr (Sset.of_list (bound_vars child)) path;
      if List.mem var (bound_vars child) then fail "Unnest rebinds %s" var
    | Reduce { head; child; _ } -> check_expr (Sset.of_list (bound_vars child)) head
    | Nest { head; keys; child; var; _ } ->
      let bound = Sset.of_list (bound_vars child) in
      check_expr bound head;
      List.iter (fun (_, k) -> check_expr bound k) keys;
      if List.mem var (List.map fst keys) then fail "Nest rebinds %s" var);
    List.iter go (children p)
  in
  go p;
  match !problem with None -> Ok () | Some s -> Error s

let rec equal a b =
  a == b ||
  match a, b with
  | Unit, Unit -> true
  | Source a, Source b -> String.equal a.var b.var && Expr.equal a.expr b.expr
  | Select a, Select b -> Expr.equal a.pred b.pred && equal a.child b.child
  | Map a, Map b ->
    String.equal a.var b.var && Expr.equal a.expr b.expr && equal a.child b.child
  | Product a, Product b -> equal a.left b.left && equal a.right b.right
  | Join a, Join b ->
    Expr.equal a.pred b.pred && equal a.left b.left && equal a.right b.right
  | Unnest a, Unnest b ->
    String.equal a.var b.var && Expr.equal a.path b.path && a.outer = b.outer
    && equal a.child b.child
  | Reduce a, Reduce b ->
    Monoid.equal a.monoid b.monoid && Expr.equal a.head b.head && equal a.child b.child
  | Nest a, Nest b ->
    Monoid.equal a.monoid b.monoid
    && String.equal a.var b.var && Expr.equal a.head b.head
    && List.length a.keys = List.length b.keys
    && List.for_all2
         (fun (n1, k1) (n2, k2) -> String.equal n1 n2 && Expr.equal k1 k2)
         a.keys b.keys
    && equal a.child b.child
  | _ -> false

let rec pp_indented ppf (indent, p) =
  let pad = String.make (indent * 2) ' ' in
  let child c = Format.fprintf ppf "@,%a" pp_indented (indent + 1, c) in
  match p with
  | Unit -> Format.fprintf ppf "%sUnit" pad
  | Source { var; expr } -> Format.fprintf ppf "%sSource %s <- %s" pad var (Expr.to_string expr)
  | Select { pred; child = c } ->
    Format.fprintf ppf "%sSelect %s" pad (Expr.to_string pred);
    child c
  | Map { var; expr; child = c } ->
    Format.fprintf ppf "%sMap %s := %s" pad var (Expr.to_string expr);
    child c
  | Product { left; right } ->
    Format.fprintf ppf "%sProduct" pad;
    child left;
    child right
  | Join { pred; left; right } ->
    Format.fprintf ppf "%sJoin %s" pad (Expr.to_string pred);
    child left;
    child right
  | Unnest { var; path; outer; child = c } ->
    Format.fprintf ppf "%s%sUnnest %s <- %s" pad (if outer then "Outer" else "") var
      (Expr.to_string path);
    child c
  | Reduce { monoid; head; child = c } ->
    Format.fprintf ppf "%sReduce[%s] %s" pad (Monoid.name monoid) (Expr.to_string head);
    child c
  | Nest { monoid; var; head; keys; child = c } ->
    Format.fprintf ppf "%sNest[%s] %s := %s by (%s)" pad (Monoid.name monoid) var
      (Expr.to_string head)
      (String.concat ", "
         (List.map (fun (n, k) -> n ^ " := " ^ Expr.to_string k) keys));
    child c

let pp ppf p = Format.fprintf ppf "@[<v>%a@]" pp_indented (0, p)
let to_string p = Format.asprintf "%a" pp p
