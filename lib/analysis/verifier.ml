open Vida_data
open Vida_calculus
open Vida_algebra

type env = (string * Ty.t) list

exception Fail of string

let fail fmt = Format.kasprintf (fun s -> raise (Fail s)) fmt

(* Scalar typing under externals + the derived schema; schema entries are
   appended so plan binders shadow registered sources of the same name,
   exactly as the engines resolve them. *)
let scalar_ty externals gamma (e : Expr.t) =
  Typecheck.infer_exn (externals @ gamma) e

let check_bool externals gamma ~op (e : Expr.t) =
  let t = scalar_ty externals gamma e in
  match Ty.unify t Ty.Bool with
  | Some _ -> ()
  | None ->
    fail "%s predicate %s has type %s, expected bool" op (Expr.to_string e)
      (Ty.to_string t)

let bind ~op gamma (var, ty) =
  if List.mem_assoc var gamma then fail "%s rebinds variable %s" op var
  else gamma @ [ (var, ty) ]

let element ~op ~var t =
  match t with
  | Ty.Coll (_, elt) -> elt
  | Ty.Any -> Ty.Any
  | t ->
    fail "%s draws %s from non-collection type %s" op var (Ty.to_string t)

(* The type a Reduce/Nest fold produces: [Singleton (m, head)] has exactly
   the monoid's result type for [head]'s element type, so the expression
   checker is reused as the single source of monoid typing rules. *)
let fold_ty externals gamma monoid head =
  scalar_ty externals gamma (Expr.Singleton (monoid, head))

(* --- the per-derivation memo ---

   Plans are immutable and closed over their own binders, so the schema a
   node derives depends only on the node and the externals. Within one
   derivation (one query's plan, its rewrites and their checks) the
   externals are fixed, and a rewrite shares every subtree it did not
   touch: keyed by physical identity, a node that has checked once is
   never typed again. A node is stored only after it checked — and, on
   the [verify] path, only after its subtree validated — so a failing
   node fails again, with the same diagnostic. *)

module Nodes = Hashtbl.Make (struct
  type t = Plan.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* what a checked node derives: a stream's environment schema, or the
   value a [Reduce] folds its stream into *)
type derived = Stream of env | Folded of Ty.t

type memo = {
  nodes : derived Nodes.t;
  mutable externals : env;  (* the environment the entries were derived under *)
  mutable typed : int;
}

let memo () = { nodes = Nodes.create 64; externals = []; typed = 0 }
let typed m = m.typed

(* the memo for a derivation under [env]: entries derived under other
   externals are dropped *)
let under given env =
  match given with
  | None -> { (memo ()) with externals = env }
  | Some m ->
    if m.externals != env then (
      Nodes.reset m.nodes;
      m.externals <- env);
    m

let rec derived m (p : Plan.t) : derived =
  match Nodes.find_opt m.nodes p with
  | Some d -> d
  | None ->
    let d = derive m p in
    Nodes.add m.nodes p d;
    m.typed <- m.typed + 1;
    d

and environment_in m p =
  match derived m p with Stream gamma -> gamma | Folded _ -> []

and derive m (p : Plan.t) : derived =
  let externals = m.externals in
  match p with
  | Plan.Unit -> Stream []
  | Plan.Source { var; expr } ->
    Stream [ (var, element ~op:"Source" ~var (scalar_ty externals [] expr)) ]
  | Plan.Select { pred; child } ->
    let gamma = environment_in m child in
    check_bool externals gamma ~op:"Select" pred;
    Stream gamma
  | Plan.Map { var; expr; child } ->
    let gamma = environment_in m child in
    Stream (bind ~op:"Map" gamma (var, scalar_ty externals gamma expr))
  | Plan.Product { left; right } ->
    let gl = environment_in m left in
    let gr = environment_in m right in
    Stream (List.fold_left (bind ~op:"Product") gl gr)
  | Plan.Join { pred; left; right } ->
    let gl = environment_in m left in
    let gr = environment_in m right in
    let gamma = List.fold_left (bind ~op:"Join") gl gr in
    check_bool externals gamma ~op:"Join" pred;
    Stream gamma
  | Plan.Unnest { var; path; outer = _; child } ->
    let gamma = environment_in m child in
    Stream
      (bind ~op:"Unnest" gamma
         (var, element ~op:"Unnest" ~var (scalar_ty externals gamma path)))
  | Plan.Reduce { monoid; head; child } ->
    (* a nested Reduce produces one scalar, not environments (its binding
       contribution is empty, as [Plan.bound_vars] states) *)
    let gamma = environment_in m child in
    Folded (fold_ty externals gamma monoid head)
  | Plan.Nest { monoid; var; head; keys; child } ->
    let gamma = environment_in m child in
    let keyts = List.map (fun (n, k) -> (n, scalar_ty externals gamma k)) keys in
    let folded = fold_ty externals gamma monoid head in
    Stream (List.fold_left (bind ~op:"Nest") [] (keyts @ [ (var, folded) ]))

let result_ty_in m p =
  match derived m p with
  | Folded t -> t
  | Stream gamma ->
    (* environments are name-addressed: binder order is presentational, so
       the result type is canonicalized — a rewrite that merely permutes
       binders (e.g. a join build-side swap) preserves it *)
    let gamma = List.sort (fun (a, _) (b, _) -> String.compare a b) gamma in
    Ty.Coll (Ty.Bag, Ty.Record gamma)

let environment ~env p = environment_in (under None env) p

let run ?(stage = "plan") ?rule f =
  match f () with
  | v -> Ok v
  | exception Fail reason -> Error (Vida_error.Plan_invalid { stage; rule; reason })
  | exception Vida_error.Error (Vida_error.Type_invalid { context; reason }) ->
    Error
      (Vida_error.Plan_invalid
         { stage; rule; reason = Printf.sprintf "%s (in %s)" reason context })
  | exception Vida_error.Error e -> Error e

let infer ?stage ?rule ~env p =
  run ?stage ?rule (fun () -> result_ty_in (under None env) p)

(* Validate, then type, every node of [p] the memo does not hold yet;
   returns the result type. Only here do nodes enter a caller's memo, so
   an entry vouches for its whole subtree's validity too. *)
let verified m p =
  (match
     Plan.validate ~known:(Nodes.mem m.nodes) ~externals:(List.map fst m.externals) p
   with
  | Ok () -> ()
  | Error msg -> fail "%s" msg);
  result_ty_in m p

let verify ?memo ?stage ?rule ~env p =
  run ?stage ?rule (fun () -> ignore (verified (under memo env) p))

let verify_exn ?memo ?stage ?rule ~env p =
  match verify ?memo ?stage ?rule ~env p with
  | Ok () -> ()
  | Error e -> Vida_error.error e

let check_rewrite ?memo ~stage ~rule ~env ~before ~after () =
  let m = under memo env in
  (* a broken [before] predates this firing: report it against the stage
     so the diagnostic does not blame an innocent rule *)
  match run ~stage (fun () -> verified m before) with
  | Error _ as e -> e
  | Ok tb ->
    match run ~stage ~rule (fun () -> verified m after) with
    | Error _ as e -> e
    | Ok ta ->
      run ~stage ~rule (fun () ->
          (match Ty.unify tb ta with
          | Some _ -> ()
          | None ->
            fail "rewrite changed the result type from %s to %s"
              (Ty.to_string tb) (Ty.to_string ta));
          let fb = Plan.free_vars before and fa = Plan.free_vars after in
          List.iter
            (fun v ->
              if not (List.mem v fb) then
                fail "rewrite introduced free variable %s" v)
            fa)
