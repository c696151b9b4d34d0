open Vida_data
open Vida_calculus
open Vida_algebra

type relational = Row of Rowstore.t | Col of Colstore.t

type t = {
  relational : relational;
  docs : Docstore.t;
  placement : (string, [ `Rel | `Doc ]) Hashtbl.t;
  mutable shipped : int;
}

let create relational docs =
  { relational; docs; placement = Hashtbl.create 8; shipped = 0 }

let place t ~source backend =
  if Hashtbl.mem t.placement source then
    invalid_arg (Printf.sprintf "Mediator: source %S already placed" source);
  Hashtbl.replace t.placement source backend

let shipped_values t = t.shipped

(* wire-format conversion: values leave a backend serialized and are
   re-materialized in the mediator *)
let ship t v =
  t.shipped <- t.shipped + 1;
  Vida_storage.Vbson.decode (Vida_storage.Vbson.encode v)

let backend_run t backend plan =
  match backend with
  | `Doc -> Docstore.run t.docs plan
  | `Rel -> (
    match t.relational with
    | Row store -> Rowstore.run store plan
    | Col store -> Colstore.run store plan)

(* A pushable fragment: Select* over a Source of a placed table. Returns
   (var, source name, fragment plan). *)
let rec pushable (p : Plan.t) =
  match p with
  | Plan.Source { var; expr = Expr.Var name } -> Some (var, name)
  | Plan.Select { child; _ } -> pushable child
  | _ -> None

let rec push_fragments t ~need_of (p : Plan.t) =
  match pushable p with
  | Some (var, name) when Hashtbl.mem t.placement name ->
    let backend = Hashtbl.find t.placement name in
    (* project the fields the whole query needs of [var] into a marker
       binding, so the backend ships exactly the outer select-list *)
    let marker = Expr.fresh_var "ship" in
    let projection =
      match need_of var with
      | Vida_engine.Analysis.Whole -> Expr.Var var
      | Vida_engine.Analysis.Fields fs ->
        Expr.Record (List.map (fun f -> (f, Expr.Proj (Expr.Var var, f))) fs)
    in
    let fragment = Plan.Map { var = marker; expr = projection; child = p } in
    let shipped = backend_run t backend fragment in
    let values =
      List.map (fun env -> ship t (Value.field env marker)) (Value.elements shipped)
    in
    Plan.Source { var; expr = Expr.Const (Value.Bag values) }
  | _ -> Plan.map_children (push_fragments t ~need_of) p

let run t plan =
  (* push single-source selections toward the sources first so the
     fragments shipped from each backend are already filtered *)
  let original = plan in
  let plan = Vida_optimizer.Rules.apply plan in
  let need_of var = Vida_engine.Analysis.plan_var_needs original ~var in
  let plan = push_fragments t ~need_of plan in
  let resolve name ~need:_ _ =
    invalid_arg (Printf.sprintf "Mediator: source %S not placed on any backend" name)
  in
  Vida_engine.Interp.resolved ~resolve plan
