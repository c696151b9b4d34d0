open Vida_data
open Vida_calculus
open Vida_algebra

(* --- typed columns --- *)

type column =
  | Ints of int array * bool array  (* values, null mask (true = NULL) *)
  | Floats of float array * bool array
  | Bools of bool array * bool array
  | Strings of string array * bool array
  | Generic of Value.t array

type table = {
  schema : Schema.t;
  mutable cols : column array;
  mutable nrows : int;
}

type t = { tables : (string, table) Hashtbl.t }

let create () = { tables = Hashtbl.create 8 }

let create_table t ~name schema =
  if Hashtbl.mem t.tables name then
    invalid_arg (Printf.sprintf "Colstore: table %S exists" name);
  Hashtbl.replace t.tables name { schema; cols = [||]; nrows = 0 }

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Colstore: no table %S" name)

let col_get col i =
  match col with
  | Ints (a, nulls) -> if nulls.(i) then Value.Null else Value.Int a.(i)
  | Floats (a, nulls) -> if nulls.(i) then Value.Null else Value.Float a.(i)
  | Bools (a, nulls) -> if nulls.(i) then Value.Null else Value.Bool a.(i)
  | Strings (a, nulls) -> if nulls.(i) then Value.Null else Value.String a.(i)
  | Generic a -> a.(i)

let build_column ty (values : Value.t array) =
  let n = Array.length values in
  let nulls = Array.make n false in
  let try_ints () =
    let out = Array.make n 0 in
    let ok = ref true in
    Array.iteri
      (fun i v ->
        match v with
        | Value.Int x -> out.(i) <- x
        | Value.Null -> nulls.(i) <- true
        | _ -> ok := false)
      values;
    if !ok then Some (Ints (out, nulls)) else None
  in
  let try_floats () =
    let out = Array.make n 0. in
    let ok = ref true in
    Array.iteri
      (fun i v ->
        match v with
        | Value.Float x -> out.(i) <- x
        | Value.Int x -> out.(i) <- float_of_int x
        | Value.Null -> nulls.(i) <- true
        | _ -> ok := false)
      values;
    if !ok then Some (Floats (out, nulls)) else None
  in
  let try_bools () =
    let out = Array.make n false in
    let ok = ref true in
    Array.iteri
      (fun i v ->
        match v with
        | Value.Bool x -> out.(i) <- x
        | Value.Null -> nulls.(i) <- true
        | _ -> ok := false)
      values;
    if !ok then Some (Bools (out, nulls)) else None
  in
  let try_strings () =
    let out = Array.make n "" in
    let ok = ref true in
    Array.iteri
      (fun i v ->
        match v with
        | Value.String x -> out.(i) <- x
        | Value.Null -> nulls.(i) <- true
        | _ -> ok := false)
      values;
    if !ok then Some (Strings (out, nulls)) else None
  in
  let first_some l = List.find_map (fun f -> f ()) l in
  let col =
    match ty with
    | Ty.Int -> first_some [ try_ints; try_floats ]
    | Ty.Float -> first_some [ try_floats ]
    | Ty.Bool -> first_some [ try_bools ]
    | Ty.String -> first_some [ try_strings ]
    | _ -> first_some [ try_ints; try_floats; try_bools; try_strings ]
  in
  match col with Some c -> c | None -> Generic (Array.copy values)

let load t ~name rows =
  let tbl = table t name in
  let arity = Schema.arity tbl.schema in
  List.iter
    (fun row ->
      if Array.length row <> arity then invalid_arg "Colstore.load: arity mismatch")
    rows;
  let fresh = Array.of_list rows in
  let n_new = Array.length fresh in
  let old_rows = tbl.nrows in
  let columns =
    Array.init arity (fun c ->
        let merged =
          Array.init (old_rows + n_new) (fun i ->
              if i < old_rows then col_get tbl.cols.(c) i
              else fresh.(i - old_rows).(c))
        in
        build_column (Schema.attr tbl.schema c).Schema.ty merged)
  in
  tbl.cols <- columns;
  tbl.nrows <- old_rows + n_new

let row_count t ~name = (table t name).nrows
let table_schema t ~name = (table t name).schema
let tables t = Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []

let storage_bytes t =
  let col_bytes = function
    | Ints (a, m) -> (8 * Array.length a) + Array.length m
    | Floats (a, m) -> (8 * Array.length a) + Array.length m
    | Bools (a, m) -> Array.length a + Array.length m
    | Strings (a, m) ->
      Array.fold_left (fun acc s -> acc + 16 + String.length s) (Array.length m) a
    | Generic a ->
      Array.fold_left (fun acc v -> acc + 16 + String.length (Value.to_json v)) 0 a
  in
  Hashtbl.fold
    (fun _ tbl acc -> Array.fold_left (fun acc c -> acc + col_bytes c) acc tbl.cols)
    t.tables 0

(* --- generic fallback: tuple-at-a-time over the columns --- *)

let record_of_row tbl i =
  Value.Record
    (List.mapi (fun c a -> (a.Schema.name, col_get tbl.cols.(c) i)) (Schema.attributes tbl.schema))

let resolve_generic t name ~need consumer =
  let tbl = table t name in
  let fields =
    match need with
    | Vida_engine.Analysis.Whole -> Schema.names tbl.schema
    | Vida_engine.Analysis.Fields fs -> fs
  in
  let cols =
    List.map
      (fun f ->
        match Schema.index tbl.schema f with
        | Some c -> (f, Some tbl.cols.(c))
        | None -> (f, None))
      fields
  in
  for i = 0 to tbl.nrows - 1 do
    consumer
      (Value.Record
         (List.map
            (fun (f, col) ->
              match col with None -> (f, Value.Null) | Some c -> (f, col_get c i))
            cols))
  done

(* --- vectorized path --- *)

type vitem = { var : string; tname : string }

exception Not_vectorizable

let rec decompose (p : Plan.t) : vitem list * Expr.t list =
  match p with
  | Plan.Source { var; expr = Expr.Var tname } -> ([ { var; tname } ], [])
  | Plan.Select { pred; child } ->
    let items, preds = decompose child in
    (items, preds @ Vida_optimizer.Rules.conjuncts pred)
  | Plan.Product { left; right } ->
    let li, lp = decompose left and ri, rp = decompose right in
    (li @ ri, lp @ rp)
  | Plan.Join { pred; left; right } ->
    let li, lp = decompose left and ri, rp = decompose right in
    (li @ ri, lp @ rp @ Vida_optimizer.Rules.conjuncts pred)
  | _ -> raise Not_vectorizable

(* a tight predicate loop: column `op` constant *)
let simple_pred tbl (e : Expr.t) : (int -> bool) option =
  let cmp_of = function
    | Expr.Eq -> Some ( = )
    | Expr.Neq -> Some ( <> )
    | Expr.Lt -> Some ( < )
    | Expr.Le -> Some ( <= )
    | Expr.Gt -> Some ( > )
    | Expr.Ge -> Some ( >= )
    | _ -> None
  in
  let flip = function
    | Expr.Lt -> Expr.Gt
    | Expr.Le -> Expr.Ge
    | Expr.Gt -> Expr.Lt
    | Expr.Ge -> Expr.Le
    | op -> op
  in
  let over_column field op (c : Value.t) =
    match Schema.index tbl.schema field, cmp_of op with
    | Some idx, Some cmp -> (
      match tbl.cols.(idx), c with
      | Ints (a, nulls), Value.Int k -> Some (fun i -> (not nulls.(i)) && cmp (compare a.(i) k) 0)
      | Ints (a, nulls), Value.Float k ->
        Some (fun i -> (not nulls.(i)) && cmp (Float.compare (float_of_int a.(i)) k) 0)
      | Floats (a, nulls), (Value.Int _ | Value.Float _) ->
        let k = Value.to_float c in
        Some (fun i -> (not nulls.(i)) && cmp (Float.compare a.(i) k) 0)
      | Strings (a, nulls), Value.String k ->
        Some (fun i -> (not nulls.(i)) && cmp (String.compare a.(i) k) 0)
      | Bools (a, nulls), Value.Bool k ->
        Some (fun i -> (not nulls.(i)) && cmp (Bool.compare a.(i) k) 0)
      | Generic a, _ -> Some (fun i -> a.(i) <> Value.Null && cmp (Value.compare a.(i) c) 0)
      | _ -> None)
    | _ -> None
  in
  match e with
  | Expr.BinOp (op, Expr.Proj (Expr.Var _, field), Expr.Const c) -> over_column field op c
  | Expr.BinOp (op, Expr.Const c, Expr.Proj (Expr.Var _, field)) ->
    over_column field (flip op) c
  | _ -> None

(* evaluate an arbitrary single-variable predicate against one row *)
let generic_row_pred tbl var (e : Expr.t) i =
  let env = Eval.bind var (record_of_row tbl i) Eval.empty_env in
  Eval.truthy (Eval.eval env e)

let vars_of e = Expr.free_vars e

(* joined intermediate result: per variable, the selected row id in its
   table (late materialization) *)
type inter = { ivars : (string * string) list (* var, table *); rows : int array list (* per var, same order *); n : int }

let key_accessor t (items : vitem list) (e : Expr.t) :
    ((string * int array) list -> int -> Value.t) option =
  match e with
  | Expr.Proj (Expr.Var v, field) -> (
    match List.find_opt (fun it -> String.equal it.var v) items with
    | None -> None
    | Some it -> (
      let tbl = table t it.tname in
      match Schema.index tbl.schema field with
      | None -> None
      | Some c ->
        let col = tbl.cols.(c) in
        Some (fun assoc i -> col_get col (List.assoc v assoc).(i))))
  | _ -> None

let vector_run t (monoid : Monoid.t) (head : Expr.t) items preds =
  (* 1. per-source selection vectors *)
  let single_var_preds var =
    List.filter (fun p -> vars_of p = [ var ]) preds
  in
  let cross_preds =
    List.filter (fun p -> match vars_of p with [ _ ] -> false | _ -> true) preds
  in
  let selections =
    List.map
      (fun it ->
        let tbl = table t it.tname in
        let preds = single_var_preds it.var in
        let tests =
          List.map
            (fun p ->
              match simple_pred tbl p with
              | Some f -> f
              | None -> generic_row_pred tbl it.var p)
            preds
        in
        let ids = ref [] in
        for i = tbl.nrows - 1 downto 0 do
          if List.for_all (fun f -> f i) tests then ids := i :: !ids
        done;
        (it, Array.of_list !ids))
      items
  in
  (* 2. left-deep joins in item order *)
  let value_env assoc i =
    (* full env for generic cross predicates / heads *)
    List.fold_left
      (fun env (v, rows) ->
        let it = List.find (fun it -> String.equal it.var v) items in
        Eval.bind v (record_of_row (table t it.tname) rows.(i)) env)
      Eval.empty_env assoc
  in
  let apply_cross_preds inter remaining =
    (* a predicate applies once all its generator variables are joined in;
       variables that are not generators are external and never block *)
    let bound = List.map fst inter.ivars in
    let satisfied, rest =
      List.partition
        (fun p ->
          List.for_all
            (fun v ->
              (not (List.exists (fun it -> String.equal it.var v) items))
              || List.mem v bound)
            (vars_of p))
        remaining
    in
    match satisfied with
    | [] -> (inter, rest)
    | ps ->
      let assoc = List.combine (List.map fst inter.ivars) inter.rows in
      let keep = ref [] in
      for i = inter.n - 1 downto 0 do
        let env = value_env assoc i in
        if List.for_all (fun p -> Eval.truthy (Eval.eval env p)) ps then keep := i :: !keep
      done;
      let keep = Array.of_list !keep in
      let rows = List.map (fun r -> Array.map (fun i -> r.(i)) keep) inter.rows in
      ({ inter with rows; n = Array.length keep }, rest)
  in
  let join_step inter (it, sel) remaining_preds =
    match inter with
    | None ->
      let inter = { ivars = [ (it.var, it.tname) ]; rows = [ sel ]; n = Array.length sel } in
      apply_cross_preds inter remaining_preds
    | Some inter ->
      let bound = List.map fst inter.ivars in
      (* equi conjuncts linking bound vars to the new one *)
      let usable, rest =
        List.partition
          (fun p ->
            match p with
            | Expr.BinOp (Expr.Eq, a, b) ->
              let fa = vars_of a and fb = vars_of b in
              (List.for_all (fun v -> List.mem v bound) fa && fb = [ it.var ])
              || (List.for_all (fun v -> List.mem v bound) fb && fa = [ it.var ])
            | _ -> false)
          remaining_preds
      in
      let key_pairs =
        List.map
          (fun p ->
            match p with
            | Expr.BinOp (Expr.Eq, a, b) ->
              if vars_of b = [ it.var ] then (a, b) else (b, a)
            | _ -> assert false)
          usable
      in
      let assoc = List.combine (List.map fst inter.ivars) inter.rows in
      if key_pairs = [] then (
        (* cartesian with the new selection *)
        let outs = List.map (fun _ -> ref []) inter.rows in
        let out_new = ref [] in
        for i = 0 to inter.n - 1 do
          Array.iter
            (fun rid ->
              List.iter2 (fun out col -> out := col.(i) :: !out) outs inter.rows;
              out_new := rid :: !out_new)
            sel
        done;
        let rows =
          List.map (fun out -> Array.of_list (List.rev !out)) outs
          @ [ Array.of_list (List.rev !out_new) ]
        in
        let inter =
          { ivars = inter.ivars @ [ (it.var, it.tname) ]; rows;
            n = inter.n * Array.length sel }
        in
        apply_cross_preds inter rest)
      else (
        (* hash join: build on the new (right) side *)
        let right_tbl = table t it.tname in
        let right_keys =
          List.map
            (fun (_, rk) ->
              match key_accessor t items rk with
              | Some f -> fun i -> f [ (it.var, sel) ] i
              | None ->
                fun i ->
                  let env = Eval.bind it.var (record_of_row right_tbl sel.(i)) Eval.empty_env in
                  Eval.eval env rk)
            key_pairs
        in
        let htbl : int list Value.Keys.t = Value.Keys.create 1024 in
        for i = 0 to Array.length sel - 1 do
          let key = List.map (fun f -> f i) right_keys in
          if not (Value.has_null key) then (
            let bucket = try Value.Keys.find htbl key with Not_found -> [] in
            Value.Keys.replace htbl key (sel.(i) :: bucket))
        done;
        let left_keys =
          List.map
            (fun (lk, _) ->
              match key_accessor t items lk with
              | Some f -> fun i -> f assoc i
              | None -> fun i -> Eval.eval (value_env assoc i) lk)
            key_pairs
        in
        let out_left = List.map (fun _ -> ref []) inter.rows in
        let out_right = ref [] in
        for i = 0 to inter.n - 1 do
          let key = List.map (fun f -> f i) left_keys in
          if not (Value.has_null key) then
            match Value.Keys.find_opt htbl key with
            | None -> ()
            | Some bucket ->
              List.iter
                (fun rid ->
                  List.iteri
                    (fun k rref -> rref := (List.nth inter.rows k).(i) :: !rref)
                    out_left;
                  out_right := rid :: !out_right)
                (List.rev bucket)
        done;
        let rows =
          List.map (fun r -> Array.of_list (List.rev !r)) out_left
          @ [ Array.of_list (List.rev !out_right) ]
        in
        let n = Array.length (List.hd (List.rev rows)) in
        let inter = { ivars = inter.ivars @ [ (it.var, it.tname) ]; rows; n } in
        apply_cross_preds inter rest)
  in
  let inter, leftover =
    List.fold_left
      (fun (inter, preds) (it, sel) ->
        let inter', preds' = join_step inter (it, sel) preds in
        (Some inter', preds'))
      (None, cross_preds) selections
  in
  let inter =
    match inter with
    | Some i -> i
    | None -> { ivars = []; rows = []; n = 1 }
  in
  let inter, leftover = apply_cross_preds inter leftover in
  assert (leftover = []);
  (* 3. aggregate / project *)
  let assoc = List.combine (List.map fst inter.ivars) inter.rows in
  let head_fn =
    match key_accessor t items head with
    | Some f -> fun i -> f assoc i
    | None -> (
      match head with
      | Expr.Const v -> fun _ -> v
      | Expr.Record fields
        when List.for_all
               (fun (_, e) ->
                 match e with
                 | Expr.Proj (Expr.Var _, _) | Expr.Const _ -> true
                 | _ -> false)
               fields ->
        let compiled =
          List.map
            (fun (n, e) ->
              match e with
              | Expr.Const v -> (n, fun _ -> v)
              | e -> (
                match key_accessor t items e with
                | Some f -> (n, fun i -> f assoc i)
                | None -> raise Not_vectorizable))
            fields
        in
        fun i -> Value.Record (List.map (fun (n, f) -> (n, f i)) compiled)
      | e -> fun i -> Eval.eval (value_env assoc i) e)
  in
  let acc = ref (Monoid.zero monoid) in
  for i = 0 to inter.n - 1 do
    acc := Monoid.merge monoid !acc (Monoid.unit monoid (head_fn i))
  done;
  Monoid.finalize monoid !acc

let try_vector t (plan : Plan.t) =
  match plan with
  | Plan.Reduce { monoid; head; child } ->
    let items, preds = decompose child in
    (* every source must be a table of this store *)
    List.iter
      (fun it -> if not (Hashtbl.mem t.tables it.tname) then raise Not_vectorizable)
      items;
    Some (monoid, head, items, preds)
  | _ -> None

let vectorized t plan =
  match try_vector t plan with
  | Some _ -> true
  | None | exception Not_vectorizable -> false

let run t plan =
  match try_vector t plan with
  | Some (monoid, head, items, preds) -> (
    try vector_run t monoid head items preds
    with Not_vectorizable -> Vida_engine.Interp.resolved ~resolve:(resolve_generic t) plan)
  | None | exception Not_vectorizable ->
    Vida_engine.Interp.resolved ~resolve:(resolve_generic t) plan
