(* Randomized differential testing: generate well-formed comprehension
   queries over fixed in-memory sources and require every execution path to
   agree —

     calculus interpreter (the semantics)
       = naive plan executor over translate(normalize(q))
       = closure-compiled JIT engine
       = generic interpreted engine
       = any of the above over the optimizer's rewritten plan

   Collection results are compared as multisets (the optimizer may reorder
   joins, which legitimately permutes bags). *)

open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_engine

(* --- fixed sources --- *)

let t1 =
  Value.Bag
    (List.init 19 (fun i ->
         Value.Record
           [ ("a", Value.Int (i mod 7));
             ("b", if i mod 5 = 0 then Value.Null else Value.Int (i * 3 mod 11));
             ("s", Value.String (String.make 1 (Char.chr (Char.code 'p' + (i mod 4)))))
           ]))

let t2 =
  Value.Bag
    (List.init 13 (fun i ->
         Value.Record
           [ ("a", Value.Int (i mod 5)); ("c", Value.Float (float_of_int i /. 2.)) ]))

let t3 =
  Value.Bag
    (List.init 7 (fun i ->
         Value.Record
           [ ("a", Value.Int (i mod 4));
             ("xs", Value.List (List.init (i mod 4) (fun j -> Value.Int (i + j))))
           ]))

let sources = [ ("T1", t1); ("T2", t2); ("T3", t3) ]

(* --- query generator --- *)

(* a generated binding: variable name and the int-typed/float-typed fields
   it offers *)
type binding = { var : string; int_fields : string list; num_fields : string list }

let table_binding var = function
  | "T1" -> { var; int_fields = [ "a"; "b" ]; num_fields = [ "a"; "b" ] }
  | "T2" -> { var; int_fields = [ "a" ]; num_fields = [ "a"; "c" ] }
  | "T3" -> { var; int_fields = [ "a" ]; num_fields = [ "a" ] }
  | _ -> assert false

let gen_query : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let field b fields st =
    Expr.Proj (Expr.Var b.var, List.nth fields (int_bound (List.length fields - 1) st))
  in
  (* one to three generators over base tables, plus possibly an unnest *)
  let* ngens = int_range 1 3 in
  let* tables =
    flatten_l (List.init ngens (fun _ -> oneofl [ "T1"; "T2"; "T3" ]))
  in
  let bindings = List.mapi (fun i t -> (t, table_binding (Printf.sprintf "v%d" i) t)) tables in
  let gens =
    List.map (fun (t, b) -> Expr.Gen (b.var, Expr.Var t)) bindings
  in
  let bindings = List.map snd bindings in
  (* optional unnest over a T3 variable's xs *)
  let t3_vars = List.filteri (fun i _ -> List.nth tables i = "T3") bindings in
  let* unnest =
    match t3_vars with
    | [] -> return None
    | b :: _ ->
      let* yes = bool in
      return (if yes then Some b else None)
  in
  let gens, bindings =
    match unnest with
    | None -> (gens, bindings)
    | Some b ->
      let uv = "u" ^ b.var in
      ( gens @ [ Expr.Gen (uv, Expr.Proj (Expr.Var b.var, "xs")) ],
        bindings @ [ { var = uv; int_fields = []; num_fields = [] } ] )
  in
  (* the unnested variable is itself an int *)
  let int_expr_of b st =
    if b.int_fields = [] then Expr.Var b.var else field b b.int_fields st
  in
  let* npreds = int_range 0 3 in
  let pick_binding st = List.nth bindings (int_bound (List.length bindings - 1) st) in
  let* preds =
    flatten_l
      (List.init npreds (fun _ st ->
           let b = pick_binding st in
           let lhs = int_expr_of b st in
           let op =
             List.nth [ Expr.Eq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Neq ]
               (int_bound 5 st)
           in
           let rhs =
             if int_bound 2 st = 0 then Expr.int (int_bound 10 st)
             else int_expr_of (pick_binding st) st
           in
           Expr.Pred (Expr.BinOp (op, lhs, rhs))))
  in
  (* heads: aggregate over a numeric expression, or a record collection *)
  let* head_kind = int_range 0 5 in
  let* monoid, head =
    match head_kind with
    | 0 -> return (Monoid.Prim Monoid.Count, Expr.int 1)
    | 1 ->
      let* e = (fun st -> int_expr_of (pick_binding st) st) in
      return (Monoid.Prim Monoid.Sum, e)
    | 2 ->
      let* e = (fun st -> int_expr_of (pick_binding st) st) in
      return (Monoid.Prim Monoid.Max, e)
    | 3 ->
      let* e = (fun st -> int_expr_of (pick_binding st) st) in
      return (Monoid.Prim Monoid.Avg, e)
    | 4 ->
      let* fields =
        flatten_l
          (List.mapi
             (fun i b -> fun st -> (Printf.sprintf "f%d" i, int_expr_of b st))
             bindings)
      in
      return (Monoid.Coll Ty.Bag, Expr.Record fields)
    | _ ->
      let* e = (fun st -> int_expr_of (pick_binding st) st) in
      return (Monoid.Coll Ty.Set, e)
  in
  return (Expr.Comp (monoid, head, gens @ preds))

let print_query e = Expr.to_string e
let arb_query = QCheck.make ~print:print_query gen_query

(* --- the property --- *)

let canon v =
  match v with
  | Value.Bag vs | Value.List vs -> Value.Bag (List.sort Value.compare vs)
  | v -> v

let make_ctx () =
  let registry = Vida_catalog.Registry.create () in
  List.iter (fun (n, v) -> ignore (Vida_catalog.Registry.register_inline registry ~name:n v)) sources;
  Plugins.create_ctx registry

let eval_env = Eval.env_of_list sources

let all_paths_agree e =
  let expected = canon (Eval.eval eval_env e) in
  let normalized = Rewrite.normalize e in
  let plan = Translate.plan_of_comp normalized in
  let ctx = make_ctx () in
  let optimized = Vida_optimizer.Optimizer.optimize ctx plan in
  let sequential = { ctx with Plugins.domains = 1 } in
  let paths =
    [ ("naive", fun () -> Naive_exec.run ~sources plan);
      ("naive-optimized", fun () -> Naive_exec.run ~sources optimized);
      ("compiled", fun () -> Compile.query sequential plan ());
      ("compiled-optimized", fun () -> Compile.query sequential optimized ());
      ("interpreted", fun () -> Interp.query ctx plan ())
    ]
  in
  List.for_all
    (fun (name, run) ->
      let actual = canon (run ()) in
      if Value.equal expected actual then true
      else
        QCheck.Test.fail_reportf "%s disagrees on %s:\n  expected %s\n  got %s" name
          (print_query e) (Value.to_string expected) (Value.to_string actual))
    paths

let prop_all_paths_agree =
  QCheck.Test.make ~name:"all execution paths agree" ~count:300 arb_query
    all_paths_agree

(* The same property for the JIT at a random domain budget: every plan
   (original or optimized) must match the calculus semantics, whether a
   kernel splits it into morsels or the closure engine answers it. *)
let arb_parallel_case =
  QCheck.make
    ~print:(fun (e, d) -> Printf.sprintf "domains=%d %s" d (print_query e))
    QCheck.Gen.(pair gen_query (int_range 2 5))

let parallel_agrees (e, domains) =
  let expected = canon (Eval.eval eval_env e) in
  let plan = Translate.plan_of_comp (Rewrite.normalize e) in
  let ctx = make_ctx () in
  let optimized = Vida_optimizer.Optimizer.optimize ctx plan in
  List.for_all
    (fun (name, p) ->
      let actual = Compile.query { ctx with Plugins.domains } p () in
      Value.equal expected (canon actual)
      || QCheck.Test.fail_reportf
           "parallel (%s, d=%d) disagrees on %s:\n  expected %s\n  got %s" name
           domains (print_query e) (Value.to_string expected)
           (Value.to_string (canon actual)))
    [ ("plan", plan); ("optimized", optimized) ]

let prop_parallel_agrees =
  QCheck.Test.make ~name:"parallel engine agrees where it applies" ~count:300
    arb_parallel_case parallel_agrees

let prop_normalization_preserves =
  QCheck.Test.make ~name:"normalization preserves semantics" ~count:300 arb_query
    (fun e ->
      Value.equal
        (canon (Eval.eval eval_env e))
        (canon (Eval.eval eval_env (Rewrite.normalize e))))

let prop_typechecks =
  QCheck.Test.make ~name:"generated queries typecheck" ~count:300 arb_query
    (fun e ->
      let tenv = List.map (fun (n, v) -> (n, Value.typeof v)) sources in
      match Typecheck.check tenv e with
      | Ok () -> true
      | Error err ->
        QCheck.Test.fail_reportf "%s: %s" (print_query e)
          (Format.asprintf "%a" Typecheck.pp_error err))

let prop_printer_roundtrip =
  (* the pretty-printer emits surface syntax the parser accepts, with equal
     semantics *)
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:300 arb_query (fun e ->
      match Parser.parse (Expr.to_string e) with
      | Error msg ->
        QCheck.Test.fail_reportf "printed form does not parse: %s\n%s" msg
          (Expr.to_string e)
      | Ok e' ->
        let v = canon (Eval.eval eval_env e) and v' = canon (Eval.eval eval_env e') in
        Value.equal v v'
        || QCheck.Test.fail_reportf "roundtrip changed semantics of %s" (Expr.to_string e))

(* --- randomized corruption: engines agree on damaged raw files --- *)

(* The differential property extended to hostile inputs: a seeded fault is
   injected into a raw file, and the JIT and Generic engines must reach the
   same outcome — the same recovered value under a lenient cleaning policy,
   or a structured error of the same kind. Divergence would mean one
   engine silently reads different bytes than the other; an untyped
   exception anywhere fails the property outright. *)

module FI = Vida_raw.Fault_inject

let csv_contents =
  let b = Buffer.create 256 in
  Buffer.add_string b "id,v\n";
  for i = 1 to 12 do
    Buffer.add_string b (Printf.sprintf "%d,%d\n" i (i * 3))
  done;
  Buffer.contents b

let jsonl_contents =
  let b = Buffer.create 256 in
  for i = 1 to 12 do
    Buffer.add_string b (Printf.sprintf "{\"id\": %d, \"v\": %d}\n" i (i * 3))
  done;
  Buffer.contents b

type corruption_case = { fault : FI.fault; seed : int; lenient : bool }

let show_fault = function
  | FI.Truncate_at n -> Printf.sprintf "Truncate_at %d" n
  | FI.Truncate_tail n -> Printf.sprintf "Truncate_tail %d" n
  | FI.Bit_flip { offset; bit } -> Printf.sprintf "Bit_flip {offset=%d; bit=%d}" offset bit
  | FI.Random_bit_flips n -> Printf.sprintf "Random_bit_flips %d" n
  | FI.Short_read { offset; dropped } ->
    Printf.sprintf "Short_read {offset=%d; dropped=%d}" offset dropped
  | FI.Garbage_append n -> Printf.sprintf "Garbage_append %d" n
  | FI.Overwrite { offset; bytes } ->
    Printf.sprintf "Overwrite {offset=%d; bytes=%S}" offset bytes

let gen_corruption len : corruption_case QCheck.Gen.t =
  let open QCheck.Gen in
  let* fault =
    oneof
      [ map (fun n -> FI.Truncate_at n) (int_bound len);
        map (fun n -> FI.Truncate_tail n) (int_bound len);
        map (fun n -> FI.Random_bit_flips (1 + n)) (int_bound 7);
        map2
          (fun offset d -> FI.Short_read { offset; dropped = 1 + d })
          (int_bound (len - 1)) (int_bound 9);
        map (fun n -> FI.Garbage_append (1 + n)) (int_bound 31)
      ]
  in
  let* seed = int_bound 10_000 in
  let* lenient = bool in
  return { fault; seed; lenient }

let arb_corruption len =
  QCheck.make
    ~print:(fun { fault; seed; lenient } ->
      Printf.sprintf "{fault=%s; seed=%d; lenient=%b}" (show_fault fault) seed lenient)
    (gen_corruption len)

let corrupt_tmp contents { fault; seed; _ } =
  let path = Filename.temp_file "vida_diff" ".raw" in
  let oc = open_out_bin path in
  output_string oc (FI.apply ~seed [ fault ] contents);
  close_out oc;
  path

let policy_of { lenient; _ } =
  Vida_cleaning.Policy.make
    ~on_error:
      (if lenient then Vida_cleaning.Policy.Quarantine
       else Vida_cleaning.Policy.Null_value)
    ()

let engine_outcome db engine q =
  match Vida.query ~engine db q with
  | Ok r -> Ok (Value.to_string (canon r.Vida.value))
  | Error (Vida.Data_error e) -> Error (Vida_error.kind_name e)
  | Error e -> Error (Vida.error_to_string e)

let show_outcome = function
  | Ok v -> "value " ^ v
  | Error e -> "error " ^ e

let corrupted_engines_agree contents register case =
  let path = corrupt_tmp contents case in
  let db = Vida.create () in
  register db path;
  Vida.set_cleaning db ~source:"C" (policy_of case);
  (* a third instance with a domain budget: the morsel-parallel path (or
     its fallback) must reach the same outcome on the same damaged bytes *)
  let dbp = Vida.create () in
  Vida.set_domains dbp 4;
  register dbp path;
  Vida.set_cleaning dbp ~source:"C" (policy_of case);
  let q = "for { r <- C } yield sum r.v" in
  let jit = engine_outcome db Vida.Jit q in
  let generic = engine_outcome db Vida.Generic q in
  let par = engine_outcome dbp Vida.Jit q in
  Sys.remove path;
  if jit = generic && jit = par then true
  else
    QCheck.Test.fail_reportf
      "engines diverge on corrupt input:\n  jit      %s\n  generic  %s\n  parallel %s"
      (show_outcome jit) (show_outcome generic) (show_outcome par)

let register_csv db path =
  Vida.csv db ~name:"C" ~path
    ~schema:(Vida_data.Schema.of_pairs [ ("id", Ty.Int); ("v", Ty.Int) ])
    ()

let register_json db path =
  Vida.json db ~name:"C" ~path ~element:(Ty.Record [ ("id", Ty.Int); ("v", Ty.Int) ]) ()

let prop_csv_corruption =
  QCheck.Test.make ~name:"engines agree on corrupted CSV" ~count:120
    (arb_corruption (String.length csv_contents))
    (corrupted_engines_agree csv_contents register_csv)

let prop_json_corruption =
  QCheck.Test.make ~name:"engines agree on corrupted JSON" ~count:120
    (arb_corruption (String.length jsonl_contents))
    (corrupted_engines_agree jsonl_contents register_json)

let () =
  (* the fixture sources are tiny; without this the parallel engine would
     decline everything and the parallel properties would be vacuous *)
  Vida_raw.Morsel.set_min_parallel_rows 1;
  Vida_raw.Morsel.set_min_parallel_bytes 0;
  Alcotest.run "vida_differential_random"
    [ ( "random",
        List.map QCheck_alcotest.to_alcotest
          [ prop_typechecks; prop_normalization_preserves; prop_all_paths_agree;
            prop_printer_roundtrip; prop_parallel_agrees ] );
      ( "corruption",
        List.map QCheck_alcotest.to_alcotest
          [ prop_csv_corruption; prop_json_corruption ] )
    ]
