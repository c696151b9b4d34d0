(* Tests for the optimizer: rewrite rules, cost model, greedy ordering, and
   the invariant that optimization never changes results. *)

open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
open Vida_engine
open Vida_optimizer

let check_bool = Alcotest.(check bool)

let tmp_file contents =
  let path = Filename.temp_file "vida_test" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let big_csv n =
  let buf = Buffer.create (n * 16) in
  Buffer.add_string buf "id,v\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "%d,%d\n" i (i mod 17))
  done;
  Buffer.contents buf

let make_ctx () =
  let registry = Registry.create () in
  let _ = Registry.register_csv registry ~name:"Big" ~path:(tmp_file (big_csv 500)) () in
  let _ = Registry.register_csv registry ~name:"Small" ~path:(tmp_file (big_csv 10)) () in
  let _ =
    Registry.register_inline registry ~name:"Tiny"
      (Value.List (List.init 3 (fun i -> Value.Record [ ("id", Value.Int i) ])))
  in
  Plugins.create_ctx registry

let plan_of s = Translate.plan_of_comp (Rewrite.normalize (Parser.parse_exn s))

let reference_sources ctx =
  List.map
    (fun s -> (s.Source.name, Plugins.materialize_source ctx s))
    (Registry.sources ctx.Plugins.registry)

(* --- rules --- *)

let rec count_nodes pred p =
  (if pred p then 1 else 0)
  + List.fold_left (fun acc c -> acc + count_nodes pred c) 0 (Plan.children p)

let is_join = function Plan.Join _ -> true | _ -> false
let is_product = function Plan.Product _ -> true | _ -> false

let test_rules_join_recognition () =
  let p = plan_of "for { a <- Big, b <- Small, a.id = b.id } yield sum 1" in
  let p' = Rules.apply p in
  check_bool "join introduced" true (count_nodes is_join p' = 1);
  check_bool "product gone" true (count_nodes is_product p' = 0)

let test_rules_pushdown () =
  let p = plan_of "for { a <- Big, b <- Small, a.id = b.id, a.v > 5, b.v = 2 } yield sum 1" in
  let p' = Rules.apply p in
  (* single-side predicates must sit below the join *)
  let rec join_sides p =
    match p with
    | Plan.Join { left; right; _ } -> Some (left, right)
    | _ ->
      List.fold_left
        (fun acc c -> match acc with Some _ -> acc | None -> join_sides c)
        None (Plan.children p)
  in
  match join_sides p' with
  | None -> Alcotest.fail "no join found"
  | Some (l, r) ->
    let has_select p = count_nodes (function Plan.Select _ -> true | _ -> false) p > 0 in
    check_bool "select below left" true (has_select l);
    check_bool "select below right" true (has_select r)

let test_rules_true_select_elimination () =
  let inner = Plan.Source { var = "x"; expr = Expr.Var "Tiny" } in
  let p = Plan.Select { pred = Expr.bool true; child = inner } in
  check_bool "true select removed" true (Plan.equal (Rules.apply p) inner)

let test_conjuncts_roundtrip () =
  let e = Parser.parse_exn "a = 1 and b = 2 and c = 3" in
  let cs = Rules.conjuncts e in
  check_bool "three conjuncts" true (List.length cs = 3);
  check_bool "conjoin evaluates same" true
    (let env = Eval.env_of_list [ ("a", Value.Int 1); ("b", Value.Int 2); ("c", Value.Int 3) ] in
     Eval.eval env (Rules.conjoin cs) = Value.Bool true)

(* --- cost model --- *)

let test_cost_cache_awareness () =
  let ctx = make_ctx () in
  let cold = Cost.attribute_cost ctx ~source:"Big" ~field:"v" in
  check_bool "cold csv cost" true (cold = Cost.csv_cold);
  (* run a query touching v: column becomes cached *)
  ignore (Compile.query ctx (plan_of "for { a <- Big } yield sum a.v") ());
  let hot = Cost.attribute_cost ctx ~source:"Big" ~field:"v" in
  check_bool "hot is cached cost" true (hot = Cost.cached);
  check_bool "cheaper than cold" true (hot < cold)

let test_cost_posmap_awareness () =
  let ctx = make_ctx () in
  (* populate positional map for the column without caching decoded values *)
  let source = Option.get (Registry.find ctx.Plugins.registry "Big") in
  let pm = Structures.posmap ctx.Plugins.structures source in
  Vida_raw.Positional_map.populate pm [ 0 ];
  let mapped = Cost.attribute_cost ctx ~source:"Big" ~field:"id" in
  check_bool "mapped cost" true (mapped = Cost.csv_mapped);
  check_bool "unmapped col still cold" true
    (Cost.attribute_cost ctx ~source:"Big" ~field:"v" = Cost.csv_cold)

let test_cost_cardinalities () =
  let ctx = make_ctx () in
  check_bool "big count" true (Cost.source_cardinality ctx "Big" = 500.);
  check_bool "inline count" true (Cost.source_cardinality ctx "Tiny" = 3.);
  check_bool "unknown default" true (Cost.source_cardinality ctx "Nope" = 1000.)

let test_cost_estimate_monotone () =
  let ctx = make_ctx () in
  let scan = plan_of "for { a <- Big } yield count a" in
  let filtered = plan_of "for { a <- Big, a.v = 3 } yield count a" in
  let e1 = Cost.estimate ctx scan and e2 = Cost.estimate ctx filtered in
  check_bool "filter reduces cardinality estimate" true
    ((Cost.estimate ctx scan).Cost.cardinality >= e1.Cost.cardinality *. 0.99);
  check_bool "filtered costs at least scan" true (e2.Cost.cost >= e1.Cost.cost)

(* --- optimizer end-to-end --- *)

let optimizer_corpus =
  [ "for { a <- Big, b <- Small, a.id = b.id } yield sum a.v";
    "for { a <- Big, b <- Small, a.id = b.id, a.v > 5, b.v = 2 } yield count a";
    "for { b <- Small, a <- Big, a.id = b.id } yield sum b.v";
    "for { a <- Big, t <- Tiny, a.id = t.id } yield bag (i := a.id)";
    "for { a <- Big, a.v > 3, x := a.v * 2 + a.id * 13 + 1, x > 10 } yield sum x";
    "for { a <- Small, b <- Small2, a.id = b.id } yield count a"
  ]

let test_optimize_preserves_semantics () =
  let ctx = make_ctx () in
  let registry = ctx.Plugins.registry in
  let _ = Registry.register_csv registry ~name:"Small2" ~path:(tmp_file (big_csv 10)) () in
  let sources = reference_sources ctx in
  List.iter
    (fun q ->
      let plan = plan_of q in
      let optimized = Optimizer.optimize ctx plan in
      (match Plan.validate ~externals:(Registry.names registry) optimized with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "optimized plan invalid for %S: %s" q msg);
      let expected = Naive_exec.run ~sources plan in
      let actual = Naive_exec.run ~sources optimized in
      if not (Value.equal expected actual) then
        Alcotest.failf "optimizer changed semantics of %S:\nexpected %s\ngot %s\nplan:\n%s" q
          (Value.to_string expected) (Value.to_string actual) (Plan.to_string optimized);
      (* and the compiled engine agrees on the optimized plan *)
      let compiled = Compile.query ctx optimized () in
      if not (Value.equal expected compiled) then
        Alcotest.failf "compiled optimized plan disagrees for %S" q)
    optimizer_corpus

let test_optimize_improves_cost () =
  let ctx = make_ctx () in
  (* bad written order: big source first, selective filter late *)
  let q = "for { a <- Big, t <- Tiny, a.id = t.id, a.v = 3 } yield count a" in
  let _, report = Optimizer.optimize_with_report ctx (plan_of q) in
  check_bool
    (Printf.sprintf "cost %f <= %f" report.Optimizer.after.Cost.cost
       report.Optimizer.before.Cost.cost)
    true
    (report.Optimizer.after.Cost.cost <= report.Optimizer.before.Cost.cost)

let test_optimize_build_side () =
  let ctx = make_ctx () in
  let q = "for { a <- Big, t <- Tiny, a.id = t.id } yield count a" in
  let optimized = Optimizer.optimize ctx (plan_of q) in
  (* the build (right) side should be the small input *)
  let rec find_join p =
    match p with
    | Plan.Join { left; right; _ } -> Some (left, right)
    | _ ->
      List.fold_left
        (fun acc c -> match acc with Some _ -> acc | None -> find_join c)
        None (Plan.children p)
  in
  match find_join optimized with
  | None -> Alcotest.fail "no join in optimized plan"
  | Some (left, right) ->
    let l = Cost.estimate ctx left and r = Cost.estimate ctx right in
    check_bool
      (Printf.sprintf "build side smaller (%f >= %f)" l.Cost.cardinality r.Cost.cardinality)
      true
      (l.Cost.cardinality >= r.Cost.cardinality)

let test_optimize_unnest_dependency_respected () =
  let ctx = make_ctx () in
  let registry = ctx.Plugins.registry in
  let _ =
    Registry.register_inline registry ~name:"Orders"
      (Value.List
         [ Value.Record
             [ ("id", Value.Int 1);
               ("items", Value.List [ Value.Record [ ("q", Value.Int 5) ] ])
             ]
         ])
  in
  let q = "for { o <- Orders, i <- o.items, i.q > 1 } yield sum i.q" in
  let plan = plan_of q in
  let optimized = Optimizer.optimize ctx plan in
  (match Plan.validate ~externals:(Registry.names registry) optimized with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid: %s" msg);
  let sources = reference_sources ctx in
  check_bool "same result" true
    (Value.equal (Naive_exec.run ~sources plan) (Naive_exec.run ~sources optimized))

(* --- group-by recognition (Nest rewrite) --- *)

let rec has_nest p =
  (match p with Plan.Nest _ -> true | _ -> false)
  || List.exists has_nest (Plan.children p)

let groupby_sql =
  "SELECT a.v AS key, SUM(a.id) AS total, COUNT( * ) AS n FROM Big a GROUP BY a.v"

let test_groupby_rewrites_to_nest () =
  let ctx = make_ctx () in
  let expr = Vida_sql.Sql.translate_exn groupby_sql in
  let plan = Translate.plan_of_comp (Rewrite.normalize expr) in
  check_bool "correlated form has no nest" false (has_nest plan);
  let optimized = Optimizer.optimize ctx plan in
  check_bool "optimized uses Nest" true (has_nest optimized)

let test_groupby_semantics_preserved () =
  let ctx = make_ctx () in
  let sources = reference_sources ctx in
  let expr = Vida_sql.Sql.translate_exn groupby_sql in
  let plan = Translate.plan_of_comp (Rewrite.normalize expr) in
  let optimized = Optimizer.optimize ctx plan in
  let expected = Naive_exec.run ~sources plan in
  let via_nest = Naive_exec.run ~sources optimized in
  let canon v = Value.set_of_list (Value.elements v) in
  check_bool "same groups" true (Value.equal (canon expected) (canon via_nest));
  (* and both engines execute the Nest plan *)
  let compiled = Vida_engine.Compile.query ctx optimized () in
  check_bool "compiled agrees" true (Value.equal (canon expected) (canon compiled));
  let interpreted = Vida_engine.Interp.query ctx optimized () in
  check_bool "interpreted agrees" true (Value.equal (canon expected) (canon interpreted))

let test_groupby_null_keys () =
  let ctx = make_ctx () in
  let registry = ctx.Plugins.registry in
  let path =
    let p = Filename.temp_file "vida_test" ".csv" in
    let oc = open_out_bin p in
    output_string oc "id,grp\n1,a\n2,\n3,a\n4,\n";
    close_out oc;
    p
  in
  let _ = Registry.register_csv registry ~name:"WithNulls" ~path () in
  let expr =
    Vida_sql.Sql.translate_exn
      "SELECT w.grp AS g, SUM(w.id) AS s FROM WithNulls w GROUP BY w.grp"
  in
  let plan = Translate.plan_of_comp (Rewrite.normalize expr) in
  let optimized = Optimizer.optimize ctx plan in
  check_bool "nest fired" true (has_nest optimized);
  let sources = reference_sources ctx in
  let canon v = Value.set_of_list (Value.elements v) in
  check_bool "null keys preserved" true
    (Value.equal
       (canon (Naive_exec.run ~sources plan))
       (canon (Naive_exec.run ~sources optimized)))

let test_groupby_not_matching_left_alone () =
  let ctx = make_ctx () in
  (* an ordinary aggregate must not be touched by the rule *)
  let plan = plan_of "for { a <- Big, a.v > 3 } yield sum a.id" in
  check_bool "no nest" false (has_nest (Optimizer.optimize ctx plan))

let () =
  Alcotest.run "vida_optimizer"
    [ ( "rules",
        [ Alcotest.test_case "join recognition" `Quick test_rules_join_recognition;
          Alcotest.test_case "selection pushdown" `Quick test_rules_pushdown;
          Alcotest.test_case "true select" `Quick test_rules_true_select_elimination;
          Alcotest.test_case "conjuncts" `Quick test_conjuncts_roundtrip
        ] );
      ( "cost",
        [ Alcotest.test_case "cache awareness" `Quick test_cost_cache_awareness;
          Alcotest.test_case "posmap awareness" `Quick test_cost_posmap_awareness;
          Alcotest.test_case "cardinalities" `Quick test_cost_cardinalities;
          Alcotest.test_case "estimates" `Quick test_cost_estimate_monotone
        ] );
      ( "optimizer",
        [ Alcotest.test_case "preserves semantics" `Quick test_optimize_preserves_semantics;
          Alcotest.test_case "improves cost" `Quick test_optimize_improves_cost;
          Alcotest.test_case "build side" `Quick test_optimize_build_side;
          Alcotest.test_case "unnest dependency" `Quick test_optimize_unnest_dependency_respected
        ] );
      ( "groupby",
        [ Alcotest.test_case "rewrites to nest" `Quick test_groupby_rewrites_to_nest;
          Alcotest.test_case "semantics preserved" `Quick test_groupby_semantics_preserved;
          Alcotest.test_case "null keys" `Quick test_groupby_null_keys;
          Alcotest.test_case "non-matching untouched" `Quick test_groupby_not_matching_left_alone
        ] )
    ]
