(* Tests for the nested relational algebra: translation shapes, plan
   validation, and differential testing of the naive executor against the
   calculus interpreter. *)

open Vida_data
open Vida_calculus
open Vida_algebra

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_value msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

let employees =
  Value.List
    [ Value.Record [ ("id", Value.Int 1); ("name", Value.String "ada"); ("deptNo", Value.Int 10); ("salary", Value.Int 100) ];
      Value.Record [ ("id", Value.Int 2); ("name", Value.String "bob"); ("deptNo", Value.Int 20); ("salary", Value.Int 80) ];
      Value.Record [ ("id", Value.Int 3); ("name", Value.String "cyd"); ("deptNo", Value.Int 10); ("salary", Value.Int 120) ];
      Value.Record [ ("id", Value.Int 4); ("name", Value.String "dan"); ("deptNo", Value.Int 30); ("salary", Value.Null) ]
    ]

let departments =
  Value.List
    [ Value.Record [ ("id", Value.Int 10); ("deptName", Value.String "HR") ];
      Value.Record [ ("id", Value.Int 20); ("deptName", Value.String "IT") ];
      Value.Record [ ("id", Value.Int 30); ("deptName", Value.String "PR") ]
    ]

let orders =
  Value.List
    [ Value.Record
        [ ("id", Value.Int 1);
          ("items", Value.List [ Value.Record [ ("sku", Value.String "a"); ("qty", Value.Int 2) ];
                                 Value.Record [ ("sku", Value.String "b"); ("qty", Value.Int 1) ] ])
        ];
      Value.Record [ ("id", Value.Int 2); ("items", Value.List []) ];
      Value.Record [ ("id", Value.Int 3); ("items", Value.Null) ]
    ]

let sources =
  [ ("Employees", employees); ("Departments", departments); ("Orders", orders) ]

let eval_env = Eval.env_of_list sources

(* a query's externals: the registered sources *)
let externals = List.map fst sources

let plan_of s = Translate.plan_of_comp (Rewrite.normalize (Parser.parse_exn s))

(* --- translation shape --- *)

let test_translate_scan_filter_reduce () =
  match plan_of "for { e <- Employees, e.salary > 90 } yield sum 1" with
  | Plan.Reduce { monoid = Monoid.Prim Monoid.Sum;
                  child = Plan.Select { child = Plan.Source { var = "e"; _ }; _ }; _ } -> ()
  | p -> Alcotest.failf "unexpected plan:\n%s" (Plan.to_string p)

let test_translate_product () =
  match plan_of "for { e <- Employees, d <- Departments, e.deptNo = d.id } yield sum 1" with
  | Plan.Reduce { child = Plan.Select { child = Plan.Product _; _ }; _ } -> ()
  | p -> Alcotest.failf "expected select over product:\n%s" (Plan.to_string p)

let test_translate_unnest () =
  (* dependent generator becomes Unnest *)
  match plan_of "for { o <- Orders, i <- o.items } yield sum i.qty" with
  | Plan.Reduce { child = Plan.Unnest { var = "i"; outer = false; child = Plan.Source { var = "o"; _ }; _ }; _ } -> ()
  | p -> Alcotest.failf "expected unnest:\n%s" (Plan.to_string p)

let test_translate_bind_becomes_map () =
  (* the bound expression is large and used twice, so the normalizer keeps
     the binding instead of inlining it *)
  match plan_of "for { e <- Employees, x := e.salary * 2 + e.id * 47 + e.deptNo * 3, x > 100 } yield sum x" with
  | Plan.Reduce { child = Plan.Select { child = Plan.Map { var = "x"; _ }; _ }; _ } -> ()
  | p -> Alcotest.failf "expected map under select:\n%s" (Plan.to_string p)

let test_translate_scalar () =
  match Translate.plan_of_comp (Expr.int 42) with
  | Plan.Reduce { child = Plan.Unit; _ } -> ()
  | p -> Alcotest.failf "expected reduce over unit:\n%s" (Plan.to_string p)

let test_query_to_plan_error () =
  match Translate.query_to_plan "for { x <- } yield sum 1" with
  | Error _ -> ()
  | Ok p -> Alcotest.failf "expected parse error, got\n%s" (Plan.to_string p)

(* --- validation --- *)

let test_validate_ok () =
  let p = plan_of "for { e <- Employees, d <- Departments, e.deptNo = d.id } yield sum 1" in
  match Plan.validate ~externals p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "expected valid plan: %s" msg

let test_validate_rejects_unbound () =
  let p =
    Plan.Select
      { pred = Expr.BinOp (Expr.Gt, Expr.Var "ghost", Expr.int 0);
        child = Plan.Source { var = "e"; expr = Expr.Var "Employees" }
      }
  in
  (* ghost is supplied by the caller as an external: fine *)
  check_bool "external ok" true (Plan.validate ~externals:("ghost" :: externals) p = Ok ());
  let bad =
    Plan.Product
      { left = Plan.Source { var = "e"; expr = Expr.Var "Employees" };
        right = Plan.Source { var = "e"; expr = Expr.Var "Departments" }
      }
  in
  check_bool "duplicate binder rejected" true
    (Result.is_error (Plan.validate ~externals bad))

(* A variable neither bound nor among the caller's externals is an error,
   even though it is free in the whole plan. *)
let test_validate_unbound_external () =
  let p =
    Plan.Select
      { pred =
          Expr.BinOp (Expr.Gt, Expr.Proj (Expr.Var "zz", "a"), Expr.int 1);
        child = Plan.Source { var = "p"; expr = Expr.Var "Patients" }
      }
  in
  match Plan.validate ~externals:[ "Patients" ] p with
  | Error msg ->
    check_bool "names the variable" true (Astring.String.is_infix ~affix:"zz" msg)
  | Ok () -> Alcotest.fail "zz is bound nowhere and is no external"

let test_bound_free_vars () =
  let p = plan_of "for { e <- Employees, d <- Departments, e.deptNo = d.id } yield sum 1" in
  (match p with
  | Plan.Reduce { child; _ } ->
    Alcotest.(check (list string)) "bound" [ "e"; "d" ] (Plan.bound_vars child)
  | _ -> Alcotest.fail "expected reduce");
  Alcotest.(check (list string)) "free" [ "Departments"; "Employees" ] (Plan.free_vars p)

(* --- differential: naive executor vs calculus interpreter --- *)

let differential_corpus =
  [ "for { e <- Employees } yield sum e.salary";
    "for { e <- Employees, e.salary > 90 } yield count e";
    "for { e <- Employees, d <- Departments, e.deptNo = d.id, d.deptName = \"HR\" } yield sum 1";
    "for { e <- Employees, d <- Departments, e.deptNo = d.id } yield bag (n := e.name, dn := d.deptName)";
    "for { o <- Orders, i <- o.items } yield sum i.qty";
    "for { o <- Orders, i <- o.items, i.qty > 1 } yield list i.sku";
    "for { e <- Employees } yield max e.salary";
    "for { e <- Employees } yield set e.deptNo";
    "for { e <- Employees, x := e.salary * 2 + e.id * 47 + e.deptNo * 3, x > 200 } yield sum x";
    "for { x <- [1, 2, 3], y <- [10, 20] } yield sum x * y";
    "for { e <- Employees } yield avg e.salary";
    "for { e <- Employees } yield bag (n := e.name, rich := e.salary > 90)";
    "for { e <- Employees, d <- Departments, e.deptNo = d.id } yield list (n := e.name, c := for { e2 <- Employees, e2.deptNo = d.id } yield sum 1)"
  ]

let test_differential () =
  List.iter
    (fun s ->
      let e = Parser.parse_exn s in
      let expected = Eval.eval eval_env e in
      let p = Translate.plan_of_comp (Rewrite.normalize e) in
      (match Plan.validate ~externals p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "invalid plan for %S: %s" s msg);
      let actual = Naive_exec.run ~sources p in
      if not (Value.equal expected actual) then
        Alcotest.failf "plan disagrees with interpreter for %S:\n  expected %s\n  got %s\n  plan:\n%s"
          s (Value.to_string expected) (Value.to_string actual) (Plan.to_string p))
    differential_corpus

(* --- operator semantics --- *)

let scan name var = Plan.Source { var; expr = Expr.Var name }

let test_outer_unnest () =
  let p =
    Plan.Unnest
      { var = "i"; path = Expr.Proj (Expr.Var "o", "items"); outer = true;
        child = scan "Orders" "o"
      }
  in
  let envs = Naive_exec.stream ~sources p in
  (* order 1 has 2 items; orders 2 (empty) and 3 (null) each emit one
     null-extended environment *)
  check_int "outer unnest cardinality" 4 (List.length envs);
  let nulls = List.filter (fun env -> List.assoc "i" env = Value.Null) envs in
  check_int "null-padded" 2 (List.length nulls)

let test_inner_unnest_drops () =
  let p =
    Plan.Unnest
      { var = "i"; path = Expr.Proj (Expr.Var "o", "items"); outer = false;
        child = scan "Orders" "o"
      }
  in
  check_int "inner unnest cardinality" 2 (List.length (Naive_exec.stream ~sources p))

let test_join_operator () =
  let p =
    Plan.Join
      { pred =
          Expr.BinOp
            (Expr.Eq, Expr.Proj (Expr.Var "e", "deptNo"), Expr.Proj (Expr.Var "d", "id"));
        left = scan "Employees" "e";
        right = scan "Departments" "d"
      }
  in
  check_int "join cardinality" 4 (List.length (Naive_exec.stream ~sources p))

let test_nest_operator () =
  (* group employees by department, sum salaries *)
  let p =
    Plan.Nest
      { monoid = Monoid.Prim Monoid.Sum;
        var = "total";
        head = Expr.Proj (Expr.Var "e", "salary");
        keys = [ ("dept", Expr.Proj (Expr.Var "e", "deptNo")) ];
        child = scan "Employees" "e"
      }
  in
  let envs = Naive_exec.stream ~sources p in
  check_int "three groups" 3 (List.length envs);
  let find dept =
    List.find (fun env -> List.assoc "dept" env = Value.Int dept) envs
  in
  check_value "dept 10 total" (Value.Int 220) (List.assoc "total" (find 10));
  check_value "dept 20 total" (Value.Int 80) (List.assoc "total" (find 20));
  (* dan's NULL salary is skipped: sum of nothing is the zero *)
  check_value "dept 30 total" (Value.Int 0) (List.assoc "total" (find 30))

let test_nest_bag_groups () =
  let p =
    Plan.Nest
      { monoid = Monoid.Coll Ty.Bag;
        var = "members";
        head = Expr.Proj (Expr.Var "e", "name");
        keys = [ ("dept", Expr.Proj (Expr.Var "e", "deptNo")) ];
        child = scan "Employees" "e"
      }
  in
  let envs = Naive_exec.stream ~sources p in
  let dept10 = List.find (fun env -> List.assoc "dept" env = Value.Int 10) envs in
  check_value "dept 10 members"
    (Value.Bag [ Value.String "ada"; Value.String "cyd" ])
    (List.assoc "members" dept10)

let test_run_non_reduce_top () =
  let v = Naive_exec.run ~sources (scan "Departments" "d") in
  match v with
  | Value.Bag [ _; _; _ ] -> ()
  | v -> Alcotest.failf "expected bag of 3 envs, got %s" (Value.to_string v)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_pp_plan () =
  let p = plan_of "for { e <- Employees, e.salary > 90 } yield sum 1" in
  let s = Plan.to_string p in
  check_bool "mentions Reduce" true (contains s "Reduce[sum]");
  check_bool "mentions Select" true (contains s "Select")

let test_plan_equal () =
  let p1 = plan_of "for { e <- Employees } yield sum e.salary" in
  let p2 = plan_of "for { e <- Employees } yield sum e.salary" in
  let p3 = plan_of "for { e <- Employees } yield sum e.id" in
  check_bool "equal" true (Plan.equal p1 p2);
  check_bool "not equal" false (Plan.equal p1 p3)

let () =
  Alcotest.run "vida_algebra"
    [ ( "translate",
        [ Alcotest.test_case "scan/filter/reduce" `Quick test_translate_scan_filter_reduce;
          Alcotest.test_case "product" `Quick test_translate_product;
          Alcotest.test_case "unnest" `Quick test_translate_unnest;
          Alcotest.test_case "bind -> map" `Quick test_translate_bind_becomes_map;
          Alcotest.test_case "scalar" `Quick test_translate_scalar;
          Alcotest.test_case "parse error" `Quick test_query_to_plan_error
        ] );
      ( "plan",
        [ Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate unbound/dup" `Quick test_validate_rejects_unbound;
          Alcotest.test_case "validate unbound external" `Quick
            test_validate_unbound_external;
          Alcotest.test_case "bound/free vars" `Quick test_bound_free_vars;
          Alcotest.test_case "equal" `Quick test_plan_equal;
          Alcotest.test_case "pretty printer" `Quick test_pp_plan
        ] );
      ( "exec",
        [ Alcotest.test_case "differential vs interpreter" `Quick test_differential;
          Alcotest.test_case "outer unnest" `Quick test_outer_unnest;
          Alcotest.test_case "inner unnest" `Quick test_inner_unnest_drops;
          Alcotest.test_case "join" `Quick test_join_operator;
          Alcotest.test_case "nest sum" `Quick test_nest_operator;
          Alcotest.test_case "nest bag" `Quick test_nest_bag_groups;
          Alcotest.test_case "non-reduce top" `Quick test_run_non_reduce_top
        ] )
    ]
