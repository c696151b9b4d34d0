(* Tests for the monoid comprehension calculus: monoid laws, parser,
   evaluator, typechecker and normalizer. *)

open Vida_data
open Vida_calculus

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_value msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

(* --- test data: the paper's Employees/Departments example --- *)

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

let env =
  Eval.env_of_list [ ("Employees", employees); ("Departments", departments) ]

let eval_str s = Eval.eval env (Parser.parse_exn s)

(* --- Monoid laws (property tests) --- *)

let int_value_gen = QCheck.Gen.map (fun i -> Value.Int i) (QCheck.Gen.int_range (-50) 50)

let gen_for_monoid (m : Monoid.t) : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  match m with
  | Monoid.Prim (Monoid.All | Monoid.Some_) -> map (fun b -> Value.Bool b) bool
  | Monoid.Prim Monoid.Avg ->
    (* integer-valued floats keep addition exact, so the monoid laws hold on
       the nose rather than up to rounding *)
    map
      (fun (s, c) ->
        Value.Record [ ("sum", Value.Float (float_of_int s)); ("count", Value.Int c) ])
      (pair (int_range (-100) 100) (int_range 0 10))
  | Monoid.Prim Monoid.Median | Monoid.Coll Ty.List ->
    map (fun vs -> Value.List vs) (list_size (int_range 0 4) int_value_gen)
  | Monoid.Prim (Monoid.Top k) ->
    (* carrier invariant: at most k values, descending *)
    map
      (fun vs ->
        Value.List
          (List.filteri (fun i _ -> i < k)
             (List.sort (fun a b -> Value.compare b a) vs)))
      (list_size (int_range 0 6) int_value_gen)
  | Monoid.Prim (Monoid.Bottom k) ->
    map
      (fun vs ->
        Value.List (List.filteri (fun i _ -> i < k) (List.sort Value.compare vs)))
      (list_size (int_range 0 6) int_value_gen)
  | Monoid.Coll Ty.Bag -> map (fun vs -> Value.Bag vs) (list_size (int_range 0 4) int_value_gen)
  | Monoid.Coll Ty.Set -> map Value.set_of_list (list_size (int_range 0 4) int_value_gen)
  | Monoid.Coll Ty.Array ->
    map
      (fun vs -> Value.Array { dims = [ List.length vs ]; data = Array.of_list vs })
      (list_size (int_range 0 4) int_value_gen)
  | Monoid.Prim _ -> int_value_gen

let all_monoids =
  [ Monoid.Prim Monoid.Sum; Monoid.Prim Monoid.Prod; Monoid.Prim Monoid.Max;
    Monoid.Prim Monoid.Min; Monoid.Prim Monoid.Count; Monoid.Prim Monoid.Avg;
    Monoid.Prim Monoid.Median; Monoid.Prim Monoid.All; Monoid.Prim Monoid.Some_;
    Monoid.Prim (Monoid.Top 3); Monoid.Prim (Monoid.Bottom 2);
    Monoid.Coll Ty.Set; Monoid.Coll Ty.Bag; Monoid.Coll Ty.List; Monoid.Coll Ty.Array
  ]

(* Carrier equality up to representation: bags are unordered multisets (our
   representation keeps insertion order), and median accumulates a list whose
   order is irrelevant after [finalize]. *)
let carrier_equal m a b =
  let canon v =
    match m, v with
    | Monoid.Coll Ty.Bag, Value.Bag vs -> Value.Bag (List.sort Value.compare vs)
    | Monoid.Prim Monoid.Median, v -> Monoid.finalize m v
    | _ -> v
  in
  Value.equal (canon a) (canon b)

let monoid_law_tests =
  List.concat_map
    (fun m ->
      let arb = QCheck.make ~print:Value.to_string (gen_for_monoid m) in
      let name law = Printf.sprintf "%s %s" (Monoid.name m) law in
      let assoc =
        QCheck.Test.make ~name:(name "associative") ~count:100
          (QCheck.triple arb arb arb) (fun (a, b, c) ->
            carrier_equal m
              (Monoid.merge m (Monoid.merge m a b) c)
              (Monoid.merge m a (Monoid.merge m b c)))
      in
      let identity =
        QCheck.Test.make ~name:(name "identity") ~count:100 arb (fun a ->
            carrier_equal m (Monoid.merge m (Monoid.zero m) a) a
            && carrier_equal m (Monoid.merge m a (Monoid.zero m)) a)
      in
      let commutative =
        QCheck.Test.make ~name:(name "commutative flag") ~count:100
          (QCheck.pair arb arb) (fun (a, b) ->
            (not (Monoid.commutative m))
            || carrier_equal m (Monoid.merge m a b) (Monoid.merge m b a))
      in
      let idempotent =
        QCheck.Test.make ~name:(name "idempotent flag") ~count:100 arb (fun a ->
            (not (Monoid.idempotent m)) || carrier_equal m (Monoid.merge m a a) a)
      in
      [ assoc; identity; commutative; idempotent ])
    all_monoids

(* The linear-time accumulator must produce exactly the carrier of
   folding [merge (unit v)] one element at a time (same representation,
   same order), and its partials must merge like the fold's. Elements mix
   NULLs with Int and Float values that compare equal. *)
let accumulator_tests =
  let element_gen m =
    let open QCheck.Gen in
    match m with
    | Monoid.Prim (Monoid.All | Monoid.Some_) ->
      frequency [ (1, return Value.Null); (4, map (fun b -> Value.Bool b) bool) ]
    | _ ->
      frequency
        [ (1, return Value.Null);
          (3, map (fun i -> Value.Int i) (int_range (-4) 4));
          (3, map (fun i -> Value.Float (float_of_int i /. 2.)) (int_range (-8) 8))
        ]
  in
  let fold_merge m vs =
    List.fold_left (fun acc v -> Monoid.merge m acc (Monoid.unit m v)) (Monoid.zero m) vs
  in
  let accumulate m vs =
    let a = Monoid.accumulator m in
    List.iter (Monoid.add a) vs;
    Monoid.contents a
  in
  List.map
    (fun m ->
      let arb =
        QCheck.make
          ~print:(fun (vs, i) ->
            Printf.sprintf "%s split at %d" (Value.to_string (Value.List vs)) i)
          QCheck.Gen.(pair (list_size (int_range 0 12) (element_gen m)) (int_range 0 12))
      in
      QCheck.Test.make ~name:(Monoid.name m ^ " accumulator = fold of merge") ~count:200 arb
        (fun (vs, i) ->
          let reference = fold_merge m vs in
          let i = min i (List.length vs) in
          let prefix = List.filteri (fun j _ -> j < i) vs
          and suffix = List.filteri (fun j _ -> j >= i) vs in
          let split = Monoid.merge m (accumulate m prefix) (accumulate m suffix) in
          String.equal (Value.to_string (accumulate m vs)) (Value.to_string reference)
          && Value.equal (Monoid.finalize m split) (Monoid.finalize m reference)))
    all_monoids

let test_monoid_fold () =
  let vs = [ Value.Int 3; Value.Int 1; Value.Int 2 ] in
  check_value "sum" (Value.Int 6) (Monoid.fold (Monoid.Prim Monoid.Sum) vs);
  check_value "count" (Value.Int 3) (Monoid.fold (Monoid.Prim Monoid.Count) vs);
  check_value "max" (Value.Int 3) (Monoid.fold (Monoid.Prim Monoid.Max) vs);
  check_value "min" (Value.Int 1) (Monoid.fold (Monoid.Prim Monoid.Min) vs);
  check_value "avg" (Value.Float 2.) (Monoid.fold (Monoid.Prim Monoid.Avg) vs);
  check_value "median" (Value.Int 2) (Monoid.fold (Monoid.Prim Monoid.Median) vs);
  check_value "median even"
    (Value.Float 1.5)
    (Monoid.fold (Monoid.Prim Monoid.Median) [ Value.Int 1; Value.Int 2 ]);
  check_value "set" (Value.set_of_list vs) (Monoid.fold (Monoid.Coll Ty.Set) vs);
  check_value "top-2"
    (Value.List [ Value.Int 3; Value.Int 2 ])
    (Monoid.fold (Monoid.Prim (Monoid.Top 2)) vs);
  check_value "bottom-2"
    (Value.List [ Value.Int 1; Value.Int 2 ])
    (Monoid.fold (Monoid.Prim (Monoid.Bottom 2)) vs)

let test_monoid_null_skip () =
  let vs = [ Value.Int 3; Value.Null; Value.Int 2 ] in
  check_value "sum skips null" (Value.Int 5) (Monoid.fold (Monoid.Prim Monoid.Sum) vs);
  check_value "count skips null" (Value.Int 2) (Monoid.fold (Monoid.Prim Monoid.Count) vs);
  check_value "avg skips null" (Value.Float 2.5) (Monoid.fold (Monoid.Prim Monoid.Avg) vs);
  check_value "max skips null" (Value.Int 3) (Monoid.fold (Monoid.Prim Monoid.Max) vs);
  check_value "all nulls -> null/zero" Value.Null (Monoid.fold (Monoid.Prim Monoid.Max) [ Value.Null ])

let test_monoid_accepts () =
  check_bool "set -> sum ok (canonical sets)" true
    (Monoid.accepts ~acc:(Monoid.Prim Monoid.Sum) ~gen:Ty.Set);
  check_bool "set -> list rejected" false
    (Monoid.accepts ~acc:(Monoid.Coll Ty.List) ~gen:Ty.Set);
  check_bool "set -> max ok" true (Monoid.accepts ~acc:(Monoid.Prim Monoid.Max) ~gen:Ty.Set);
  check_bool "bag -> sum ok" true (Monoid.accepts ~acc:(Monoid.Prim Monoid.Sum) ~gen:Ty.Bag);
  check_bool "bag -> list rejected" false
    (Monoid.accepts ~acc:(Monoid.Coll Ty.List) ~gen:Ty.Bag);
  check_bool "list -> anything ok" true
    (Monoid.accepts ~acc:(Monoid.Coll Ty.List) ~gen:Ty.List)

(* --- Parser tests --- *)

let parse_ok s =
  match Parser.parse s with
  | Ok e -> e
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let test_parse_paper_query () =
  (* the paper's running aggregate example, §3.2 *)
  let e =
    parse_ok
      {|for { e <- Employees, d <- Departments,
             e.deptNo = d.id, d.deptName = "HR"} yield sum 1|}
  in
  match e with
  | Expr.Comp (Monoid.Prim Monoid.Sum, Expr.Const (Value.Int 1), quals) ->
    check_int "4 qualifiers" 4 (List.length quals)
  | _ -> Alcotest.fail "unexpected AST shape"

let test_parse_record_vs_paren () =
  (match parse_ok "(a := 1, b := 2)" with
  | Expr.Record [ ("a", _); ("b", _) ] -> ()
  | _ -> Alcotest.fail "expected record");
  match parse_ok "(1 + 2) * 3" with
  | Expr.BinOp (Expr.Mul, Expr.BinOp (Expr.Add, _, _), _) -> ()
  | _ -> Alcotest.fail "expected mul of add"

let test_parse_precedence () =
  match parse_ok "1 + 2 * 3 < 10 and true" with
  | Expr.BinOp (Expr.And, Expr.BinOp (Expr.Lt, Expr.BinOp (Expr.Add, _, Expr.BinOp (Expr.Mul, _, _)), _), _) -> ()
  | e -> Alcotest.failf "precedence wrong: %s" (Expr.to_string e)

let test_parse_literals () =
  (match parse_ok "[1, 2, 3]" with
  | Expr.Merge (Monoid.Coll Ty.List, _, _) -> ()
  | e -> Alcotest.failf "list literal: %s" (Expr.to_string e));
  (match parse_ok "{}" with
  | Expr.Zero (Monoid.Coll Ty.Set) -> ()
  | _ -> Alcotest.fail "empty set literal");
  match parse_ok "{| 1 |}" with
  | Expr.Singleton (Monoid.Coll Ty.Bag, _) -> ()
  | e -> Alcotest.failf "bag literal: %s" (Expr.to_string e)

let test_parse_lambda_apply_index () =
  (match parse_ok "\\x. x + 1" with
  | Expr.Lambda ("x", _) -> ()
  | _ -> Alcotest.fail "lambda");
  (match parse_ok "f(3)" with
  | Expr.Apply (Expr.Var "f", _) -> ()
  | _ -> Alcotest.fail "apply");
  match parse_ok "m[1, 2].val" with
  | Expr.Proj (Expr.Index (Expr.Var "m", [ _; _ ]), "val") -> ()
  | e -> Alcotest.failf "index+proj: %s" (Expr.to_string e)

let test_parse_zero_unit_merge () =
  (match parse_ok "zero[sum]" with
  | Expr.Zero (Monoid.Prim Monoid.Sum) -> ()
  | _ -> Alcotest.fail "zero");
  (match parse_ok "unit[set](4)" with
  | Expr.Singleton (Monoid.Coll Ty.Set, _) -> ()
  | _ -> Alcotest.fail "unit");
  match parse_ok "{1} merge[set] {2}" with
  | Expr.Merge (Monoid.Coll Ty.Set, _, _) -> ()
  | _ -> Alcotest.fail "merge"

let test_parse_errors () =
  let bad s =
    match Parser.parse s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error msg -> check_bool "error has position" true (String.contains msg ':')
  in
  bad "for { x <- } yield sum 1";
  bad "1 +";
  bad "(a := 1";
  bad "\"unterminated";
  bad "1 2";
  bad "for { x <- xs } yield frobnicate x"

let test_parse_comments_and_floats () =
  (match parse_ok "# leading comment\n 1.5e2" with
  | Expr.Const (Value.Float 150.) -> ()
  | e -> Alcotest.failf "float: %s" (Expr.to_string e));
  match parse_ok "2.5 + 1" with
  | Expr.BinOp (Expr.Add, Expr.Const (Value.Float 2.5), _) -> ()
  | _ -> Alcotest.fail "float add"

(* --- Evaluator tests --- *)

let test_eval_paper_aggregate () =
  check_value "count HR employees" (Value.Int 2)
    (eval_str
       {|for { e <- Employees, d <- Departments,
              e.deptNo = d.id, d.deptName = "HR"} yield sum 1|})

let test_eval_nested_query () =
  (* paper's nested example: employee name + set of departments *)
  let v =
    eval_str
      {|for { e <- Employees, d <- Departments, e.deptNo = d.id }
        yield list (emp := e.name,
                    depts := for { d2 <- Departments, d.id = d2.id }
                             yield sum 1)|}
  in
  match v with
  | Value.List (first :: _) ->
    check_value "nested count" (Value.Int 1) (Value.field first "depts")
  | _ -> Alcotest.fail "expected list result"

let test_eval_monoid_variety () =
  check_value "max salary" (Value.Int 120)
    (eval_str "for { e <- Employees } yield max e.salary");
  check_value "avg over nulls" (Value.Float 100.)
    (eval_str "for { e <- Employees } yield avg e.salary");
  check_value "exists" (Value.Bool true)
    (eval_str "for { e <- Employees } yield some e.salary > 100");
  check_value "all" (Value.Bool false)
    (eval_str "for { e <- Employees } yield all e.deptNo = 10");
  check_value "set of deptNo" (Value.set_of_list [ Value.Int 10; Value.Int 20; Value.Int 30 ])
    (eval_str "for { e <- Employees } yield set e.deptNo");
  check_value "top-2 salaries" (Value.List [ Value.Int 120; Value.Int 100 ])
    (eval_str "for { e <- Employees } yield top(2) e.salary");
  check_value "bottom-1 salary" (Value.List [ Value.Int 80 ])
    (eval_str "for { e <- Employees } yield bottom(1) e.salary")

let test_eval_null_semantics () =
  check_value "null arith propagates" Value.Null (eval_str "null + 1");
  check_value "null filter rejects" (Value.Int 3)
    (eval_str "for { e <- Employees, e.salary > 50 } yield sum 1");
  check_value "3vl or" (Value.Bool true) (eval_str "null or true");
  check_value "3vl and" (Value.Bool false) (eval_str "null and false");
  check_value "proj of null" Value.Null (eval_str "for { e <- [null] } yield max e.anything")

let test_eval_if_bind_lambda () =
  check_value "if" (Value.Int 2) (eval_str "if 1 > 2 then 1 else 2");
  check_value "bind qualifier" (Value.Int 30)
    (eval_str "for { x <- [1, 2], y := x * 10, x > 1 } yield sum y + 10");
  check_value "beta" (Value.Int 9) (eval_str "(\\x. x * x)(3)");
  check_value "merge eval" (Value.set_of_list [ Value.Int 1; Value.Int 2 ])
    (eval_str "{1} merge[set] {2, 1}")

let test_eval_array () =
  let env =
    Eval.bind "m"
      (Value.Array { dims = [ 2; 2 ]; data = [| Value.Int 1; Value.Int 2; Value.Int 3; Value.Int 4 |] })
      env
  in
  check_value "index" (Value.Int 3) (Eval.eval env (Parser.parse_exn "m[1, 0]"));
  check_value "gen over array" (Value.Int 10)
    (Eval.eval env (Parser.parse_exn "for { x <- m } yield sum x"))

let test_eval_errors () =
  let fails s =
    match eval_str s with
    | exception Eval.Error _ -> ()
    | v -> Alcotest.failf "%S should fail, got %s" s (Value.to_string v)
  in
  fails "undefined_variable";
  fails "1 + \"s\"";
  fails "for { x <- 42 } yield sum x";
  fails "1 / 0";
  fails "\\x. x" (* function result *)

(* --- Typechecker tests --- *)

let tenv =
  let emp =
    Ty.Record
      [ ("id", Ty.Int); ("name", Ty.String); ("deptNo", Ty.Int); ("salary", Ty.Int) ]
  in
  let dept = Ty.Record [ ("id", Ty.Int); ("deptName", Ty.String) ] in
  [ ("Employees", Ty.Coll (Ty.Bag, emp)); ("Departments", Ty.Coll (Ty.Bag, dept)) ]

let infer_ok s =
  match Typecheck.infer tenv (Parser.parse_exn s) with
  | Ok t -> t
  | Error e -> Alcotest.failf "infer %S: %s" s (Format.asprintf "%a" Typecheck.pp_error e)

let infer_err s =
  match Typecheck.infer tenv (Parser.parse_exn s) with
  | Ok t -> Alcotest.failf "infer %S should fail, got %s" s (Ty.to_string t)
  | Error _ -> ()

let test_typecheck_ok () =
  check_bool "sum : int" true (Ty.equal (infer_ok "for { e <- Employees } yield sum e.salary") Ty.Int);
  check_bool "set : set(string)" true
    (Ty.equal (infer_ok "for { e <- Employees } yield set e.name") (Ty.Coll (Ty.Set, Ty.String)));
  check_bool "avg : float" true
    (Ty.equal (infer_ok "for { e <- Employees } yield avg e.salary") Ty.Float);
  check_bool "join record" true
    (Ty.equal
       (infer_ok
          "for { e <- Employees, d <- Departments, e.deptNo = d.id } yield bag (n := e.name, d := d.deptName)")
       (Ty.Coll (Ty.Bag, Ty.Record [ ("n", Ty.String); ("d", Ty.String) ])))

let test_typecheck_errors () =
  infer_err "for { e <- Employees } yield sum e.name";
  infer_err "for { e <- Employees } yield sum e.missing";
  infer_err "for { e <- Employees, e.name } yield sum 1";
  infer_err "for { x <- 42 } yield sum x";
  infer_err "unbound_source";
  infer_err "1 + \"s\"";
  (* monoid conformance: set generator into an order-sensitive accumulator *)
  infer_err "for { x <- (for { e <- Employees } yield set e.deptNo) } yield list x";
  check_bool "set into max ok" true
    (Ty.equal
       (infer_ok "for { x <- (for { e <- Employees } yield set e.deptNo) } yield max x")
       Ty.Int)

(* --- Normalizer tests --- *)

let rec has_gen_over_comp (e : Expr.t) =
  match e with
  | Expr.Comp (_, head, quals) ->
    List.exists
      (function
        | Expr.Gen (_, Expr.Comp _) -> true
        | Expr.Gen (_, e) | Expr.Bind (_, e) | Expr.Pred e -> has_gen_over_comp e)
      quals
    || has_gen_over_comp head
  | Expr.Proj (e, _) | Expr.UnOp (_, e) | Expr.Singleton (_, e) | Expr.Lambda (_, e) ->
    has_gen_over_comp e
  | Expr.Record fields -> List.exists (fun (_, e) -> has_gen_over_comp e) fields
  | Expr.If (a, b, c) -> has_gen_over_comp a || has_gen_over_comp b || has_gen_over_comp c
  | Expr.BinOp (_, a, b) | Expr.Apply (a, b) | Expr.Merge (_, a, b) ->
    has_gen_over_comp a || has_gen_over_comp b
  | Expr.Index (e, idxs) -> has_gen_over_comp e || List.exists has_gen_over_comp idxs
  | Expr.Const _ | Expr.Var _ | Expr.Zero _ -> false

let normalization_corpus =
  [ "for { e <- Employees } yield sum e.salary";
    "for { e <- Employees, d <- Departments, e.deptNo = d.id, d.deptName = \"HR\" } yield sum 1";
    "for { x <- (for { e <- Employees, e.salary > 90 } yield bag e) } yield sum x.salary";
    "for { x <- (for { e <- Employees } yield bag e.deptNo), d <- Departments, x = d.id } yield count d";
    "for { e <- Employees, x := e.salary * 2, x > 100 } yield bag (n := e.name)";
    "(\\x. x + 1)(41)";
    "for { x <- [1, 2, 3], y <- [10, 20], x > 1 } yield sum x * y";
    "if 1 < 2 then (for { e <- Employees } yield count e) else 0";
    "for { e <- Employees, true } yield sum 1";
    "for { e <- Employees, false } yield sum 1";
    "for { x <- {| 5 |} } yield sum x + 2";
    "for { e <- Employees } yield max (if e.salary > 100 then e.salary else 0)";
    "for { e <- Employees, d <- (for { d0 <- Departments, d0.id < 25 } yield list d0), e.deptNo = d.id } yield list e.name"
  ]

let test_normalize_preserves_semantics () =
  List.iter
    (fun s ->
      let e = parse_ok s in
      let n = Rewrite.normalize e in
      let v1 = Eval.eval env e and v2 = Eval.eval env n in
      if not (Value.equal v1 v2) then
        Alcotest.failf "normalize changed semantics of %S:\n  %s\n  vs %s\n  normal form: %s" s
          (Value.to_string v1) (Value.to_string v2) (Expr.to_string n))
    normalization_corpus

let test_normalize_flattens () =
  List.iter
    (fun s ->
      let n = Rewrite.normalize (parse_ok s) in
      if has_gen_over_comp n then
        Alcotest.failf "normal form of %S still has generator over comprehension: %s" s
          (Expr.to_string n))
    normalization_corpus

let test_normalize_set_not_flattened_into_sum () =
  (* flattening a set generator into sum would change semantics *)
  let s = "for { x <- (for { e <- Employees } yield set e.deptNo) } yield sum 1" in
  let e = parse_ok s in
  let n = Rewrite.normalize e in
  check_value "distinct count preserved" (Value.Int 3) (Eval.eval env n)

let test_normalize_beta_and_folding () =
  check_bool "beta" true (Expr.equal (Rewrite.normalize (parse_ok "(\\x. x + 1)(41)")) (Expr.int 42));
  check_bool "const fold" true (Expr.equal (Rewrite.normalize (parse_ok "1 + 2 * 3")) (Expr.int 7));
  check_bool "pred false collapses" true
    (Expr.equal (Rewrite.normalize (parse_ok "for { e <- Employees, false } yield sum 1")) (Expr.int 0));
  check_bool "if folds" true
    (Expr.equal (Rewrite.normalize (parse_ok "if 2 > 1 then 5 else 6")) (Expr.int 5))

let test_normalize_terminates_on_adversarial () =
  (* deeply nested comprehensions *)
  let rec nest n inner = if n = 0 then inner else nest (n - 1) (Printf.sprintf "for { x <- (%s) } yield bag x" inner) in
  let s = nest 12 "[1, 2, 3]" in
  let e = parse_ok s in
  let n = Rewrite.normalize e in
  check_value "deep nest result" (Value.Bag [ Value.Int 1; Value.Int 2; Value.Int 3 ])
    (Eval.eval Eval.empty_env n)

(* --- subst / free_vars --- *)

let test_free_vars () =
  let e = parse_ok "for { e <- Employees, e.deptNo = d } yield sum e.salary + x" in
  Alcotest.(check (list string)) "free" [ "Employees"; "d"; "x" ] (List.sort compare (Expr.free_vars e))

let test_subst_capture () =
  (* substituting an expression mentioning e into a comprehension that binds e
     must rename the binder *)
  let body = parse_ok "for { e <- Employees } yield sum e.salary + y" in
  let substituted = Expr.subst "y" (Expr.Proj (Expr.Var "e", "bonus")) body in
  (* evaluate with an outer e *)
  let env =
    Eval.bind "e" (Value.Record [ ("bonus", Value.Int 1000) ]) env
  in
  (* salaries 100+80+120 each get the 1000 bonus; the NULL salary propagates
     to NULL and is skipped by sum *)
  check_value "no capture" (Value.Int 3300) (Eval.eval env substituted)

let test_subst_shadowing () =
  let e = parse_ok "for { x <- [1], y := x + z } yield sum y" in
  let e' = Expr.subst "z" (Expr.int 10) e in
  check_value "subst through bind" (Value.Int 11) (Eval.eval Eval.empty_env e');
  (* z bound by generator is not substituted *)
  let e2 = parse_ok "for { z <- [5] } yield sum z" in
  let e2' = Expr.subst "z" (Expr.int 99) e2 in
  check_value "shadowed" (Value.Int 5) (Eval.eval Eval.empty_env e2')

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "vida_calculus"
    [ qsuite "monoid-laws" monoid_law_tests;
      qsuite "monoid-accumulator" accumulator_tests;
      ( "monoid",
        [ Alcotest.test_case "fold" `Quick test_monoid_fold;
          Alcotest.test_case "null skip" `Quick test_monoid_null_skip;
          Alcotest.test_case "accepts" `Quick test_monoid_accepts
        ] );
      ( "parser",
        [ Alcotest.test_case "paper query" `Quick test_parse_paper_query;
          Alcotest.test_case "record vs paren" `Quick test_parse_record_vs_paren;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "collection literals" `Quick test_parse_literals;
          Alcotest.test_case "lambda/apply/index" `Quick test_parse_lambda_apply_index;
          Alcotest.test_case "zero/unit/merge" `Quick test_parse_zero_unit_merge;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments/floats" `Quick test_parse_comments_and_floats
        ] );
      ( "eval",
        [ Alcotest.test_case "paper aggregate" `Quick test_eval_paper_aggregate;
          Alcotest.test_case "nested query" `Quick test_eval_nested_query;
          Alcotest.test_case "monoid variety" `Quick test_eval_monoid_variety;
          Alcotest.test_case "null semantics" `Quick test_eval_null_semantics;
          Alcotest.test_case "if/bind/lambda" `Quick test_eval_if_bind_lambda;
          Alcotest.test_case "arrays" `Quick test_eval_array;
          Alcotest.test_case "errors" `Quick test_eval_errors
        ] );
      ( "typecheck",
        [ Alcotest.test_case "ok" `Quick test_typecheck_ok;
          Alcotest.test_case "errors" `Quick test_typecheck_errors
        ] );
      ( "normalize",
        [ Alcotest.test_case "preserves semantics" `Quick test_normalize_preserves_semantics;
          Alcotest.test_case "flattens nested generators" `Quick test_normalize_flattens;
          Alcotest.test_case "set-into-sum guarded" `Quick test_normalize_set_not_flattened_into_sum;
          Alcotest.test_case "beta/folding" `Quick test_normalize_beta_and_folding;
          Alcotest.test_case "terminates deep nest" `Quick test_normalize_terminates_on_adversarial
        ] );
      ( "subst",
        [ Alcotest.test_case "free_vars" `Quick test_free_vars;
          Alcotest.test_case "capture avoidance" `Quick test_subst_capture;
          Alcotest.test_case "shadowing" `Quick test_subst_shadowing
        ] )
    ]
