(* The static-analysis layer: effect/purity verdicts, the plan verifier
   (including per-rule-firing checking with the offending rule named), and
   the plan linter.

   The two load-bearing guarantees checked here:
   - the effect analysis is no less permissive than the old syntactic
     [worker_safe] gate it replaced, and every decline carries a reason;
   - every optimizer rule firing on the random-query and HBP-workload
     corpora passes the verifier, while a seeded type-breaking mutant rule
     is rejected with its name in the diagnostic. *)

open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_analysis

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* --- fixtures ------------------------------------------------------- *)

let patients_ty =
  Ty.Coll
    ( Ty.Bag,
      Ty.Record
        [ ("id", Ty.Int); ("age", Ty.Int); ("city", Ty.String);
          ("score", Ty.Float) ] )

let regions_ty =
  Ty.Coll (Ty.Bag, Ty.Record [ ("id", Ty.Int); ("quality", Ty.Float) ])

let env = [ ("Patients", patients_ty); ("Regions", regions_ty) ]

let patients_src = Plan.Source { var = "p"; expr = Expr.Var "Patients" }
let regions_src = Plan.Source { var = "r"; expr = Expr.Var "Regions" }
let age_gt n = Expr.BinOp (Expr.Gt, Expr.Proj (Expr.Var "p", "age"), Expr.int n)

let id_join =
  Expr.BinOp
    (Expr.Eq, Expr.Proj (Expr.Var "p", "id"), Expr.Proj (Expr.Var "r", "id"))

(* --- effect analysis ------------------------------------------------- *)

let test_effect_summaries () =
  let s = Effects.analyze (age_gt 60) in
  check_bool "pure" true (Effects.pure s);
  Alcotest.(check (list string)) "reads" [ "p" ] s.Effects.reads;
  let sub =
    Expr.Comp (Monoid.Prim Monoid.Count, Expr.int 1, [ Expr.Gen ("x", Expr.Var "T") ])
  in
  let s = Effects.analyze sub in
  check_bool "subquery impure" false (Effects.pure s);
  Alcotest.(check int) "subqueries" 1 s.Effects.subqueries

let test_worker_verdicts () =
  let ok e = Effects.worker_verdict ~bound:[ "p" ] ~params:[ "cutoff" ] e in
  check_bool "bound var fine" true (ok (age_gt 60) = Ok ());
  check_bool "param fine" true
    (ok (Expr.BinOp (Expr.Gt, Expr.Proj (Expr.Var "p", "age"), Expr.Var "cutoff"))
    = Ok ());
  (match ok (Expr.Var "Patients") with
  | Error (Effects.Unbound v) -> check_string "names the variable" "Patients" v
  | _ -> Alcotest.fail "unbound variable not declined");
  (match ok (Expr.Lambda ("x", Expr.Var "x")) with
  | Error (Effects.Lambda _) -> ()
  | _ -> Alcotest.fail "lambda not declined");
  match
    ok
      (Expr.Comp
         (Monoid.Prim Monoid.Sum, Expr.Var "x", [ Expr.Gen ("x", Expr.Var "p") ]))
  with
  | Error (Effects.Subquery _) -> ()
  | _ -> Alcotest.fail "subquery not declined"

let test_monoid_obligations () =
  let sum = Monoid.Prim Monoid.Sum and listm = Monoid.Coll Ty.List in
  check_bool "sum commutative" true (Effects.laws sum).Effects.commutative;
  check_bool "list not commutative" false (Effects.laws listm).Effects.commutative;
  check_bool "sum any order" true (Effects.merge_requirement sum = Effects.Any_order);
  check_bool "list source order" true
    (Effects.merge_requirement listm = Effects.Source_order);
  check_bool "ordered merge discharges list" true
    (Effects.check_merge listm ~strategy:`Ordered = Ok ());
  check_bool "unordered merge rejected for list" true
    (match Effects.check_merge listm ~strategy:`Unordered with
    | Error _ -> true
    | Ok () -> false);
  check_bool "unordered fine for sum" true
    (Effects.check_merge sum ~strategy:`Unordered = Ok ())

(* Differential: the verdict is no less permissive than the syntactic gate
   the parallel engine used before (reproduced verbatim below), and every
   decline explains itself. *)

let rec old_worker_safe (e : Expr.t) =
  match e with
  | Expr.Comp _ | Expr.Lambda _ | Expr.Apply _ -> false
  | Expr.Const _ | Expr.Var _ | Expr.Zero _ -> true
  | Expr.Proj (e, _) | Expr.UnOp (_, e) | Expr.Singleton (_, e) ->
    old_worker_safe e
  | Expr.Record fields -> List.for_all (fun (_, e) -> old_worker_safe e) fields
  | Expr.If (a, b, c) ->
    old_worker_safe a && old_worker_safe b && old_worker_safe c
  | Expr.BinOp (_, a, b) | Expr.Merge (_, a, b) ->
    old_worker_safe a && old_worker_safe b
  | Expr.Index (e, idxs) -> old_worker_safe e && List.for_all old_worker_safe idxs

let old_scoped ~bound ~params e =
  old_worker_safe e
  && List.for_all
       (fun v -> List.mem v bound || List.mem v params)
       (Expr.free_vars e)

let gen_expr : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  (* variable pool mixes plan binders ("x","y"), a session parameter
     ("limit") and an unbound source name ("Stray") *)
  let var = map (fun v -> Expr.Var v) (oneofl [ "x"; "y"; "limit"; "Stray" ]) in
  let leaf = oneof [ map Expr.int (int_bound 10); var ] in
  let rec go depth =
    if depth = 0 then leaf
    else
      let sub = go (depth - 1) in
      frequency
        [ (2, leaf);
          (2, map2 (fun a b -> Expr.BinOp (Expr.Add, a, b)) sub sub);
          (2, map (fun e -> Expr.Proj (e, "f")) sub);
          (1, map (fun e -> Expr.UnOp (Expr.Neg, e)) sub);
          ( 1,
            map3 (fun a b c -> Expr.If (a, b, c)) sub sub sub );
          ( 1,
            map2 (fun a b -> Expr.Record [ ("a", a); ("b", b) ]) sub sub );
          (1, map (fun e -> Expr.Singleton (Monoid.Coll Ty.Bag, e)) sub);
          ( 1,
            map2 (fun a b -> Expr.Merge (Monoid.Prim Monoid.Sum, a, b)) sub sub );
          (1, map (fun e -> Expr.Lambda ("w", e)) sub);
          (1, map2 (fun f a -> Expr.Apply (f, a)) sub sub);
          ( 1,
            map
              (fun e ->
                Expr.Comp
                  (Monoid.Prim Monoid.Count, Expr.int 1, [ Expr.Gen ("g", e) ]))
              sub );
          (1, map2 (fun e i -> Expr.Index (e, [ i ])) sub sub) ]
  in
  go 4

let prop_no_less_permissive =
  QCheck.Test.make ~name:"effect verdict no less permissive than old gate"
    ~count:500
    (QCheck.make ~print:Expr.to_string gen_expr)
    (fun e ->
      let bound = [ "x"; "y" ] and params = [ "limit" ] in
      match Effects.worker_verdict ~bound ~params e with
      | Ok () -> true (* at least as permissive; nothing to compare *)
      | Error r ->
        (* a decline must (i) explain itself and (ii) never cover an
           expression the old gate accepted *)
        if String.length (Effects.reason_to_string r) = 0 then
          QCheck.Test.fail_reportf "empty reason for %s" (Expr.to_string e)
        else if old_scoped ~bound ~params e then
          QCheck.Test.fail_reportf
            "regression: old gate accepted %s, new verdict declines (%s)"
            (Expr.to_string e)
            (Effects.reason_to_string r)
        else true)

(* --- verifier -------------------------------------------------------- *)

let reduce_count child =
  Plan.Reduce { monoid = Monoid.Prim Monoid.Count; head = Expr.int 1; child }

let test_verifier_accepts () =
  let plan =
    reduce_count
      (Plan.Join
         { pred = id_join;
           left = Plan.Select { pred = age_gt 60; child = patients_src };
           right = regions_src })
  in
  (match Verifier.verify ~env plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "well-typed plan rejected: %s" (Vida_error.to_string e));
  match Verifier.infer ~env plan with
  | Ok Ty.Int -> ()
  | Ok t -> Alcotest.failf "count inferred as %s" (Ty.to_string t)
  | Error e -> Alcotest.failf "infer failed: %s" (Vida_error.to_string e)

let test_verifier_rejects () =
  (* predicate is an Int, not a Bool *)
  let bad =
    Plan.Select { pred = Expr.Proj (Expr.Var "p", "age"); child = patients_src }
  in
  (match Verifier.verify ~stage:"test" ~env bad with
  | Error (Vida_error.Plan_invalid { stage; _ }) ->
    check_string "stage carried" "test" stage
  | Error e -> Alcotest.failf "wrong error: %s" (Vida_error.to_string e)
  | Ok () -> Alcotest.fail "non-boolean predicate accepted");
  (* projection of a field that does not exist *)
  let bad =
    Plan.Select
      { pred =
          Expr.BinOp (Expr.Gt, Expr.Proj (Expr.Var "p", "nope"), Expr.int 0);
        child = patients_src }
  in
  check_bool "missing field rejected" true
    (match Verifier.verify ~env bad with Error _ -> true | Ok () -> false)

let test_check_rewrite_names_rule () =
  let before = Plan.Select { pred = age_gt 60; child = patients_src } in
  let after =
    Plan.Select { pred = Expr.Proj (age_gt 60, "nope"); child = patients_src }
  in
  match Verifier.check_rewrite ~stage:"optimize" ~rule:"evil" ~env ~before ~after () with
  | Error (Vida_error.Plan_invalid { rule = Some r; _ }) ->
    check_string "rule named" "evil" r
  | Error e -> Alcotest.failf "wrong error: %s" (Vida_error.to_string e)
  | Ok () -> Alcotest.fail "type-breaking rewrite accepted"

(* a well-typed rewrite that reads a source its input did not is blamed
   on the rule, and names the variable *)
let test_check_rewrite_free_variable () =
  let count child =
    Plan.Reduce { monoid = Monoid.Prim Monoid.Count; head = Expr.int 1; child }
  in
  let before = count patients_src in
  let after = count (Plan.Map { var = "rs"; expr = Expr.Var "Regions"; child = patients_src }) in
  match Verifier.check_rewrite ~stage:"optimize" ~rule:"leaky" ~env ~before ~after () with
  | Error (Vida_error.Plan_invalid { rule = Some r; reason; _ }) ->
    check_string "rule named" "leaky" r;
    check_string "diagnostic" "rewrite introduced free variable Regions" reason
  | Error e -> Alcotest.failf "wrong error: %s" (Vida_error.to_string e)
  | Ok () -> Alcotest.fail "free-variable-introducing rewrite accepted"

(* every optimizer rule firing on a corpus of plans must verify *)

let strict_checker ~rule ~before ~after =
  match Verifier.check_rewrite ~stage:"optimize" ~rule ~env ~before ~after () with
  | Ok () -> ()
  | Error e -> raise (Vida_error.Error e)

let test_builtin_rules_verified () =
  let plans =
    [ Plan.Select
        { pred = Expr.BinOp (Expr.And, age_gt 60, id_join);
          child = Plan.Product { left = patients_src; right = regions_src } };
      Plan.Select
        { pred = age_gt 50;
          child =
            Plan.Map
              { var = "a2";
                expr = Expr.Proj (Expr.Var "p", "age");
                child = patients_src } };
      Plan.Select
        { pred = Expr.bool true;
          child = Plan.Product { left = Plan.Unit; right = patients_src } };
      reduce_count
        (Plan.Select
           { pred = Expr.BinOp (Expr.And, id_join, age_gt 70);
             child = Plan.Product { left = patients_src; right = regions_src } })
    ]
  in
  List.iter
    (fun p ->
      let p' = Vida_optimizer.Rules.apply ~check:strict_checker p in
      match Verifier.verify ~stage:"optimize" ~env p' with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "optimized plan fails verification: %s"
          (Vida_error.to_string e))
    plans

let test_mutant_rule_rejected () =
  let mutant =
    { Vida_optimizer.Rules.name = "mutant-broken-select";
      rewrite =
        (function
        | Plan.Select { pred; child } ->
          Some (Plan.Select { pred = Expr.Proj (pred, "nope"); child })
        | _ -> None) }
  in
  let plan = Plan.Select { pred = age_gt 60; child = patients_src } in
  Vida_optimizer.Rules.extra_rules := [ mutant ];
  Fun.protect
    ~finally:(fun () -> Vida_optimizer.Rules.extra_rules := [])
    (fun () ->
      match Vida_optimizer.Rules.apply ~check:strict_checker plan with
      | _ -> Alcotest.fail "type-breaking mutant rule not rejected"
      | exception Vida_error.Error (Vida_error.Plan_invalid { rule = Some r; _ })
        ->
        check_string "offending rule named" "mutant-broken-select" r)

(* HBP workload corpus: translate each query, optimize under the strict
   per-firing checker, verify the result. *)

let hbp_config =
  { Vida_workload.Hbp_data.patients_rows = 80; patients_attrs = 20;
    genetics_rows = 100; genetics_attrs = 26; regions_objects = 50;
    regions_per_object = 3; seed = 23 }

let hbp_db = lazy (
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "vida_analysis_test" in
  let paths = Vida_workload.Hbp_data.generate hbp_config ~dir in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:paths.Vida_workload.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:paths.Vida_workload.Hbp_data.genetics ();
  Vida.json db ~name:"BrainRegions" ~path:paths.Vida_workload.Hbp_data.regions ();
  db)

let test_workload_rules_verified () =
  let db = Lazy.force hbp_db in
  let ctx = Vida.ctx db in
  let wenv = Vida_catalog.Registry.type_env ctx.Vida_engine.Plugins.registry in
  let checker ~rule ~before ~after =
    match Verifier.check_rewrite ~stage:"optimize" ~rule ~env:wenv ~before ~after () with
    | Ok () -> ()
    | Error e -> raise (Vida_error.Error e)
  in
  let qs = Vida_workload.Hbp_queries.workload ~n:40 hbp_config in
  List.iter
    (fun q ->
      let text = q.Vida_workload.Hbp_queries.text in
      match Vida_calculus.Parser.parse text with
      | Error msg -> Alcotest.failf "parse %s: %s" text msg
      | Ok e ->
        let plan = Translate.plan_of_comp (Rewrite.normalize e) in
        (match Verifier.verify ~stage:"translate" ~env:wenv plan with
        | Ok () -> ()
        | Error err ->
          Alcotest.failf "q%d fails after translate: %s"
            q.Vida_workload.Hbp_queries.id (Vida_error.to_string err));
        let optimized = Vida_optimizer.Optimizer.optimize ~check:checker ctx plan in
        match Verifier.verify ~stage:"optimize" ~env:wenv optimized with
        | Ok () -> ()
        | Error err ->
          Alcotest.failf "q%d fails after optimize: %s"
            q.Vida_workload.Hbp_queries.id (Vida_error.to_string err))
    qs

(* end to end: Strict mode answers the workload (verifier hooks live in
   the query pipeline, including the parallel engine's rewrites), and a
   seeded mutant aborts with the typed Plan_invalid error. *)

let test_strict_mode_end_to_end () =
  let db = Lazy.force hbp_db in
  Vida.set_verify db Vida.Strict;
  Fun.protect
    ~finally:(fun () -> Vida.set_verify db Vida.Warn)
    (fun () ->
      let qs = Vida_workload.Hbp_queries.workload ~n:15 hbp_config in
      List.iter
        (fun q ->
          match Vida.query db q.Vida_workload.Hbp_queries.text with
          | Ok _ -> ()
          | Error e ->
            Alcotest.failf "strict q%d failed: %s" q.Vida_workload.Hbp_queries.id
              (Vida.error_to_string e))
        qs;
      check_bool "no warnings accumulated" true (Vida.verify_log db = []))

let test_strict_mode_aborts_on_mutant () =
  let db = Lazy.force hbp_db in
  Vida.set_verify db Vida.Strict;
  Vida_optimizer.Rules.extra_rules :=
    [ { Vida_optimizer.Rules.name = "mutant-broken-select";
        rewrite =
          (function
          | Plan.Select { pred; child } ->
            Some (Plan.Select { pred = Expr.Proj (pred, "nope"); child })
          | _ -> None) } ];
  Fun.protect
    ~finally:(fun () ->
      Vida_optimizer.Rules.extra_rules := [];
      Vida.set_verify db Vida.Warn)
    (fun () ->
      match
        Vida.query db ~reuse:false
          "for { p <- Patients, p.age > 60 } yield count p"
      with
      | Error (Vida.Data_error (Vida_error.Plan_invalid { rule = Some r; _ })) ->
        check_string "mutant named in query error" "mutant-broken-select" r
      | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e)
      | Ok _ -> Alcotest.fail "strict mode ran a type-broken plan")

(* --- the per-derivation typing memo ------------------------------------ *)

let with_rules rules body =
  Vida_optimizer.Rules.extra_rules := rules;
  Fun.protect ~finally:(fun () -> Vida_optimizer.Rules.extra_rules := []) body

let broken_select_mutant =
  { Vida_optimizer.Rules.name = "mutant-broken-select";
    rewrite =
      (function
      | Plan.Select { pred; child } ->
        Some (Plan.Select { pred = Expr.Proj (pred, "nope"); child })
      | _ -> None) }

(* fires only on a selection pushed down onto the Genetics source: deep
   inside a three-way join, never at a root the memo has not seen *)
let deep_mutant =
  { Vida_optimizer.Rules.name = "mutant-deep-genetics-select";
    rewrite =
      (function
      | Plan.Select { pred; child = Plan.Source { var = "g"; _ } as child } ->
        Some (Plan.Select { pred = Expr.Proj (pred, "nope"); child })
      | _ -> None) }

let three_way_query =
  Printf.sprintf
    "for { p <- Patients, g <- Genetics, b <- BrainRegions, p.id = g.id, g.id = b.id, \
     p.age > 40, g.%s = 1 } yield bag (id := p.id, city := p.city, quality := b.quality)"
    (Vida_workload.Hbp_data.snp_attr 1)

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let test_deep_mutant_caught () =
  let db = Lazy.force hbp_db in
  with_rules [ deep_mutant ] (fun () ->
      (* Warn: the firing is logged with the rule named *)
      let seen = List.length (Vida.verify_log db) in
      ignore (Vida.query db ~reuse:false three_way_query);
      let logged = drop seen (Vida.verify_log db) in
      check_bool "deep firing logged with the rule named" true
        (List.exists
           (fun line -> Astring.String.is_infix ~affix:"mutant-deep-genetics-select" line)
           logged);
      (* Strict: the same firing aborts the query *)
      Vida.set_verify db Vida.Strict;
      Fun.protect
        ~finally:(fun () -> Vida.set_verify db Vida.Warn)
        (fun () ->
          match Vida.query db ~reuse:false three_way_query with
          | Error (Vida.Data_error (Vida_error.Plan_invalid { rule = Some r; _ })) ->
            check_string "deep mutant named" "mutant-deep-genetics-select" r
          | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e)
          | Ok _ -> Alcotest.fail "strict mode ran a type-broken plan"))

(* One derivation's checks, replayed as the pipeline makes them (the
   translate stage, every optimizer firing, the optimize stage, the JIT's
   count-head firing): each check run twice, under the derivation's
   shared memo and under a fresh one. Returns the per-check outcomes of
   both, and the log the fresh checks write. *)
let replay_checks ctx env plan =
  let shared = Verifier.memo () in
  let outcomes = ref [] in
  let check ~stage ~rule ~before ~after =
    let s = Verifier.check_rewrite ~memo:shared ~stage ~rule ~env ~before ~after () in
    let f = Verifier.check_rewrite ~stage ~rule ~env ~before ~after () in
    outcomes := (stage ^ "/" ^ rule, s, f) :: !outcomes
  in
  let verify stage p =
    let s = Verifier.verify ~memo:shared ~stage ~env p in
    let f = Verifier.verify ~stage ~env p in
    outcomes := (stage, s, f) :: !outcomes
  in
  verify "translate" plan;
  let optimized = Vida_optimizer.Optimizer.optimize ~check:(check ~stage:"optimize") ctx plan in
  verify "optimize" optimized;
  let jit_plan = Vida_engine.Analysis.neutralize_count optimized in
  if jit_plan != optimized then
    check ~stage:"jit" ~rule:"neutralize-count-head" ~before:optimized ~after:jit_plan;
  let outcomes = List.rev !outcomes in
  let log =
    List.filter_map
      (fun (_, _, f) -> match f with Ok () -> None | Error e -> Some (Vida_error.to_string e))
      outcomes
  in
  (outcomes, log)

let plan_of text =
  match Vida_calculus.Parser.parse text with
  | Error msg -> Alcotest.failf "parse %s: %s" text msg
  | Ok e -> Translate.plan_of_comp (Rewrite.normalize e)

let corpus = lazy (Vida_workload.Hbp_queries.workload ~n:40 hbp_config)

let test_memo_differential () =
  let db = Lazy.force hbp_db in
  let ctx = Vida.ctx db in
  let wenv = Vida_catalog.Registry.type_env ctx.Vida_engine.Plugins.registry in
  let same = function
    | Ok (), Ok () -> true
    | Error a, Error b -> Vida_error.to_string a = Vida_error.to_string b
    | _ -> false
  in
  let failing = ref 0 and checks = ref 0 in
  List.iter
    (fun rules ->
      with_rules rules (fun () ->
          List.iter
            (fun q ->
              let text = q.Vida_workload.Hbp_queries.text in
              let outcomes, _ = replay_checks ctx wenv (plan_of text) in
              List.iter
                (fun (what, s, f) ->
                  incr checks;
                  if Result.is_error f then incr failing;
                  if not (same (s, f)) then
                    Alcotest.failf "q%d %s: shared memo %s, fresh memo %s"
                      q.Vida_workload.Hbp_queries.id what
                      (match s with Ok () -> "ok" | Error e -> Vida_error.to_string e)
                      (match f with Ok () -> "ok" | Error e -> Vida_error.to_string e))
                outcomes)
            (Lazy.force corpus)))
    [ []; [ broken_select_mutant ]; [ deep_mutant ] ];
  check_bool "the mutants fail checks" true (!failing > 0);
  check_bool "every firing compared" true (!checks > !failing)

(* the pipeline's log under its shared memo is the log fresh checks
   write, query by query *)
let test_memo_verify_log () =
  let paths =
    Vida_workload.Hbp_data.generate hbp_config
      ~dir:(Filename.concat (Filename.get_temp_dir_name ()) "vida_analysis_test")
  in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:paths.Vida_workload.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:paths.Vida_workload.Hbp_data.genetics ();
  Vida.json db ~name:"BrainRegions" ~path:paths.Vida_workload.Hbp_data.regions ();
  let ctx = Vida.ctx db in
  let wenv = Vida_catalog.Registry.type_env ctx.Vida_engine.Plugins.registry in
  with_rules [ deep_mutant ] (fun () ->
      List.iter
        (fun q ->
          let text = q.Vida_workload.Hbp_queries.text in
          let _, expected = replay_checks ctx wenv (plan_of text) in
          let seen = List.length (Vida.verify_log db) in
          ignore (Vida.query db ~reuse:false text);
          Alcotest.(check (list string))
            (Printf.sprintf "q%d log" q.Vida_workload.Hbp_queries.id)
            expected
            (drop seen (Vida.verify_log db)))
        (Lazy.force corpus));
  check_bool "the deep mutant was logged" true (Vida.verify_log db <> [])

let test_memo_types_built_nodes () =
  let rule =
    List.find
      (fun r -> r.Vida_optimizer.Rules.name = "select-into-product")
      Vida_optimizer.Rules.builtin_rules
  in
  let left = Plan.Join { pred = id_join; left = patients_src; right = regions_src } in
  let right = Plan.Source { var = "q"; expr = Expr.Var "Patients" } in
  let before = Plan.Select { pred = age_gt 70; child = Plan.Product { left; right } } in
  let after =
    match rule.rewrite before with Some p -> p | None -> Alcotest.fail "rule did not fire"
  in
  let m = Verifier.memo () in
  (match Verifier.verify ~memo:m ~env before with
  | Ok () -> ()
  | Error e -> Alcotest.failf "before rejected: %s" (Vida_error.to_string e));
  check_int "the before's six nodes typed" 6 (Verifier.typed m);
  (match Verifier.check_rewrite ~memo:m ~stage:"optimize" ~rule:rule.name ~env ~before ~after () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "firing rejected: %s" (Vida_error.to_string e));
  check_int "only the pushed selection and the new product typed" 8 (Verifier.typed m);
  ignore (Verifier.check_rewrite ~memo:m ~stage:"optimize" ~rule:rule.name ~env ~before ~after ());
  check_int "a repeated check types nothing" 8 (Verifier.typed m);
  (* a failing node is never stored: it fails again, the same way *)
  let bad = Plan.Select { pred = Expr.Proj (age_gt 60, "nope"); child = left } in
  let first = Verifier.verify ~memo:m ~env bad and again = Verifier.verify ~memo:m ~env bad in
  check_bool "failure repeats" true
    (match first, again with
    | Error a, Error b -> Vida_error.to_string a = Vida_error.to_string b
    | _ -> false);
  check_int "a failing node is not stored" 8 (Verifier.typed m)

(* --- normalization preserves typing (QCheck over the calculus) -------- *)

let sources_env =
  [ ("T1",
     Ty.Coll
       (Ty.Bag, Ty.Record [ ("a", Ty.Int); ("b", Ty.Int); ("s", Ty.String) ]));
    ("T2", Ty.Coll (Ty.Bag, Ty.Record [ ("a", Ty.Int); ("c", Ty.Float) ])) ]

let gen_query : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* ngens = int_range 1 2 in
  let tables = [ "T1"; "T2" ] in
  let* picked = flatten_l (List.init ngens (fun _ -> oneofl tables)) in
  let binders = List.mapi (fun i t -> (Printf.sprintf "v%d" i, t)) picked in
  let gens = List.map (fun (v, t) -> Expr.Gen (v, Expr.Var t)) binders in
  let int_field (v, _) = Expr.Proj (Expr.Var v, "a") in
  let* npreds = int_range 0 2 in
  let* preds =
    flatten_l
      (List.init npreds (fun _ ->
           let* (b : string * string) = oneofl binders in
           let* n = int_bound 10 in
           return (Expr.Pred (Expr.BinOp (Expr.Lt, int_field b, Expr.int n)))))
  in
  let* head_kind = int_bound 2 in
  let* b = oneofl binders in
  let monoid, head =
    match head_kind with
    | 0 -> (Monoid.Prim Monoid.Count, Expr.int 1)
    | 1 -> (Monoid.Prim Monoid.Sum, int_field b)
    | _ -> (Monoid.Coll Ty.Bag, Expr.Record [ ("k", int_field b) ])
  in
  return (Expr.Comp (monoid, head, gens @ preds))

let prop_normalize_preserves_typing =
  QCheck.Test.make ~name:"typecheck is stable under normalization" ~count:300
    (QCheck.make ~print:Expr.to_string gen_query)
    (fun e ->
      match Typecheck.infer sources_env e with
      | Error err ->
        QCheck.Test.fail_reportf "generated query ill-typed: %s"
          (Format.asprintf "%a" Typecheck.pp_error err)
      | Ok t -> (
        let n = Rewrite.normalize e in
        match Typecheck.infer sources_env n with
        | Error err ->
          QCheck.Test.fail_reportf "normalization broke typing of %s: %s"
            (Expr.to_string e)
            (Format.asprintf "%a" Typecheck.pp_error err)
        | Ok t' ->
          if Ty.unify t t' <> None then true
          else
            QCheck.Test.fail_reportf "type changed: %s vs %s" (Ty.to_string t)
              (Ty.to_string t')))

(* typecheck is total: arbitrary (including ill-typed) terms produce a
   Result, never an escaped exception *)
let prop_typecheck_total =
  QCheck.Test.make ~name:"typecheck is total" ~count:500
    (QCheck.make ~print:Expr.to_string gen_expr)
    (fun e ->
      match Typecheck.infer sources_env e with Ok _ | Error _ -> true)

(* --- linter ---------------------------------------------------------- *)

let test_lint_cartesian () =
  let p = reduce_count (Plan.Product { left = patients_src; right = regions_src }) in
  check_bool "P01 fires" true
    (List.exists (fun f -> f.Lint.id = "P01") (Lint.plan ~env p));
  let joined =
    reduce_count
      (Plan.Join { pred = id_join; left = patients_src; right = regions_src })
  in
  check_bool "join with predicate clean" false
    (List.exists (fun f -> f.Lint.id = "P01") (Lint.plan ~env joined))

let test_lint_filter_not_pushed () =
  let p =
    Plan.Select
      { pred = age_gt 60;
        child =
          Plan.Join { pred = id_join; left = patients_src; right = regions_src } }
  in
  check_bool "P02 fires" true
    (List.exists (fun f -> f.Lint.id = "P02") (Lint.plan ~env p))

let test_lint_unknown_source () =
  let p = reduce_count (Plan.Source { var = "x"; expr = Expr.Var "Nope" }) in
  let findings = Lint.plan ~env p in
  (match List.find_opt (fun f -> f.Lint.id = "P04") findings with
  | Some f -> check_bool "P04 is an error" true (f.Lint.severity = Lint.Error)
  | None -> Alcotest.fail "P04 did not fire");
  check_bool "max severity error" true
    (Lint.max_severity findings = Some Lint.Error)

let test_lint_trivial_and_order () =
  let p =
    Plan.Reduce
      { monoid = Monoid.Coll Ty.List;
        head = Expr.Var "p";
        child = Plan.Select { pred = Expr.bool true; child = patients_src } }
  in
  let ids = List.map (fun f -> f.Lint.id) (Lint.plan ~env p) in
  check_bool "P06 fires" true (List.mem "P06" ids);
  check_bool "P07 fires" true (List.mem "P07" ids)

let test_lint_severity_order () =
  let p =
    Plan.Select
      { pred = Expr.bool true;
        child = Plan.Source { var = "x"; expr = Expr.Var "Nope" } }
  in
  match Lint.plan ~env p with
  | first :: _ -> check_string "most severe first" "P04" first.Lint.id
  | [] -> Alcotest.fail "expected findings"

(* --- facade ----------------------------------------------------------- *)

let test_analyze_facade () =
  let db = Lazy.force hbp_db in
  (match Vida.analyze db "for { p <- Patients, g <- Genetics } yield count p" with
  | Ok a ->
    check_bool "verifies" true (a.Vida.verify_error = None);
    check_bool "flags cartesian product" true
      (List.exists (fun f -> f.Lint.id = "P01") a.Vida.findings);
    check_bool "worker-safe" true (a.Vida.declines = []);
    check_bool "report renders" true
      (String.length (Vida.analysis_report a) > 0)
  | Error e -> Alcotest.failf "analyze failed: %s" (Vida.error_to_string e));
  match
    Vida.analyze db
      "for { p <- Patients } yield sum (for { g <- Genetics } yield count g)"
  with
  | Ok a ->
    check_bool "subquery head declined for workers" true
      (List.exists
         (fun (_, reason) ->
           Astring.String.is_infix ~affix:"subquery" reason)
         a.Vida.declines)
  | Error e -> Alcotest.failf "analyze failed: %s" (Vida.error_to_string e)

let () =
  Alcotest.run "vida_analysis"
    [ ( "effects",
        [ Alcotest.test_case "summaries" `Quick test_effect_summaries;
          Alcotest.test_case "verdicts" `Quick test_worker_verdicts;
          Alcotest.test_case "monoid obligations" `Quick test_monoid_obligations;
          QCheck_alcotest.to_alcotest prop_no_less_permissive ] );
      ( "verifier",
        [ Alcotest.test_case "accepts well-typed" `Quick test_verifier_accepts;
          Alcotest.test_case "rejects ill-typed" `Quick test_verifier_rejects;
          Alcotest.test_case "rewrite names rule" `Quick test_check_rewrite_names_rule;
          Alcotest.test_case "rewrite free variable" `Quick test_check_rewrite_free_variable;
          Alcotest.test_case "builtin rules verified" `Quick test_builtin_rules_verified;
          Alcotest.test_case "mutant rejected" `Quick test_mutant_rule_rejected;
          Alcotest.test_case "workload rules verified" `Quick test_workload_rules_verified;
          Alcotest.test_case "strict end to end" `Quick test_strict_mode_end_to_end;
          Alcotest.test_case "strict aborts mutant" `Quick test_strict_mode_aborts_on_mutant;
          Alcotest.test_case "memo catches deep mutant" `Quick test_deep_mutant_caught;
          Alcotest.test_case "memo differential" `Quick test_memo_differential;
          Alcotest.test_case "memo verify log" `Quick test_memo_verify_log;
          Alcotest.test_case "memo types built nodes" `Quick test_memo_types_built_nodes
        ] );
      ( "typecheck",
        [ QCheck_alcotest.to_alcotest prop_normalize_preserves_typing;
          QCheck_alcotest.to_alcotest prop_typecheck_total ] );
      ( "lint",
        [ Alcotest.test_case "cartesian" `Quick test_lint_cartesian;
          Alcotest.test_case "filter not pushed" `Quick test_lint_filter_not_pushed;
          Alcotest.test_case "unknown source" `Quick test_lint_unknown_source;
          Alcotest.test_case "trivial + order" `Quick test_lint_trivial_and_order;
          Alcotest.test_case "severity order" `Quick test_lint_severity_order ] );
      ("facade", [ Alcotest.test_case "analyze" `Quick test_analyze_facade ]) ]
