(* Tests for the JIT engine: plugins, needed-field analysis, compiled vs
   interpreted vs reference execution (differential), caching behaviour. *)

open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
open Vida_engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_value msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

let tmp_file contents =
  let path = Filename.temp_file "vida_test" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

(* --- fixture: a small three-source scenario mirroring the HBP shape --- *)

let patients_csv =
  "id,age,city,protein\n\
   1,34,geneva,0.5\n\
   2,71,zurich,1.5\n\
   3,52,geneva,2.5\n\
   4,28,basel,\n"

let genetics_csv = "id,snp0,snp1\n1,0,1\n2,1,1\n3,0,0\n4,1,0\n"

let regions_jsonl =
  {|{"id": 1, "region": "hippocampus", "volume": 3.2, "voxels": [1, 2]}
{"id": 2, "region": "cortex", "volume": 410.0, "voxels": []}
{"id": 3, "region": "hippocampus", "volume": 2.9, "voxels": [5]}
|}

let make_ctx () =
  let registry = Registry.create () in
  let _ = Registry.register_csv registry ~name:"Patients" ~path:(tmp_file patients_csv) () in
  let _ = Registry.register_csv registry ~name:"Genetics" ~path:(tmp_file genetics_csv) () in
  let _ = Registry.register_json registry ~name:"Regions" ~path:(tmp_file regions_jsonl) () in
  let _ =
    Registry.register_inline registry ~name:"Numbers"
      (Value.List [ Value.Int 1; Value.Int 2; Value.Int 3 ])
  in
  Plugins.create_ctx registry

(* materialized copies for the reference interpreter *)
let reference_sources ctx =
  List.map
    (fun s -> (s.Source.name, Plugins.materialize_source ctx s))
    (Registry.sources ctx.Plugins.registry)

let plan_of s = Translate.plan_of_comp (Rewrite.normalize (Parser.parse_exn s))

(* --- analysis --- *)

let test_var_needs () =
  (* plan-level scalars referencing a generator variable e *)
  let exprs = [ Parser.parse_exn "e.a > 1"; Parser.parse_exn "e.b + e.a" ] in
  (match Analysis.var_needs exprs ~var:"e" with
  | Analysis.Fields [ "a"; "b" ] -> ()
  | _ -> Alcotest.fail "expected fields a,b");
  (match Analysis.var_needs [ Parser.parse_exn "(n := e.a, whole := e)" ] ~var:"e" with
  | Analysis.Whole -> ()
  | _ -> Alcotest.fail "expected whole");
  (* shadowing: a nested comprehension rebinding e hides its uses *)
  let shadowed = Parser.parse_exn "e.a + (for { e <- Y } yield sum e.z)" in
  match Analysis.var_needs [ shadowed ] ~var:"e" with
  | Analysis.Fields [ "a" ] -> ()
  | Analysis.Fields fs -> Alcotest.failf "fields: %s" (String.concat "," fs)
  | Analysis.Whole -> Alcotest.fail "expected fields"

let test_plan_var_needs () =
  let plan = plan_of "for { p <- Patients, p.age > 40 } yield sum p.id" in
  match Analysis.plan_var_needs plan ~var:"p" with
  | Analysis.Fields [ "age"; "id" ] -> ()
  | Analysis.Fields fs -> Alcotest.failf "fields: %s" (String.concat "," fs)
  | Analysis.Whole -> Alcotest.fail "expected fields"

let test_split_equi () =
  let pred =
    Parser.parse_exn "p.id = g.id and p.age > 40 and g.snp0 = p.protein"
  in
  let keys, residual = Analysis.split_equi ~left:[ "p" ] ~right:[ "g" ] pred in
  check_int "two key pairs" 2 (List.length keys);
  check_bool "residual retained" true (residual <> None);
  (* sides normalized: left key mentions p *)
  List.iter
    (fun (l, r) ->
      check_bool "left side" true (Expr.free_vars l = [ "p" ]);
      check_bool "right side" true (Expr.free_vars r = [ "g" ]))
    keys

(* --- differential: compiled and interpreted vs reference --- *)

let differential_corpus =
  [ "for { p <- Patients } yield sum p.age";
    "for { p <- Patients, p.age > 40 } yield count p";
    "for { p <- Patients, p.city = \"geneva\" } yield avg p.protein";
    "for { p <- Patients, g <- Genetics, p.id = g.id, g.snp0 = 1 } yield bag (id := p.id, age := p.age)";
    "for { p <- Patients, g <- Genetics, r <- Regions, p.id = g.id, g.id = r.id, p.age > 30 } yield bag (city := p.city, region := r.region)";
    "for { r <- Regions } yield max r.volume";
    "for { r <- Regions, v <- r.voxels } yield sum v";
    "for { r <- Regions } yield set r.region";
    "for { n <- Numbers, n > 1 } yield prod n";
    "for { p <- Patients } yield bag (id := p.id, senior := p.age >= 65)";
    "for { p <- Patients, x := p.age * 2 + p.id * 31 + 7, x > 60 } yield sum x";
    "for { p <- Patients, p.protein > 1.0, p.protein < 3.0 } yield list p.id";
    "for { p <- Patients } yield median p.age";
    "for { p <- Patients, g <- Genetics, p.id = g.id } yield sum p.age * g.snp1"
  ]

let test_differential_compiled () =
  let ctx = make_ctx () in
  let sources = reference_sources ctx in
  List.iter
    (fun s ->
      let plan = plan_of s in
      let expected = Naive_exec.run ~sources plan in
      let actual = Compile.query ctx plan () in
      if not (Value.equal expected actual) then
        Alcotest.failf "compiled disagrees on %S:\n  expected %s\n  got %s" s
          (Value.to_string expected) (Value.to_string actual))
    differential_corpus

let test_differential_interpreted () =
  let ctx = make_ctx () in
  let sources = reference_sources ctx in
  List.iter
    (fun s ->
      let plan = plan_of s in
      let expected = Naive_exec.run ~sources plan in
      let actual = Interp.query ctx plan () in
      if not (Value.equal expected actual) then
        Alcotest.failf "interpreted disagrees on %S:\n  expected %s\n  got %s" s
          (Value.to_string expected) (Value.to_string actual))
    differential_corpus

let test_correlated_subquery () =
  let ctx = make_ctx () in
  let q =
    "for { p <- Patients } yield list (id := p.id, nregs := for { r <- Regions, r.id = p.id } yield sum 1)"
  in
  let plan = plan_of q in
  let sources = reference_sources ctx in
  check_value "correlated" (Naive_exec.run ~sources plan) (Compile.query ctx plan ())

let test_rerunnable () =
  let ctx = make_ctx () in
  let run = Compile.query ctx (plan_of "for { p <- Patients } yield count p") in
  check_value "first" (Value.Int 4) (run ());
  check_value "second" (Value.Int 4) (run ())

(* --- caching behaviour --- *)

let test_cache_hot_path_avoids_file () =
  let ctx = make_ctx () in
  let run = Compile.query ctx (plan_of "for { p <- Patients, p.age > 40 } yield sum p.id") in
  ignore (run ());
  (* second run: all needed columns cached; no raw bytes read *)
  Vida_raw.Io_stats.reset ();
  ignore (run ());
  let stats = Vida_raw.Io_stats.current () in
  check_int "no raw bytes on hot run" 0 stats.Vida_raw.Io_stats.bytes_read;
  check_int "no fields tokenized" 0 stats.Vida_raw.Io_stats.fields_tokenized

let test_cache_partial_columns () =
  let ctx = make_ctx () in
  ignore (Compile.query ctx (plan_of "for { p <- Patients } yield sum p.age") ());
  Vida_raw.Io_stats.reset ();
  (* age cached; city is new -> only city column work happens *)
  ignore (Compile.query ctx (plan_of "for { p <- Patients, p.city = \"geneva\" } yield sum p.age") ());
  let stats = Vida_raw.Io_stats.current () in
  check_bool "some work for new column" true (stats.Vida_raw.Io_stats.values_converted > 0);
  let s = Vida_storage.Cache.stats ctx.Plugins.cache in
  check_bool "cache hits recorded" true (s.Vida_storage.Cache.hits > 0)

let test_projection_pushdown () =
  let ctx = make_ctx () in
  ignore (Compile.query ctx (plan_of "for { p <- Patients } yield sum p.id") ());
  (* only the id column should be decoded: 4 rows *)
  let s = Vida_storage.Cache.stats ctx.Plugins.cache in
  check_int "one column cached" 1 s.Vida_storage.Cache.entries

let test_json_field_caching () =
  let ctx = make_ctx () in
  let run = Compile.query ctx (plan_of "for { r <- Regions } yield max r.volume") in
  ignore (run ());
  Vida_raw.Io_stats.reset ();
  ignore (run ());
  check_int "no objects parsed on hot run" 0
    (Vida_raw.Io_stats.current ()).Vida_raw.Io_stats.objects_parsed

let test_invalidation () =
  let ctx = make_ctx () in
  let path =
    match (Option.get (Registry.find ctx.Plugins.registry "Patients")).Source.path with
    | Some p -> p
    | None -> assert false
  in
  let run = Compile.query ctx (plan_of "for { p <- Patients } yield count p") in
  check_value "before" (Value.Int 4) (run ());
  (* append a row (simulates an update); invalidate; re-run sees new data *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "5,90,bern,3.5\n";
  close_out oc;
  check_bool "stale detected" true
    (Source.stale (Option.get (Registry.find ctx.Plugins.registry "Patients")));
  Plugins.invalidate ctx "Patients";
  check_value "after invalidation" (Value.Int 5) (run ())

(* --- engine vs engine consistency on parameters --- *)

let test_params () =
  let registry = Registry.create () in
  let _ = Registry.register_inline registry ~name:"Xs" (Value.List [ Value.Int 5; Value.Int 10 ]) in
  let ctx = Plugins.create_ctx ~params:[ ("threshold", Value.Int 6) ] registry in
  let plan = plan_of "for { x <- Xs, x > threshold } yield sum x" in
  check_value "param resolved" (Value.Int 10) (Compile.query ctx plan ())

let test_unknown_source_error () =
  let ctx = make_ctx () in
  let plan = plan_of "for { z <- Zs } yield sum z" in
  match Compile.query ctx plan () with
  | exception Plugins.Engine_error _ -> ()
  | v -> Alcotest.failf "expected engine error, got %s" (Value.to_string v)

(* --- interp is slower machinery, same results, generic plugins --- *)

let test_interp_no_pushdown () =
  let ctx = make_ctx () in
  ignore (Interp.query ctx (plan_of "for { p <- Patients } yield sum p.id") ());
  (* generic plugin decodes every column *)
  let s = Vida_storage.Cache.stats ctx.Plugins.cache in
  check_int "all columns cached" 4 s.Vida_storage.Cache.entries

let test_binarray_zone_pruning () =
  let path = Filename.temp_file "vida_test" ".varr" in
  (* 4096 cells, field v ascending: predicates select a narrow band *)
  Vida_raw.Binarray.write path ~dims:[ 4096 ]
    ~fields:[ { Vida_raw.Binarray.name = "v"; is_float = false };
              { Vida_raw.Binarray.name = "w"; is_float = true } ]
    (fun cell -> [| Value.Int cell; Value.Float (float_of_int (cell mod 7)) |]);
  let registry = Registry.create () in
  let _ = Registry.register_binarray registry ~name:"Cells" ~path in
  let ctx = Plugins.create_ctx registry in
  let plan = plan_of "for { c <- Cells, c.v >= 1000, c.v < 1100 } yield count c" in
  check_value "band count" (Value.Int 100) (Compile.query ctx plan ());
  let ba =
    Structures.binarray ctx.Plugins.structures
      (Option.get (Registry.find registry "Cells"))
  in
  check_bool "blocks were skipped" true (Vida_raw.Binarray.blocks_skipped ba > 0);
  (* exactness: pruning is a superset, the predicate still filters *)
  check_value "exact edge" (Value.Int 1)
    (Compile.query ctx (plan_of "for { c <- Cells, c.v = 2048 } yield count c") ());
  (* interpreted engine (no pruning) agrees *)
  check_value "interp agrees" (Value.Int 100) (Interp.query ctx plan ())

let test_parallel_reduce () =
  let ctx = make_ctx () in
  (* the fixtures are tiny; lower the morsel floor so they parallelize *)
  Vida_raw.Morsel.set_min_parallel_rows 1;
  Fun.protect ~finally:(fun () -> Vida_raw.Morsel.set_min_parallel_rows 2048)
  @@ fun () ->
  let check_same q =
    (* the plan the facade runs: optimized and with the count head
       rewritten *)
    let plan =
      Analysis.neutralize_count (Vida_optimizer.Optimizer.optimize ctx (plan_of q))
    in
    let sequential = Compile.query ctx plan () in
    match Parallel.try_query ctx ~domains:4 plan with
    | None -> Alcotest.failf "expected parallel support for %s" q
    | Some parallel ->
      if not (Value.equal sequential parallel) then
        Alcotest.failf "parallel disagrees on %s: %s vs %s" q
          (Value.to_string sequential) (Value.to_string parallel)
  in
  check_same "for { p <- Patients } yield sum p.age";
  check_same "for { p <- Patients, p.age > 40 } yield count p";
  check_same "for { p <- Patients, x := p.age * 2, x > 80 } yield max x";
  check_same "for { p <- Patients } yield avg p.protein";
  check_same "for { p <- Patients } yield set p.city";
  (* non-commutative monoids: partials merge in morsel order *)
  check_same "for { p <- Patients } yield list p.city";
  check_same "for { p <- Patients, p.age > 30 } yield list p.id";
  (* equi-join reduce: the join kernel's probe runs in morsels *)
  check_same "for { p <- Patients, g <- Genetics, p.id = g.id } yield count p";
  check_same
    "for { p <- Patients, g <- Genetics, p.id = g.id, g.snp0 = 1 } yield sum p.age";
  check_same "for { p <- Patients, g <- Genetics, p.id = g.id } yield sum p.age * g.snp1";
  (* hierarchical sources through decoded field columns *)
  check_same "for { r <- Regions } yield max r.volume";
  check_same "for { r <- Regions, r.volume > 3.0 } yield count r";
  (* collection-monoid reduce of records *)
  check_same "for { p <- Patients, p.age > 30 } yield bag p.city";
  (* inline non-record elements have no columnar view: declined, not
     mis-executed *)
  check_bool "inline scalar list declined" true
    (Parallel.try_query ctx ~domains:4 (plan_of "for { n <- Numbers } yield list n") = None)

let test_compiled_outer_unnest () =
  let ctx = make_ctx () in
  let plan =
    Plan.Unnest
      { var = "v"; path = Expr.Proj (Expr.Var "r", "voxels"); outer = true;
        child = Plan.Source { var = "r"; expr = Expr.Var "Regions" }
      }
  in
  let compiled = Compile.query ctx plan () in
  let sources = reference_sources ctx in
  let expected = Naive_exec.run ~sources plan in
  check_value "outer unnest compiled" expected compiled;
  (* null-padded rows present for the empty voxel list *)
  (match compiled with
  | Value.Bag vs ->
    check_bool "padded row exists" true
      (List.exists
         (fun env -> match env with Value.Record fields -> List.assoc "v" fields = Value.Null | _ -> false)
         vs)
  | _ -> Alcotest.fail "expected bag")

let test_compiled_lambda_fallback () =
  (* lambdas escape closure compilation; the interpreter fallback must agree *)
  let ctx = make_ctx () in
  let plan = plan_of "for { n <- Numbers } yield sum (\\x. x * x)(n)" in
  check_value "lambda in head" (Value.Int 14) (Compile.query ctx plan ())

let test_compiled_product_no_equi () =
  let ctx = make_ctx () in
  let plan = plan_of "for { a <- Numbers, b <- Numbers, a < b } yield count a" in
  let sources = reference_sources ctx in
  check_value "theta join" (Naive_exec.run ~sources plan) (Compile.query ctx plan ())

let test_source_count () =
  let ctx = make_ctx () in
  let count name =
    Plugins.source_count ctx (Option.get (Registry.find ctx.Plugins.registry name))
  in
  check_int "patients" 4 (count "Patients");
  check_int "regions" 3 (count "Regions");
  check_int "inline" 3 (count "Numbers")

let () =
  Alcotest.run "vida_engine"
    [ ( "analysis",
        [ Alcotest.test_case "var_needs" `Quick test_var_needs;
          Alcotest.test_case "plan_var_needs" `Quick test_plan_var_needs;
          Alcotest.test_case "split_equi" `Quick test_split_equi
        ] );
      ( "differential",
        [ Alcotest.test_case "compiled vs reference" `Quick test_differential_compiled;
          Alcotest.test_case "interpreted vs reference" `Quick test_differential_interpreted;
          Alcotest.test_case "correlated subquery" `Quick test_correlated_subquery;
          Alcotest.test_case "rerunnable" `Quick test_rerunnable
        ] );
      ( "caching",
        [ Alcotest.test_case "hot path avoids file" `Quick test_cache_hot_path_avoids_file;
          Alcotest.test_case "partial columns" `Quick test_cache_partial_columns;
          Alcotest.test_case "projection pushdown" `Quick test_projection_pushdown;
          Alcotest.test_case "json field caching" `Quick test_json_field_caching;
          Alcotest.test_case "invalidation" `Quick test_invalidation
        ] );
      ( "plugins",
        [ Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "unknown source" `Quick test_unknown_source_error;
          Alcotest.test_case "interp generic plugin" `Quick test_interp_no_pushdown;
          Alcotest.test_case "binarray zone pruning" `Quick test_binarray_zone_pruning;
          Alcotest.test_case "parallel reduce" `Quick test_parallel_reduce;
          Alcotest.test_case "compiled outer unnest" `Quick test_compiled_outer_unnest;
          Alcotest.test_case "lambda fallback" `Quick test_compiled_lambda_fallback;
          Alcotest.test_case "theta join" `Quick test_compiled_product_no_equi;
          Alcotest.test_case "source_count" `Quick test_source_count
        ] )
    ]
