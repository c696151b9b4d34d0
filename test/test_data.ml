(* Unit + property tests for the vida_data data model. *)

open Vida_data

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- generators --- *)

let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun f -> Value.Float f) (float_range (-1000.) 1000.);
        map (fun s -> Value.String s) (string_size ~gen:printable (int_range 0 8))
      ]
  in
  let rec go depth =
    if depth = 0 then scalar
    else
      frequency
        [ (4, scalar);
          ( 1,
            map
              (fun vs -> Value.Record (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) vs))
              (list_size (int_range 0 3) (go (depth - 1))) );
          (1, map (fun vs -> Value.List vs) (list_size (int_range 0 4) (go (depth - 1))));
          (1, map (fun vs -> Value.Bag vs) (list_size (int_range 0 4) (go (depth - 1))));
          (1, map (fun vs -> Value.set_of_list vs) (list_size (int_range 0 4) (go (depth - 1))));
          ( 1,
            map
              (fun vs -> Value.Array { dims = [ List.length vs ]; data = Array.of_list vs })
              (list_size (int_range 0 4) (go (depth - 1))) )
        ]
  in
  go 2

let arb_value = QCheck.make ~print:Value.to_string value_gen

(* --- Value tests --- *)

let test_compare_scalars () =
  check_bool "null < int" true (Value.compare Value.Null (Value.Int 0) < 0);
  check_bool "int = float numeric" true (Value.equal (Value.Int 3) (Value.Float 3.));
  check_bool "int < float numeric" true
    (Value.compare (Value.Int 3) (Value.Float 3.5) < 0);
  check_bool "float < int numeric" true
    (Value.compare (Value.Float 2.5) (Value.Int 3) < 0);
  check_int "string order" (-1)
    (Stdlib.compare (Value.compare (Value.String "a") (Value.String "b")) 0)

let test_compare_structures () =
  let r1 = Value.Record [ ("a", Value.Int 1); ("b", Value.String "x") ] in
  let r2 = Value.Record [ ("a", Value.Int 1); ("b", Value.String "y") ] in
  check_bool "record lexicographic" true (Value.compare r1 r2 < 0);
  check_bool "list prefix" true
    (Value.compare (Value.List [ Value.Int 1 ]) (Value.List [ Value.Int 1; Value.Int 2 ]) < 0)

let test_set_of_list () =
  match Value.set_of_list [ Value.Int 3; Value.Int 1; Value.Int 3; Value.Int 2 ] with
  | Value.Set vs ->
    Alcotest.(check (list int)) "sorted deduped" [ 1; 2; 3 ] (List.map Value.to_int vs)
  | _ -> Alcotest.fail "expected a set"

let test_hash_consistent_with_equal () =
  check_int "int/float hash agree" (Value.hash (Value.Int 7)) (Value.hash (Value.Float 7.))

let test_accessors () =
  let r = Value.Record [ ("x", Value.Int 5) ] in
  check_int "field" 5 (Value.to_int (Value.field r "x"));
  check_bool "field_opt miss" true (Value.field_opt r "y" = None);
  Alcotest.check_raises "field miss raises" (Value.Type_error "record has no field \"y\"")
    (fun () -> ignore (Value.field r "y"));
  check_bool "to_float widens" true (Value.to_float (Value.Int 2) = 2.)

let test_array_get () =
  let arr =
    Value.Array { dims = [ 2; 3 ]; data = Array.init 6 (fun i -> Value.Int i) }
  in
  check_int "row-major [1;2]" 5 (Value.to_int (Value.array_get arr [ 1; 2 ]));
  check_int "row-major [0;1]" 1 (Value.to_int (Value.array_get arr [ 0; 1 ]));
  Alcotest.check_raises "out of bounds"
    (Value.Type_error "array index 3 out of bound 3") (fun () ->
      ignore (Value.array_get arr [ 0; 3 ]))

let test_typeof () =
  let v = Value.Record [ ("a", Value.Int 1); ("b", Value.List [ Value.Float 1. ]) ] in
  match Value.typeof v with
  | Ty.Record [ ("a", Ty.Int); ("b", Ty.Coll (Ty.List, Ty.Float)) ] -> ()
  | t -> Alcotest.failf "unexpected type %s" (Ty.to_string t)

let test_typeof_heterogeneous_list () =
  let v = Value.List [ Value.Int 1; Value.Float 2. ] in
  match Value.typeof v with
  | Ty.Coll (Ty.List, Ty.Float) -> ()
  | t -> Alcotest.failf "expected list(float), got %s" (Ty.to_string t)

let test_conforms () =
  let ty = Ty.Record [ ("a", Ty.Float); ("b", Ty.String) ] in
  check_bool "int conforms to float field" true
    (Value.conforms (Value.Record [ ("a", Value.Int 1); ("b", Value.String "s") ]) ty);
  check_bool "null conforms" true (Value.conforms Value.Null ty);
  check_bool "wrong field type" false
    (Value.conforms (Value.Record [ ("a", Value.Bool true); ("b", Value.String "s") ]) ty)

let test_to_json () =
  let v =
    Value.Record
      [ ("name", Value.String "he\"llo\n");
        ("xs", Value.List [ Value.Int 1; Value.Null ]);
        ("m", Value.Array { dims = [ 2; 2 ]; data = Array.init 4 (fun i -> Value.Int i) })
      ]
  in
  check_string "json"
    "{\"name\":\"he\\\"llo\\n\",\"xs\":[1,null],\"m\":[[0,1],[2,3]]}"
    (Value.to_json v)

let prop_compare_reflexive =
  QCheck.Test.make ~name:"compare reflexive" ~count:200 arb_value (fun v ->
      Value.compare v v = 0)

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:200
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      Value.compare a b = -Value.compare b a)

let prop_compare_transitive =
  QCheck.Test.make ~name:"compare transitive" ~count:200
    (QCheck.triple arb_value arb_value arb_value) (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0 && Value.compare x z <= 0
      | _ -> false)

let prop_hash_equal =
  QCheck.Test.make ~name:"equal values hash equal" ~count:200
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      QCheck.assume (Value.equal a b);
      Value.hash a = Value.hash b)

(* Numerics that compare equal across representations: Int/Float of the
   same value, signed zeros, NaN (equal to itself under the total order)
   and integers beyond 2^53, where Int-vs-Float equality rounds. *)
let numeric_edge_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let big = 1 lsl 53 in
  let scalar =
    oneofl
      [ Value.Int 3; Value.Float 3.0; Value.Int 0; Value.Float 0.0; Value.Float (-0.0);
        Value.Float Float.nan; Value.Float (-.Float.nan); Value.Int big;
        Value.Int (big + 1); Value.Float (float_of_int big); Value.Int (-big - 1);
        Value.Float (-.float_of_int big); Value.Int max_int; Value.Float (float_of_int max_int)
      ]
  in
  frequency
    [ (4, scalar);
      (1, map (fun vs -> Value.List vs) (list_size (int_range 0 3) scalar));
      (1, map (fun (a, b) -> Value.Record [ ("a", a); ("b", b) ]) (pair scalar scalar))
    ]

let prop_hash_numeric_edges =
  let arb = QCheck.make ~print:Value.to_string numeric_edge_gen in
  QCheck.Test.make ~name:"equal values hash equal (numeric edges)" ~count:500
    (QCheck.pair arb arb) (fun (a, b) ->
      (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_set_idempotent =
  QCheck.Test.make ~name:"set_of_list idempotent" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) arb_value) (fun vs ->
      let s1 = Value.set_of_list vs in
      let s2 = Value.set_of_list (Value.elements s1) in
      Value.equal s1 s2)

let prop_conforms_typeof =
  QCheck.Test.make ~name:"v conforms to typeof v" ~count:200 arb_value (fun v ->
      Value.conforms v (Value.typeof v))

(* --- Ty tests --- *)

let test_unify () =
  check_bool "int/float" true (Ty.unify Ty.Int Ty.Float = Some Ty.Float);
  check_bool "any absorbs" true (Ty.unify Ty.Any (Ty.Coll (Ty.Set, Ty.Int)) = Some (Ty.Coll (Ty.Set, Ty.Int)));
  check_bool "mismatch" true (Ty.unify Ty.Bool Ty.Int = None);
  let r1 = Ty.Record [ ("a", Ty.Int) ] and r2 = Ty.Record [ ("a", Ty.Float) ] in
  check_bool "record fieldwise" true (Ty.unify r1 r2 = Some (Ty.Record [ ("a", Ty.Float) ]));
  check_bool "coll kind mismatch" true
    (Ty.unify (Ty.Coll (Ty.Set, Ty.Int)) (Ty.Coll (Ty.Bag, Ty.Int)) = None)

let test_ty_field_element () =
  let r = Ty.Record [ ("a", Ty.Int) ] in
  check_bool "field hit" true (Ty.field r "a" = Some Ty.Int);
  check_bool "field miss" true (Ty.field r "b" = None);
  check_bool "field of any" true (Ty.field Ty.Any "z" = Some Ty.Any);
  check_bool "element" true (Ty.element (Ty.Coll (Ty.List, Ty.Bool)) = Some Ty.Bool);
  check_bool "element of scalar" true (Ty.element Ty.Int = None)

let test_ty_print () =
  check_string "nested print" "set(<a: int, b: list(float)>)"
    (Ty.to_string (Ty.Coll (Ty.Set, Ty.Record [ ("a", Ty.Int); ("b", Ty.Coll (Ty.List, Ty.Float)) ])))

(* --- Schema tests --- *)

let sample_schema =
  Schema.of_pairs [ ("id", Ty.Int); ("name", Ty.String); ("score", Ty.Float) ]

let test_schema_basics () =
  check_int "arity" 3 (Schema.arity sample_schema);
  check_bool "index" true (Schema.index sample_schema "name" = Some 1);
  check_bool "mem" true (Schema.mem sample_schema "score");
  check_bool "not mem" false (Schema.mem sample_schema "missing");
  Alcotest.(check (list string)) "names" [ "id"; "name"; "score" ] (Schema.names sample_schema)

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Schema.make: duplicate attribute \"id\"") (fun () ->
      ignore (Schema.of_pairs [ ("id", Ty.Int); ("id", Ty.Float) ]))

let test_schema_project () =
  let p = Schema.project sample_schema [ "score"; "id" ] in
  Alcotest.(check (list string)) "projected order" [ "score"; "id" ] (Schema.names p)

let test_schema_concat_rename () =
  let other = Schema.of_pairs [ ("id", Ty.Int) ] in
  let renamed = Schema.rename other "g" in
  Alcotest.(check (list string)) "renamed" [ "g.id" ] (Schema.names renamed);
  let c = Schema.concat sample_schema renamed in
  check_int "concat arity" 4 (Schema.arity c)

let test_schema_tuple_conforms () =
  check_bool "ok tuple" true
    (Schema.tuple_conforms sample_schema [| Value.Int 1; Value.String "x"; Value.Int 2 |]);
  check_bool "bad arity" false (Schema.tuple_conforms sample_schema [| Value.Int 1 |]);
  check_bool "bad type" false
    (Schema.tuple_conforms sample_schema [| Value.Bool true; Value.String "x"; Value.Float 1. |])

(* The protocol's integrity tag, as the 64-bit FNV-1a it is defined to
   be: [Value.fnv64] runs over native ints and must agree with this on
   every kept bit, or tags on the wire would change. *)
let fnv64_reference s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL)

let test_fnv64_vectors () =
  (* published FNV-1a 64 vectors, masked to 62 bits *)
  Alcotest.(check int) "empty" 0x0bf29ce484222325 (Value.fnv64 "");
  Alcotest.(check int) "a" 0x2f63dc4c8601ec8c (Value.fnv64 "a");
  Alcotest.(check int) "foobar" 0x05944171f73967e8 (Value.fnv64 "foobar");
  let big = String.init 13_000 (fun i -> Char.chr (((i * 7919) + (i / 13)) land 255)) in
  Alcotest.(check int) "13 KB" (fnv64_reference big) (Value.fnv64 big);
  let v = Value.Record [ ("x", Value.Float 2.5); ("s", Value.String "q\"") ] in
  let e = Value.encode v in
  Alcotest.(check string) "encoded text" (Value.to_json v) e.Value.json;
  Alcotest.(check int) "encoded tag" (fnv64_reference e.Value.json) e.Value.crc

let prop_fnv64_reference =
  QCheck.Test.make ~name:"fnv64 matches the Int64 reference" ~count:2000
    QCheck.(string_gen_of_size (Gen.int_range 0 300) Gen.char)
    (fun s -> Value.fnv64 s = fnv64_reference s)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "vida_data"
    [ ( "value",
        [ Alcotest.test_case "compare scalars" `Quick test_compare_scalars;
          Alcotest.test_case "compare structures" `Quick test_compare_structures;
          Alcotest.test_case "set_of_list" `Quick test_set_of_list;
          Alcotest.test_case "hash int/float" `Quick test_hash_consistent_with_equal;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "array_get" `Quick test_array_get;
          Alcotest.test_case "typeof" `Quick test_typeof;
          Alcotest.test_case "typeof heterogeneous" `Quick test_typeof_heterogeneous_list;
          Alcotest.test_case "conforms" `Quick test_conforms;
          Alcotest.test_case "to_json" `Quick test_to_json;
          Alcotest.test_case "fnv64 vectors" `Quick test_fnv64_vectors
        ] );
      qsuite "value-properties"
        [ prop_compare_reflexive; prop_compare_antisymmetric; prop_compare_transitive;
          prop_hash_numeric_edges;
          prop_hash_equal; prop_set_idempotent; prop_conforms_typeof;
          prop_fnv64_reference
        ];
      ( "ty",
        [ Alcotest.test_case "unify" `Quick test_unify;
          Alcotest.test_case "field/element" `Quick test_ty_field_element;
          Alcotest.test_case "print" `Quick test_ty_print
        ] );
      ( "schema",
        [ Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "duplicate" `Quick test_schema_duplicate;
          Alcotest.test_case "project" `Quick test_schema_project;
          Alcotest.test_case "concat/rename" `Quick test_schema_concat_rename;
          Alcotest.test_case "tuple_conforms" `Quick test_schema_tuple_conforms
        ] )
    ]
