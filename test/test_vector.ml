(* Vectorized batch engine (DESIGN.md §13): differential equivalence
   vectorized == closure == generic across physical formats, batch sizes
   and domain counts; directed edge cases (empty input, all-filtered
   batches, NaN/inf columns, quarantined records, mid-batch cooperative
   cancellation, division errors); and the vectorized -> closure ->
   generic degradation ladder, checking the governor report names each
   rung. *)

open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
open Vida_engine
module G = Vida_governor.Governor
module Policy = Vida_cleaning.Policy

let check_bool = Alcotest.(check bool)
let check_value msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

let tmp_file suffix contents =
  let path = Filename.temp_file "vida_vec" suffix in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let translate s = Translate.plan_of_comp (Rewrite.normalize (Parser.parse_exn s))

(* the plan as the JIT sees it: the facade rewrites [count v] heads once
   before any rung classifies the plan *)
let plan_of s = Analysis.neutralize_count (translate s)
let default_batch = Vector.batch_rows ()

let with_vector_off f =
  let was = Vector.enabled () in
  Vector.set_enabled false;
  Fun.protect ~finally:(fun () -> Vector.set_enabled was) f

let with_batch n f =
  Vector.set_batch_rows n;
  Fun.protect ~finally:(fun () -> Vector.set_batch_rows default_batch) f

(* Engines may legitimately raise the same data error (e.g. integer
   division by zero); compare outcomes, not just values. *)
let outcome thunk =
  match thunk () with
  | v -> Ok (Value.to_string v)
  | exception Eval.Error m -> Error m

let show = function
  | Ok s -> s
  | Error m -> "error: " ^ m

(* --- fixtures: the same logical table in three physical formats ------- *)

let nrows = 331

let row i =
  let a = (i * 7 mod 23) - 11 in
  let x = (float_of_int (i mod 17) /. 4.0) -. 2.0 in
  let b = i mod 5 in
  (a, x, b)

let csv_fixture () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "a,x,b\n";
  for i = 0 to nrows - 1 do
    let a, x, b = row i in
    (* every 13th b is NULL: exercises validity masks *)
    if i mod 13 = 0 then Printf.bprintf buf "%d,%.4f,\n" a x
    else Printf.bprintf buf "%d,%.4f,%d\n" a x b
  done;
  tmp_file ".csv" (Buffer.contents buf)

let json_fixture () =
  let buf = Buffer.create 4096 in
  for i = 0 to nrows - 1 do
    let a, x, b = row i in
    Printf.bprintf buf {|{"a": %d, "x": %.4f, "b": %d}|} a x b;
    Buffer.add_char buf '\n'
  done;
  tmp_file ".jsonl" (Buffer.contents buf)

let binarray_fixture () =
  let path = Filename.temp_file "vida_vec" ".varr" in
  Vida_raw.Binarray.write path ~dims:[ nrows ]
    ~fields:
      [ { Vida_raw.Binarray.name = "a"; is_float = false };
        { Vida_raw.Binarray.name = "x"; is_float = true };
        { Vida_raw.Binarray.name = "b"; is_float = false }
      ]
    (fun i ->
      let a, x, b = row i in
      [| Value.Int a; Value.Float x; Value.Int b |]);
  path

(* one shared context: VC (csv), VJ (jsonl), VB (binary array) *)
let ctx =
  let registry = Registry.create () in
  let _ = Registry.register_csv registry ~name:"VC" ~path:(csv_fixture ()) () in
  let _ = Registry.register_json registry ~name:"VJ" ~path:(json_fixture ()) () in
  let _ = Registry.register_binarray registry ~name:"VB" ~path:(binarray_fixture ()) in
  Plugins.create_ctx registry

let formats = [ "VC"; "VJ"; "VB" ]

(* --- the differential harness ----------------------------------------- *)

(* vectorized, closure and generic engines must agree; and inside the
   parallel engine, vectorized morsels must agree with row-at-a-time
   morsels (same morsel split, so float folds associate identically). *)
let engines_agree ~fail q =
  let plan = plan_of q in
  let vec = outcome (fun () -> Compile.query ctx plan ()) in
  let clo = outcome (fun () -> with_vector_off (fun () -> Compile.query ctx plan ())) in
  let gen = outcome (fun () -> Interp.query ctx plan ()) in
  if vec <> clo then
    fail (Printf.sprintf "%s: vectorized %s vs closure %s" q (show vec) (show clo));
  if clo <> gen then
    fail (Printf.sprintf "%s: closure %s vs generic %s" q (show clo) (show gen));
  let show_par = function
    | None -> "<unsupported>"
    | Some o -> show o
  in
  List.iter
    (fun domains ->
      let par () =
        match Parallel.try_query ctx ~domains plan with
        | Some v -> Some (Ok (Value.to_string v))
        | None -> None
        | exception Eval.Error m -> Some (Error m)
      in
      let pv = par () in
      let pc = with_vector_off par in
      if pv <> pc then
        fail
          (Printf.sprintf "%s (domains=%d): vectorized morsels %s vs row morsels %s" q
             domains (show_par pv) (show_par pc)))
    [ 1; 4 ]

(* --- random differential property ------------------------------------- *)

type case = { mk : string -> string; batch : int }

let gen_case : case QCheck.Gen.t =
  let open QCheck.Gen in
  let int_k = int_range (-12) 12 in
  let float_k = map (fun n -> float_of_int n /. 4.0) (int_range (-16) 24) in
  let pred =
    oneof
      [ map (Printf.sprintf "p.a > %d") int_k;
        map (Printf.sprintf "p.a <= %d") int_k;
        map (Printf.sprintf "p.a * 2 - 3 > %d") int_k;
        map (Printf.sprintf "p.x > %.2f") float_k;
        map (Printf.sprintf "p.x < %.2f") float_k;
        map2 (Printf.sprintf "p.a > %d and p.x < %.2f") int_k float_k;
        map2 (Printf.sprintf "p.a < %d or p.b = %d") int_k (int_range 0 4);
        map (Printf.sprintf "not (p.a = %d)") int_k
      ]
  in
  let head =
    oneof
      [ oneofl
          [ "sum p.a"; "sum p.x"; "count p"; "max p.a"; "max p.x"; "min p.x";
            "min p.a"; "avg p.x"; "avg p.a"; "sum p.a * p.a"; "prod p.b"
          ];
        map (Printf.sprintf "all p.a > %d") int_k;
        map (Printf.sprintf "some p.x > %.2f") float_k
      ]
  in
  let* npred = int_range 0 2 in
  let* preds = flatten_l (List.init npred (fun _ -> pred)) in
  let* bind = opt (map (Printf.sprintf "y := p.a * 3 + %d") int_k) in
  let* head =
    match bind with
    | None -> head
    | Some _ -> oneof [ head; oneofl [ "sum y"; "max y"; "min y" ] ]
  in
  let* batch = oneofl [ 1; 3; 64; 4096 ] in
  let mk src =
    let binds = match bind with None -> [] | Some b -> [ b ] in
    Printf.sprintf "for { p <- %s%s } yield %s" src
      (String.concat "" (List.map (fun p -> ", " ^ p) (preds @ binds)))
      head
  in
  return { mk; batch }

let arb_case =
  QCheck.make ~print:(fun c -> Printf.sprintf "%s [batch=%d]" (c.mk "<src>") c.batch)
    gen_case

let prop_engines_agree =
  QCheck.Test.make ~name:"vectorized == closure == generic (3 formats)" ~count:120
    arb_case (fun c ->
      with_batch c.batch (fun () ->
          List.iter
            (fun src ->
              engines_agree ~fail:(fun m -> QCheck.Test.fail_report m) (c.mk src))
            formats;
          true))

(* --- the join fragment: fixtures over every columnar format ------------ *)

(* Small tables keyed by [k], with duplicate keys on both sides of every
   join and NULL keys in the CSV and JSON tables. *)
let join_csv () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "k,a,x,s\n";
  for i = 0 to 59 do
    let k = if i mod 11 = 5 then "" else string_of_int (i mod 13) in
    Printf.bprintf buf "%s,%d,%.2f,s%d\n" k ((i * 7 mod 23) - 11)
      ((float_of_int (i mod 9) /. 4.) -. 1.) (i mod 4)
  done;
  tmp_file ".csv" (Buffer.contents buf)

let join_csv2 () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "k,s,z\n";
  for i = 0 to 49 do
    Printf.bprintf buf "%d,s%d,%.3f\n" (i * 5 mod 17) (i mod 6)
      ((float_of_int (i mod 9) /. 4.) -. 1.)
  done;
  tmp_file ".csv" (Buffer.contents buf)

let join_json () =
  let buf = Buffer.create 2048 in
  for i = 0 to 44 do
    let k = if i mod 10 = 3 then "null" else string_of_int (i mod 9) in
    Printf.bprintf buf {|{"k": %s, "y": %.2f, "b": %d}|} k (float_of_int (i mod 7) *. 1.5)
      (i mod 5);
    Buffer.add_char buf '\n'
  done;
  tmp_file ".jsonl" (Buffer.contents buf)

let join_binarray () =
  let path = Filename.temp_file "vida_vec" ".varr" in
  Vida_raw.Binarray.write path ~dims:[ 40 ]
    ~fields:
      [ { Vida_raw.Binarray.name = "k"; is_float = false };
        { Vida_raw.Binarray.name = "w"; is_float = true }
      ]
    (fun i -> [| Value.Int (i mod 11); Value.Float (float_of_int (i mod 6) /. 2.) |]);
  path

let join_nested () =
  let buf = Buffer.create 1024 in
  for i = 0 to 19 do
    Printf.bprintf buf {|{"k": %d, "items": [{"v": %d}, {"v": %d}]}|} (i mod 13) i (i * 2);
    Buffer.add_char buf '\n'
  done;
  tmp_file ".jsonl" (Buffer.contents buf)

let join_registry () =
  let registry = Registry.create () in
  let _ = Registry.register_csv registry ~name:"JC" ~path:(join_csv ()) () in
  let _ = Registry.register_csv registry ~name:"JD" ~path:(join_csv2 ()) () in
  let _ = Registry.register_json registry ~name:"JJ" ~path:(join_json ()) () in
  let _ = Registry.register_binarray registry ~name:"JB" ~path:(join_binarray ()) in
  let _ =
    Registry.register_inline registry ~name:"JI"
      (Value.List
         (List.init 35 (fun i ->
              Value.Record [ ("k", Value.Int (i mod 7)); ("v", Value.Int (i * 3 mod 10)) ])))
  in
  let _ = Registry.register_csv registry ~name:"JE" ~path:(tmp_file ".csv" "k,a\n") () in
  registry

let jctx = Plugins.create_ctx (join_registry ())

(* numeric fields of each join table: (field, is_float) *)
let join_tables =
  [ ("JC", [ ("a", false); ("x", true) ]);
    ("JD", [ ("z", true) ]);
    ("JJ", [ ("y", true); ("b", false) ]);
    ("JB", [ ("w", true) ]);
    ("JI", [ ("v", false) ])
  ]

let rec has_join (p : Plan.t) =
  match p with
  | Plan.Join _ -> true
  | p -> List.exists has_join (Plan.children p)

(* Floats may reassociate when a parallel fold splits its input. *)
let rec agrees a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    Float.equal x y || Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x)
  | Value.Record fa, Value.Record fb ->
    List.length fa = List.length fb
    && List.for_all2 (fun (na, va) (nb, vb) -> String.equal na nb && agrees va vb) fa fb
  | (Value.Bag xs | Value.List xs), (Value.Bag ys | Value.List ys) ->
    List.length xs = List.length ys && List.for_all2 agrees xs ys
  | a, b -> Value.equal a b

let kernel_accepts plan =
  match Vector.compile jctx ~domains:1 plan with
  | `Run _ -> true
  | `Decline _ | `Silent -> false

(* Sequentially the join kernel must equal the closure engine and the
   generic interpreter exactly (order included) and record no fallback;
   inside the parallel engine at 2 and 4 domains it must agree too, and
   answer whenever the kernel accepts the plan. [~kernel] demands that it
   does (the optimizer may leave a Product inside a random plan). *)
let join_agree ?(kernel = false) ~fail q =
  let plan =
    Analysis.neutralize_count (Vida_optimizer.Optimizer.optimize jctx (translate q))
  in
  if not (has_join plan) then fail (q ^ ": optimized plan has no Join");
  let accepted = kernel_accepts plan in
  if kernel && not accepted then fail (q ^ ": outside the join fragment");
  let before = (Vector.stats ()).Vector.fallbacks in
  let vec = outcome (fun () -> Compile.query jctx plan ()) in
  if accepted && (Vector.stats ()).Vector.fallbacks <> before then
    fail
      (Printf.sprintf "%s: join kernel fell back (%s)" q
         (String.concat "; " (Vector.stats ()).Vector.last_fallbacks));
  let clo = outcome (fun () -> with_vector_off (fun () -> Compile.query jctx plan ())) in
  let gen = outcome (fun () -> Interp.query jctx plan ()) in
  if vec <> clo then
    fail (Printf.sprintf "%s: vectorized %s vs closure %s" q (show vec) (show clo));
  if clo <> gen then
    fail (Printf.sprintf "%s: closure %s vs generic %s" q (show clo) (show gen));
  List.iter
    (fun domains ->
      match Parallel.try_query jctx ~domains plan, clo with
      | Some v, Ok expected ->
        let closure = with_vector_off (fun () -> Compile.query jctx plan ()) in
        if not (agrees closure v) then
          fail
            (Printf.sprintf "%s (domains=%d): parallel %s vs closure %s" q domains
               (Value.to_string v) expected)
      | None, _ ->
        if accepted then fail (Printf.sprintf "%s (domains=%d): parallel declined" q domains)
      | Some _, Error _ -> fail (Printf.sprintf "%s (domains=%d): closure failed" q domains)
      | exception Eval.Error m -> (
        match clo with
        | Error m' when String.equal m m' -> ()
        | _ -> fail (Printf.sprintf "%s (domains=%d): parallel raised %s" q domains m)))
    [ 2; 4 ]

type join_case = { jq : string; jbatch : int }

let gen_join_case : join_case QCheck.Gen.t =
  let open QCheck.Gen in
  let* nsrc = int_range 2 3 in
  let* tables = shuffle_l join_tables in
  let picked = List.filteri (fun i _ -> i < nsrc) tables in
  let vars = List.filteri (fun i _ -> i < nsrc) [ "p"; "q"; "r" ] in
  let gens = List.map2 (fun v (t, _) -> Printf.sprintf "%s <- %s" v t) vars picked in
  let keys =
    List.filteri (fun i _ -> i > 0) vars
    |> List.mapi (fun i v -> Printf.sprintf "%s.k = %s.k" (List.nth vars i) v)
  in
  let field_of =
    let* i = int_range 0 (nsrc - 1) in
    let v = List.nth vars i and _, fs = List.nth picked i in
    let* f, is_float = oneofl fs in
    return (v, f, is_float)
  in
  let filter =
    let* v, f, is_float = field_of in
    if is_float then map (Printf.sprintf "%s.%s > %.2f" v f) (map (fun n -> float_of_int n /. 4.) (int_range (-4) 8))
    else map (Printf.sprintf "%s.%s < %d" v f) (int_range (-8) 8)
  in
  let* nfilter = int_range 0 2 in
  let* filters = flatten_l (List.init nfilter (fun _ -> filter)) in
  let* v1, f1, _ = field_of in
  let* v2, f2, _ = field_of in
  let* head =
    oneofl
      [ "count p";
        Printf.sprintf "sum %s.%s" v1 f1;
        Printf.sprintf "avg %s.%s" v1 f1;
        Printf.sprintf "max %s.%s" v2 f2;
        Printf.sprintf "min %s.%s + 1" v1 f1;
        Printf.sprintf "bag %s.%s" v1 f1;
        Printf.sprintf "bag (k := p.k, f := %s.%s, g := %s.%s)" v1 f1 v2 f2;
        Printf.sprintf "list (k := %s.k, f := %s.%s * 2)" v2 v1 f1
      ]
  in
  let* jbatch = oneofl [ 1; 7; default_batch ] in
  let jq =
    Printf.sprintf "for { %s } yield %s" (String.concat ", " (gens @ keys @ filters)) head
  in
  return { jq; jbatch }

let prop_join_engines_agree =
  QCheck.Test.make ~name:"join kernel == closure == generic (4 formats)" ~count:150
    (QCheck.make ~print:(fun c -> Printf.sprintf "%s [batch=%d]" c.jq c.jbatch) gen_join_case)
    (fun c ->
      with_batch c.jbatch (fun () ->
          join_agree ~fail:(fun m -> QCheck.Test.fail_report m) c.jq;
          true))

let test_join_edges () =
  List.iter
    (fun batch ->
      with_batch batch (fun () ->
          List.iter (join_agree ~kernel:true ~fail:Alcotest.fail)
            [ (* empty build and probe sides, by table and by filter *)
              "for { p <- JC, e <- JE, p.k = e.k } yield count p";
              "for { e <- JE, p <- JC, e.k = p.k } yield bag (k := p.k, a := e.a)";
              "for { p <- JC, q <- JJ, p.k = q.k, p.a > 999 } yield sum q.b";
              "for { p <- JC, q <- JJ, p.k = q.k, q.y > 999.0 } yield list (a := p.a)";
              (* NULL keys on both sides, duplicates on both sides *)
              "for { p <- JC, q <- JJ, p.k = q.k } yield bag (k := p.k, a := p.a, y := q.y)";
              "for { p <- JC, q <- JC, p.k = q.k } yield count p";
              (* two keys, a residual and a post-join bind *)
              "for { p <- JC, q <- JJ, p.k = q.k, p.a = q.b } yield count p";
              "for { p <- JC, q <- JJ, p.k = q.k, p.a < q.b } yield sum p.a";
              "for { p <- JC, q <- JB, p.k = q.k, t := p.x + q.w } yield max t";
              (* three-way, both nestings *)
              "for { p <- JC, q <- JJ, r <- JI, p.k = q.k, q.k = r.k } yield bag (a := p.a, y := q.y, v := r.v)";
              "for { p <- JC, q <- JD, r <- JB, p.k = q.k, p.k = r.k, r.w > 0.5 } yield avg q.z"
            ]))
    [ 1; 7; default_batch ]

(* a string or float key is a detail the kernel declines: one recorded
   fallback naming the key, and the closure engine's answer *)
let test_join_declines () =
  let db = Vida.create () in
  Vida.csv db ~name:"JC" ~path:(join_csv ()) ();
  Vida.csv db ~name:"JD" ~path:(join_csv2 ()) ();
  Vida.json db ~name:"JN" ~path:(join_nested ()) ();
  let fallbacks q =
    match Vida.query ~reuse:false db q with
    | Error e -> Alcotest.failf "%s failed: %s" q (Vida.error_to_string e)
    | Ok r ->
      let closure = with_vector_off (fun () -> Vida.query_value db q) in
      check_value (q ^ " answers as the closure engine") closure r.Vida.value;
      List.filter (fun f -> f.G.stage = "vectorized->closure") r.Vida.governor.G.fallbacks
  in
  List.iter
    (fun (q, key) ->
      match fallbacks q with
      | [ f ] ->
        check_bool (q ^ " names the key") true
          (Astring.String.is_infix ~affix:key f.G.reason)
      | fs -> Alcotest.failf "%s: %d fallbacks, expected 1" q (List.length fs))
    [ ("for { p <- JC, q <- JD, p.s = q.s } yield count p", "join key");
      ("for { p <- JC, q <- JD, p.x = q.z } yield count p", "join key")
    ];
  check_bool "an unnest join records no fallback" true
    (fallbacks "for { p <- JC, b <- JN, i <- b.items, p.k = b.k } yield sum i.v" = [])

(* --- directed edge cases ----------------------------------------------- *)

let directed_agree ?(batch = 4) q =
  with_batch batch (fun () -> engines_agree ~fail:Alcotest.fail q)

let test_empty_source () =
  let registry = Registry.create () in
  let _ = Registry.register_csv registry ~name:"E" ~path:(tmp_file ".csv" "a,x\n") () in
  let ctx = Plugins.create_ctx registry in
  List.iter
    (fun q ->
      let plan = plan_of q in
      let vec = outcome (fun () -> Compile.query ctx plan ()) in
      let clo = outcome (fun () -> with_vector_off (fun () -> Compile.query ctx plan ())) in
      check_value q (Value.String (show clo)) (Value.String (show vec)))
    [ "for { p <- E } yield sum p.a";
      "for { p <- E } yield count p";
      "for { p <- E } yield max p.x";
      "for { p <- E } yield avg p.x"
    ]

let test_all_filtered () =
  (* predicates that reject every row: the kernel still walks every batch
     (cooperative polls happen) but never pushes into the accumulator *)
  Vector.reset_stats ();
  directed_agree ~batch:64 "for { p <- VC, p.a > 9999 } yield sum p.x";
  directed_agree ~batch:64 "for { p <- VC, p.a > 9999 } yield count p";
  directed_agree ~batch:64 "for { p <- VC, p.a > 9999 } yield all p.a > 0";
  check_bool "batches were still executed" true ((Vector.stats ()).Vector.batches > 0)

let test_nan_inf () =
  let csv = "x\nnan\ninf\n-inf\n1.5\nnan\n-2.25\n" in
  let registry = Registry.create () in
  let _ = Registry.register_csv registry ~name:"N" ~path:(tmp_file ".csv" csv) () in
  let ctx = Plugins.create_ctx registry in
  Vector.reset_stats ();
  List.iter
    (fun q ->
      let plan = plan_of q in
      let vec = outcome (fun () -> Compile.query ctx plan ()) in
      let clo = outcome (fun () -> with_vector_off (fun () -> Compile.query ctx plan ())) in
      let gen = outcome (fun () -> Interp.query ctx plan ()) in
      check_value (q ^ " vec=closure") (Value.String (show clo)) (Value.String (show vec));
      check_value (q ^ " closure=generic") (Value.String (show gen)) (Value.String (show clo)))
    [ "for { p <- N } yield max p.x";
      "for { p <- N } yield min p.x";
      "for { p <- N } yield sum p.x";
      "for { p <- N, p.x > 0.0 } yield count p";
      (* NaN under the total order: NaN = NaN holds, as in Value.compare *)
      "for { p <- N, p.x = p.x } yield count p"
    ];
  check_bool "NaN columns vectorized, not declined" true
    ((Vector.stats ()).Vector.batches > 0)

let test_division_errors_match () =
  (* b hits 0: integer division by zero must surface identically from the
     fused kernel, the closure engine and the reference interpreter *)
  directed_agree "for { p <- VC } yield sum p.b / p.b";
  directed_agree "for { p <- VC, p.b > 0 } yield sum p.a / p.b"

let test_quarantined_record_mid_batch () =
  (* a malformed record in the middle of the scan: under Skip_row the
     source has no columnar view, so the vectorized rung declines at run
     time and the ladder drops to the closure engine — same answer, and
     the governor report names the rung *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "v\n";
  for i = 1 to 60 do
    if i = 30 then Buffer.add_string buf "oops\n"
    else Printf.bprintf buf "%d\n" i
  done;
  let db = Vida.create () in
  Vida.csv db ~name:"Q" ~path:(tmp_file ".csv" (Buffer.contents buf))
    ~schema:(Schema.of_pairs [ ("v", Ty.Int) ]) ();
  Vida.set_cleaning db ~source:"Q" (Policy.make ~on_error:Policy.Skip_row ());
  with_batch 8 (fun () ->
      match Vida.query ~reuse:false db "for { p <- Q } yield sum p.v" with
      | Error e -> Alcotest.failf "query failed: %s" (Vida.error_to_string e)
      | Ok r ->
        check_value "bad row skipped" (Value.Int 1800) r.Vida.value;
        check_bool "ladder dropped to closure" true
          (List.exists
             (fun f -> f.G.stage = "vectorized->closure")
             r.Vida.governor.G.fallbacks))

let test_cancellation_at_batch_boundary () =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "v\n";
  for i = 1 to 2000 do
    Printf.bprintf buf "%d\n" i
  done;
  let contents = Buffer.contents buf in
  let cancelled_with ~batch ~polls =
    let db = Vida.create () in
    Vida.csv db ~name:"P" ~path:(tmp_file ".csv" contents) ();
    with_batch batch (fun () ->
        let s = G.start ~name:"vec-cancel" () in
        G.cancel_after_polls s ~polls;
        match G.with_session s (fun () -> Vida.query ~reuse:false db "for { p <- P } yield sum p.v") with
        | Error (Vida.Data_error (Vida_error.Cancelled _)) -> ()
        | Ok _ -> Alcotest.failf "tripped token ignored (batch=%d)" batch
        | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e))
  in
  (* small batches: the token trips mid-scan, at a batch boundary *)
  cancelled_with ~batch:16 ~polls:100;
  (* one huge batch: polls advance by the whole batch, so the check still
     fires at the first boundary rather than being skipped *)
  cancelled_with ~batch:65536 ~polls:100

let test_fallback_ladder () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "v,name\n";
  for i = 1 to 50 do
    Printf.bprintf buf "%d,n%03d\n" i i
  done;
  let db = Vida.create () in
  Vida.csv db ~name:"L" ~path:(tmp_file ".csv" (Buffer.contents buf)) ();
  let run q =
    match Vida.query ~reuse:false db q with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s failed: %s" q (Vida.error_to_string e)
  in
  let has_stage r stage =
    List.exists (fun f -> f.G.stage = stage) r.Vida.governor.G.fallbacks
  in
  (* rung 1 — vectorized: batches recorded, no fallback *)
  let r = run "for { p <- L } yield sum p.v" in
  check_value "vectorized sum" (Value.Int 1275) r.Vida.value;
  check_bool "vectorized rung ran batches" true (r.Vida.governor.G.batches > 0);
  check_bool "no vectorized fallback" false (has_stage r "vectorized->closure");
  (* rung 2 — closure: a string column has no unboxed kernel, so the
     vectorized rung declines and the report names the drop *)
  let r = run "for { p <- L } yield max p.name" in
  check_value "closure max" (Value.String "n050") r.Vida.value;
  check_bool "vectorized->closure recorded" true (has_stage r "vectorized->closure");
  check_bool "no batches on the closure rung" true (r.Vida.governor.G.batches = 0);
  (* rung 3 — generic: an injected JIT failure drops the whole compiled
     tier, vectorized included *)
  let r =
    Vida_raw.Fault_plan.(with_plan [ Jit_compile { fail = 1 } ]) (fun () ->
        run "for { p <- L } yield sum p.v")
  in
  check_value "generic sum" (Value.Int 1275) r.Vida.value;
  check_bool "jit->generic recorded" true (has_stage r "jit->generic")

let test_disabled_switch () =
  (* the kill switch routes everything through the closure engine without
     noise: same answers, no kernels *)
  Vector.reset_stats ();
  with_vector_off (fun () ->
      let plan = plan_of "for { p <- VC, p.a > 0 } yield sum p.x" in
      let off = Compile.query ctx plan () in
      check_value "disabled agrees" (Interp.query ctx plan ()) off);
  check_bool "no batches while disabled" true ((Vector.stats ()).Vector.batches = 0)

let () =
  (* the fixtures are tiny; lower the morsel floor so the parallel legs of
     the differential property are not vacuous *)
  Vida_raw.Morsel.set_min_parallel_rows 1;
  Vida_raw.Morsel.set_min_parallel_bytes 0;
  Alcotest.run "vida_vector"
    [ ("random", [ QCheck_alcotest.to_alcotest prop_engines_agree ]);
      ( "edge cases",
        [ Alcotest.test_case "empty source" `Quick test_empty_source;
          Alcotest.test_case "all-filtered batches" `Quick test_all_filtered;
          Alcotest.test_case "nan and inf" `Quick test_nan_inf;
          Alcotest.test_case "division errors match" `Quick test_division_errors_match;
          Alcotest.test_case "quarantined record mid-batch" `Quick
            test_quarantined_record_mid_batch;
          Alcotest.test_case "cancellation at batch boundary" `Quick
            test_cancellation_at_batch_boundary;
          Alcotest.test_case "disabled switch" `Quick test_disabled_switch
        ] );
      ("join", [ QCheck_alcotest.to_alcotest prop_join_engines_agree;
                 Alcotest.test_case "join edges" `Quick test_join_edges;
                 Alcotest.test_case "join declines" `Quick test_join_declines ]);
      ( "ladder",
        [ Alcotest.test_case "vectorized -> closure -> generic" `Quick
          test_fallback_ladder ] )
    ]
