(* Parallel-execution suite: the morsel-driven engine must be
   indistinguishable from the sequential engines in every observable way —
   values (including collection order), typed errors (cancellation, budget),
   auxiliary structures (byte-identical parallel builds), cache statistics
   under concurrent admission. See DESIGN.md §8. *)

open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
open Vida_engine
module G = Vida_governor.Governor
module Morsel = Vida_raw.Morsel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_value msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

let tmp_file suffix contents =
  let path = Filename.temp_file "vida_par" suffix in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

(* the fixtures are tiny: drop the work-size floors so the parallel paths
   actually engage, and restore them afterwards *)
let with_tiny_floors f =
  Morsel.set_min_parallel_rows 1;
  Morsel.set_min_parallel_bytes 0;
  Fun.protect
    ~finally:(fun () ->
      Morsel.set_min_parallel_rows 2048;
      Morsel.set_min_parallel_bytes (256 * 1024))
    f

let plan_of s = Translate.plan_of_comp (Rewrite.normalize (Parser.parse_exn s))

(* --- parallel vs sequential across every columnar format --- *)

let csv_contents n =
  let b = Buffer.create 1024 in
  Buffer.add_string b "id,age,city,score\n";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "%d,%d,%s,%.2f\n" i (18 + (i mod 60))
         (match i mod 3 with 0 -> "geneva" | 1 -> "zurich" | _ -> "basel")
         (float_of_int (i mod 17) /. 1.7))
  done;
  Buffer.contents b

let jsonl_contents n =
  let b = Buffer.create 1024 in
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "{\"id\": %d, \"volume\": %.1f, \"region\": \"%s\"}\n" i
         (float_of_int (i mod 23))
         (if i mod 2 = 0 then "cortex" else "hippocampus"))
  done;
  Buffer.contents b

let xml_contents n =
  let b = Buffer.create 1024 in
  Buffer.add_string b "<patients>\n";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "  <patient id=\"%d\"><age>%d</age></patient>\n" i
         (18 + (i mod 60)))
  done;
  Buffer.add_string b "</patients>\n";
  Buffer.contents b

let make_registry () =
  let registry = Registry.create () in
  let _ =
    Registry.register_csv registry ~name:"People"
      ~path:(tmp_file ".csv" (csv_contents 97)) ()
  in
  let _ =
    Registry.register_json registry ~name:"Regions"
      ~path:(tmp_file ".jsonl" (jsonl_contents 53)) ()
  in
  let _ =
    Registry.register_xml registry ~name:"Px"
      ~path:(tmp_file ".xml" (xml_contents 41)) ()
  in
  let ba_path = Filename.temp_file "vida_par" ".varr" in
  Vida_raw.Binarray.write ba_path ~dims:[ 64 ]
    ~fields:[ { Vida_raw.Binarray.name = "v"; is_float = false };
              { Vida_raw.Binarray.name = "w"; is_float = true } ]
    (fun cell -> [| Value.Int cell; Value.Float (float_of_int (cell mod 5)) |]);
  let _ = Registry.register_binarray registry ~name:"Cells" ~path:ba_path in
  let _ =
    Registry.register_inline registry ~name:"Inline"
      (Value.List
         (List.init 40 (fun i ->
              Value.Record
                [ ("k", Value.Int i); ("half", Value.Float (float_of_int i /. 2.)) ])))
  in
  registry

let queries =
  [ "for { p <- People } yield sum p.age";
    "for { p <- People, p.age > 40 } yield count p";
    "for { p <- People, x := p.age * 2, x > 90 } yield max x";
    "for { p <- People } yield avg p.score";
    "for { p <- People } yield set p.city";
    (* collection monoids must come back in source order *)
    "for { p <- People, p.age > 40 } yield list p.id";
    "for { p <- People } yield bag p.city";
    "for { r <- Regions } yield max r.volume";
    "for { r <- Regions, r.volume > 11.0 } yield count r";
    "for { r <- Regions } yield list r.id";
    "for { x <- Px, x.age > 40 } yield sum x.age";
    "for { x <- Px } yield count x";
    "for { c <- Cells, c.v > 10 } yield sum c.v";
    "for { c <- Cells } yield avg c.w";
    "for { i <- Inline, i.k > 7 } yield sum i.half";
    "for { i <- Inline } yield list i.k";
    (* equi-join reduce: the join kernel's probe runs in morsels *)
    "for { p <- People, c <- Cells, p.id = c.v } yield count p";
    "for { p <- People, c <- Cells, p.id = c.v, c.w > 1.0 } yield sum p.age";
    "for { p <- People, r <- Regions, p.id = r.id } yield list p.id"
  ]

(* the morsel split reassociates float additions: sums/averages of
   non-representable fractions may differ in the last ulps *)
let rec agrees a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x)
  | Value.Record fa, Value.Record fb ->
    List.length fa = List.length fb
    && List.for_all2
         (fun (na, va) (nb, vb) -> String.equal na nb && agrees va vb)
         fa fb
  | (Value.Bag xs | Value.List xs), (Value.Bag ys | Value.List ys) ->
    List.length xs = List.length ys && List.for_all2 agrees xs ys
  | a, b -> Value.equal a b

let test_differential_formats () =
  with_tiny_floors @@ fun () ->
  let ctx = Plugins.create_ctx (make_registry ()) in
  List.iter
    (fun q ->
      (* the plan the facade runs: optimized (joins leave the translator's
         Select-over-Product form) and with the count head rewritten *)
      let plan =
        Analysis.neutralize_count (Vida_optimizer.Optimizer.optimize ctx (plan_of q))
      in
      let sequential = Compile.query ctx plan () in
      List.iter
        (fun d ->
          match Parallel.try_query ctx ~domains:d plan with
          | None -> Alcotest.failf "expected parallel support (d=%d) for %s" d q
          | Some parallel ->
            if not (agrees sequential parallel) then
              Alcotest.failf "d=%d disagrees on %s: %s vs %s" d q
                (Value.to_string sequential) (Value.to_string parallel))
        [ 2; 3; 4; 8 ])
    queries

(* the full facade honors the domain budget: same results, and the
   sequential fallback stays authoritative for unsupported shapes *)
let test_vida_facade_domains () =
  with_tiny_floors @@ fun () ->
  let make d =
    let db = Vida.create () in
    Vida.set_domains db d;
    Vida.csv db ~name:"People" ~path:(tmp_file ".csv" (csv_contents 97)) ();
    Vida.json db ~name:"Regions" ~path:(tmp_file ".jsonl" (jsonl_contents 53)) ();
    Vida.inline db ~name:"Nums"
      (Value.List
         (List.init 30 (fun i -> Value.Record [ ("k", Value.Int (i * 7 mod 13)) ])));
    db
  in
  let db1 = make 1 and db4 = make 4 in
  check_int "budget recorded" 4 (Vida.domains db4);
  List.iter
    (fun q ->
      check_value q (Vida.query_value db1 q) (Vida.query_value db4 q))
    [ "for { p <- People } yield sum p.age";
      (* a CSV source types as a bag, so the facade only accepts
         commutative accumulators over it; ordered collection is
         exercised through the list-typed inline source *)
      "for { p <- People, p.age > 40 } yield bag p.id";
      "for { n <- Nums, n.k > 3 } yield list n.k";
      "for { r <- Regions } yield max r.volume";
      (* grouping is outside the parallel fragment: falls back, same answer *)
      "for { p <- People } yield count p.city"
    ]

(* --- work and fallbacks do not depend on the domain count --- *)

(* 42 columns: the string [city], the float [score], then int columns *)
let wide_csv rows =
  let b = Buffer.create (rows * 128) in
  Buffer.add_string b "id,city,score";
  for c = 3 to 41 do
    Buffer.add_string b (Printf.sprintf ",c%d" c)
  done;
  Buffer.add_char b '\n';
  for i = 1 to rows do
    Buffer.add_string b
      (Printf.sprintf "%d,%s,%.1f" i
         (match i mod 3 with 0 -> "geneva" | 1 -> "zurich" | _ -> "basel")
         (float_of_int (i mod 7)));
    for c = 3 to 41 do
      Buffer.add_string b (Printf.sprintf ",%d" ((i * c) mod 101))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let other_csv rows =
  let b = Buffer.create (rows * 32) in
  Buffer.add_string b "id,tag,f\n";
  for i = 1 to rows do
    Buffer.add_string b
      (Printf.sprintf "%d,%s,%.1f\n" (2 * i)
         (if i mod 2 = 0 then "geneva" else "bern")
         (float_of_int (i mod 5)))
  done;
  Buffer.contents b

let nested_jsonl rows =
  let b = Buffer.create (rows * 32) in
  for i = 1 to rows do
    Buffer.add_string b
      (Printf.sprintf "{\"id\": %d, \"ids\": [%d, %d]}\n" i (3 * i) ((3 * i) + 1))
  done;
  Buffer.contents b

let wide_path = lazy (tmp_file ".csv" (wide_csv 300))
let other_path = lazy (tmp_file ".csv" (other_csv 120))
let nested_path = lazy (tmp_file ".jsonl" (nested_jsonl 60))

(* a fresh instance per call, so every query starts from cold caches *)
let wide_db d =
  let db = Vida.create () in
  Vida.set_domains db d;
  Vida.csv db ~name:"Wide" ~path:(Lazy.force wide_path) ();
  Vida.csv db ~name:"Other" ~path:(Lazy.force other_path) ();
  Vida.json db ~name:"Nested" ~path:(Lazy.force nested_path) ();
  db

let run_fresh ?engine d q =
  match Vida.query ?engine ~reuse:false (wide_db d) q with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s (domains=%d): %s" q d (Vida.error_to_string e)

let stages (r : Vida.result) =
  List.map (fun (f : G.fallback) -> f.G.stage) r.Vida.governor.G.fallbacks

(* [count p] reads only the fields the rest of the query needs, whatever
   the domain count; the Generic foil keeps the whole-record need *)
let test_counters_domain_independent () =
  with_tiny_floors @@ fun () ->
  List.iter
    (fun q ->
      let r1 = run_fresh 1 q and r4 = run_fresh 4 q in
      check_value q r1.Vida.value r4.Vida.value;
      let io1 = r1.Vida.raw_io and io4 = r4.Vida.raw_io in
      check_int (q ^ ": values converted")
        io1.Vida_raw.Io_stats.values_converted io4.Vida_raw.Io_stats.values_converted;
      check_int (q ^ ": bytes read")
        io1.Vida_raw.Io_stats.bytes_read io4.Vida_raw.Io_stats.bytes_read;
      let generic = run_fresh ~engine:Vida.Generic 1 q in
      check_value (q ^ ": generic") r1.Vida.value generic.Vida.value;
      check_bool (q ^ ": generic converts every Wide column") true
        (generic.Vida.raw_io.Vida_raw.Io_stats.values_converted >= 300 * 42);
      check_bool (q ^ ": the JIT converts fewer") true
        (io1.Vida_raw.Io_stats.values_converted < 300 * 42))
    [ "for { p <- Wide, p.city = \"geneva\" } yield count p";
      "for { p <- Wide, o <- Other, p.id = o.id } yield count p" ]

(* joins the kernel declines (string and float keys) go to the closure
   engine at every domain count, with one recorded fallback; an unnest
   join is outside the kernels' fragment and records none *)
let test_declined_joins_domains () =
  with_tiny_floors @@ fun () ->
  let agree ~fallbacks q =
    let r1 = run_fresh 1 q in
    List.iter
      (fun d ->
        let r = run_fresh d q in
        check_value (Printf.sprintf "%s (domains=%d)" q d) r1.Vida.value r.Vida.value;
        Alcotest.(check (list string))
          (Printf.sprintf "%s (domains=%d): fallbacks" q d)
          fallbacks (stages r))
      [ 1; 2; 4 ]
  in
  agree ~fallbacks:[ "vectorized->closure" ]
    "for { p <- Wide, o <- Other, p.city = o.tag } yield count p";
  agree ~fallbacks:[ "vectorized->closure" ]
    "for { p <- Wide, o <- Other, p.score = o.f } yield sum p.c3";
  agree ~fallbacks:[] "for { n <- Nested, x <- n.ids, p <- Wide, p.id = x } yield count p"

(* --- parallel auxiliary-structure builds are byte-identical --- *)

let awkward_csv =
  (* quoted fields containing newlines and delimiters, \r\n endings, empty
     lines, and a trailing row without a newline *)
  "id,note\r\n\
   1,\"line one\nline two\"\r\n\
   2,plain\n\
   3,\"comma, inside\"\n\
   \n\
   4,\"ends \"\"quoted\"\"\"\n\
   5,last"

let test_parallel_posmap_build () =
  with_tiny_floors @@ fun () ->
  let path = tmp_file ".csv" awkward_csv in
  let seq = Vida_raw.Positional_map.build ~domains:1 (Vida_raw.Raw_buffer.of_path path) in
  let par = Vida_raw.Positional_map.build ~domains:4 (Vida_raw.Raw_buffer.of_path path) in
  check_int "row counts equal" (Vida_raw.Positional_map.row_count seq)
    (Vida_raw.Positional_map.row_count par);
  for row = 0 to Vida_raw.Positional_map.row_count seq - 1 do
    let s = Vida_raw.Positional_map.row_bounds seq row
    and p = Vida_raw.Positional_map.row_bounds par row in
    check_bool (Printf.sprintf "row %d bounds equal" row) true (s = p);
    check_bool
      (Printf.sprintf "row %d fields equal" row)
      true
      (Vida_raw.Positional_map.fields seq ~row ~cols:[ 0; 1 ]
      = Vida_raw.Positional_map.fields par ~row ~cols:[ 0; 1 ])
  done

let test_parallel_semi_index_build () =
  with_tiny_floors @@ fun () ->
  let path = tmp_file ".jsonl" (jsonl_contents 57 ^ "\n\n" ^ jsonl_contents 3) in
  let seq = Vida_raw.Semi_index.build ~domains:1 (Vida_raw.Raw_buffer.of_path path) in
  let par = Vida_raw.Semi_index.build ~domains:4 (Vida_raw.Raw_buffer.of_path path) in
  check_int "object counts equal" (Vida_raw.Semi_index.object_count seq)
    (Vida_raw.Semi_index.object_count par);
  for i = 0 to Vida_raw.Semi_index.object_count seq - 1 do
    check_bool
      (Printf.sprintf "object %d bounds equal" i)
      true
      (Vida_raw.Semi_index.object_bounds seq i = Vida_raw.Semi_index.object_bounds par i);
    check_value
      (Printf.sprintf "object %d value equal" i)
      (Vida_raw.Semi_index.object_value seq i)
      (Vida_raw.Semi_index.object_value par i)
  done

(* --- governed execution inside worker domains --- *)

let big_csv rows =
  let b = Buffer.create (rows * 16) in
  Buffer.add_string b "id,age,v\n";
  for i = 1 to rows do
    Buffer.add_string b
      (Printf.sprintf "%d,%d,%.3f\n" i (18 + (i mod 80)) (float_of_int (i mod 97) /. 9.7))
  done;
  Buffer.contents b

(* a cancellation token tripped mid-morsel must cancel the whole parallel
   region with the structured error, and leave the session re-usable *)
let test_cancellation_mid_morsel () =
  with_tiny_floors @@ fun () ->
  let db = Vida.create () in
  Vida.set_domains db 4;
  Vida.csv db ~name:"P" ~path:(tmp_file ".csv" (big_csv 4000)) ();
  let q = "for { p <- P, p.age > 40 } yield count p" in
  let expected = Vida.query_value db q in
  (* caches are warm now: the next run folds decoded columns on domains,
     and the token trips inside that fold *)
  let s = G.start ~name:"cancel-parallel" () in
  G.cancel_after_polls s ~polls:50;
  (match G.with_session s (fun () -> Vida.query ~reuse:false db q) with
  | Error (Vida.Data_error (Vida_error.Cancelled _)) -> ()
  | Ok _ -> Alcotest.fail "tripped token did not cancel the parallel fold"
  | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e));
  check_value "re-query correct after cancellation" expected (Vida.query_value db q)

(* a memory budget exhausted by a worker domain (join build snapshots are
   charged from whichever domain materializes them) must surface the same
   typed error the sequential engine raises *)
let test_budget_exhausted_in_domain () =
  with_tiny_floors @@ fun () ->
  let limits = { G.unlimited with G.memory_budget = Some 256 } in
  let run d =
    let db = Vida.create ~limits () in
    Vida.set_domains db d;
    Vida.csv db ~name:"P" ~path:(tmp_file ".csv" (big_csv 2000)) ();
    match Vida.query db "for { a <- P, b <- P, a.id = b.id } yield count a" with
    | Error (Vida.Data_error e) -> Vida_error.kind_name e
    | Ok _ -> Alcotest.fail "self-join fit a 256-byte budget"
    | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e)
  in
  let sequential = run 1 and parallel = run 4 in
  Alcotest.(check string) "same typed error" sequential parallel;
  check_bool "budget error" true (String.equal parallel "budget")

(* --- cache statistics under concurrent admission --- *)

let test_cache_stats_concurrent () =
  let module C = Vida_storage.Cache in
  let cache = C.create ~capacity_bytes:(1 lsl 20) () in
  let key i = { C.source = "s"; item = Printf.sprintf "col%d" (i mod 16); layout = Vida_storage.Layout.Values } in
  let payload = C.Values (Array.init 32 (fun j -> Value.Int j)) in
  let tasks = 8 and per_task = 200 in
  let _ =
    Morsel.run ~domains:4 ~tasks (fun t ->
        for j = 0 to per_task - 1 do
          let k = key ((t * per_task) + j) in
          (match C.find cache k with
          | Some _ -> ()
          | None -> ignore (C.put cache k payload));
          ignore (C.mem cache k)
        done)
  in
  let s = C.stats cache in
  (* every find counted exactly once, under the lock *)
  check_int "finds all accounted" (tasks * per_task) (s.C.hits + s.C.misses);
  check_bool "some hits" true (s.C.hits > 0);
  (* at most one resident entry per distinct key, all bytes accounted *)
  check_bool "entries bounded by distinct keys" true (s.C.entries <= 16);
  check_int "resident bytes = entries * payload"
    (s.C.entries * C.payload_bytes payload)
    s.C.resident_bytes;
  check_bool "within capacity" true (s.C.resident_bytes <= 1 lsl 20);
  C.clear cache;
  let s = C.stats cache in
  check_int "clear empties entries" 0 s.C.entries;
  check_int "clear empties bytes" 0 s.C.resident_bytes

let () =
  Alcotest.run "parallel"
    [ ( "differential",
        [ Alcotest.test_case "formats x domain counts" `Quick test_differential_formats;
          Alcotest.test_case "vida facade budgets" `Quick test_vida_facade_domains;
          Alcotest.test_case "counters across domain counts" `Quick
            test_counters_domain_independent;
          Alcotest.test_case "declined joins across domain counts" `Quick
            test_declined_joins_domains
        ] );
      ( "aux builds",
        [ Alcotest.test_case "positional map" `Quick test_parallel_posmap_build;
          Alcotest.test_case "semi-index" `Quick test_parallel_semi_index_build
        ] );
      ( "governed",
        [ Alcotest.test_case "cancellation mid-morsel" `Quick test_cancellation_mid_morsel;
          Alcotest.test_case "budget in domain" `Quick test_budget_exhausted_in_domain
        ] );
      ( "cache",
        [ Alcotest.test_case "stats under concurrency" `Quick test_cache_stats_concurrent ]
      )
    ]
