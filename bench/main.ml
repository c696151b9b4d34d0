(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the experiment index).

     dune exec bench/main.exe                 # everything, small scale
     dune exec bench/main.exe -- figure5      # one experiment
     VIDA_SF=0.05 VIDA_QUERIES=150 dune exec bench/main.exe -- figure5

   Experiments: table2 figure5 figure4 ablation-jit ablation-posmap
   ablation-cache micro *)

open Vida_data
open Vida_workload

let sf =
  match Sys.getenv_opt "VIDA_SF" with
  | Some s -> float_of_string s
  | None -> 0.1

let n_queries =
  match Sys.getenv_opt "VIDA_QUERIES" with
  | Some s -> int_of_string s
  | None -> 150

let data_dir = Filename.concat (Filename.get_temp_dir_name ()) "vida_bench_data"

(* monotonic wall clock in seconds: CPU time ([Sys.time]) over-counts
   multi-domain work (it sums all cores) and would hide real speedups *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* the [p]-quantile of an ascending array, [nan] when empty *)
let percentile sorted p =
  if Array.length sorted = 0 then nan
  else sorted.(min (Array.length sorted - 1)
                 (int_of_float (p *. float_of_int (Array.length sorted))))

(* process CPU seconds, reported alongside wall time where parallel
   efficiency matters *)
let cpu_s = Sys.time

(* every BENCH_*.json records how much parallelism this run actually had:
   the domain budget resolved at startup (VIDA_DOMAINS included) and what
   the runtime would recommend on this machine *)
let domains_meta_fields =
  Printf.sprintf
    "  \"resolved_domains\": %d,\n  \"recommended_domains\": %d,\n"
    (Vida_raw.Morsel.resolve ()) (Domain.recommended_domain_count ())

let config = lazy (Hbp_data.config_of_scale sf)
let paths = lazy (Hbp_data.generate (Lazy.force config) ~dir:data_dir)
let queries = lazy (Hbp_queries.workload ~n:n_queries (Lazy.force config))

let section name =
  Printf.printf "\n================ %s ================\n%!" name

(* ------------------------------------------------------------------ *)
(* Table 2: workload characteristics                                   *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: workload characteristics";
  Printf.printf "(scale factor %.3f; paper sizes: Patients 41718x156 29MB, \
                 Genetics 51858x17832 1.8GB, BrainRegions 17000 objects 5.3GB)\n\n"
    sf;
  Printf.printf "%-14s %10s %12s %12s  %s\n" "Relation" "Tuples" "Attributes" "Size"
    "Type";
  List.iter
    (fun r ->
      Printf.printf "%-14s %10d %12d %10.1fKB  %s\n" r.Hbp_data.name r.Hbp_data.tuples
        r.Hbp_data.attributes
        (float_of_int r.Hbp_data.bytes /. 1024.)
        r.Hbp_data.kind)
    (Hbp_data.table2 (Lazy.force config) (Lazy.force paths))

(* ------------------------------------------------------------------ *)
(* Figure 5: cumulative preparation + 150-query execution              *)
(* ------------------------------------------------------------------ *)

type fig5_row = {
  system : string;
  flatten_s : float;
  load_s : float;
  queries_s : float;
  space_bytes : int;
}

let plan_for text =
  match Vida_calculus.Parser.parse text with
  | Error msg -> failwith ("bench query parse error: " ^ msg)
  | Ok e ->
    Vida_optimizer.Rules.apply
      (Vida_algebra.Translate.plan_of_comp (Vida_calculus.Rewrite.normalize e))

let run_vida () =
  let p = Lazy.force paths in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:p.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:p.Hbp_data.genetics ();
  Vida.json db ~name:"BrainRegions" ~path:p.Hbp_data.regions ();
  let _, queries_s =
    time (fun () ->
        List.iter
          (fun q ->
            match Vida.query db q.Hbp_queries.text with
            | Ok _ -> ()
            | Error e ->
              failwith
                (Printf.sprintf "ViDa failed on q%d: %s" q.Hbp_queries.id
                   (Vida.error_to_string e)))
          (Lazy.force queries))
  in
  let s = Vida.stats db in
  ( { system = "ViDa"; flatten_s = 0.; load_s = 0.; queries_s; space_bytes = 0 },
    s )

let flat_csv_path = Filename.concat data_dir "brainregions_flat.csv"

let run_warehouse kind =
  let p = Lazy.force paths in
  let name = match kind with `Col -> "Col.Store" | `Row -> "RowStore" in
  (* phase 1: flatten the JSON *)
  let flat_schema, flatten_s =
    time (fun () ->
        Vida_baseline.Flatten.to_csv_file ~sep:"_"
          (Vida_raw.Raw_buffer.of_path p.Hbp_data.regions)
          ~path:flat_csv_path)
  in
  (* phase 2: load everything *)
  let run_q, space, load_s =
    match kind with
    | `Col ->
      let store = Vida_baseline.Colstore.create () in
      let (), load_s =
        time (fun () ->
            Vida_baseline.Loader.csv_into_colstore store ~name:"Patients"
              (Vida_raw.Raw_buffer.of_path p.Hbp_data.patients);
            Vida_baseline.Loader.csv_into_colstore store ~name:"Genetics"
              (Vida_raw.Raw_buffer.of_path p.Hbp_data.genetics);
            Vida_baseline.Loader.csv_into_colstore store ~name:"BrainRegionsFlat"
              ~schema:flat_schema
              (Vida_raw.Raw_buffer.of_path flat_csv_path))
      in
      ( Vida_baseline.Colstore.run store,
        Vida_baseline.Colstore.storage_bytes store,
        load_s )
    | `Row ->
      let store = Vida_baseline.Rowstore.create () in
      let (), load_s =
        time (fun () ->
            Vida_baseline.Loader.csv_into_rowstore store ~name:"Patients"
              (Vida_raw.Raw_buffer.of_path p.Hbp_data.patients);
            Vida_baseline.Loader.csv_into_rowstore store ~name:"Genetics"
              (Vida_raw.Raw_buffer.of_path p.Hbp_data.genetics);
            Vida_baseline.Loader.csv_into_rowstore store ~name:"BrainRegionsFlat"
              ~schema:flat_schema
              (Vida_raw.Raw_buffer.of_path flat_csv_path))
      in
      ( Vida_baseline.Rowstore.run store,
        Vida_baseline.Rowstore.storage_bytes store,
        load_s )
  in
  (* phase 3: the queries, against the flattened schema *)
  let _, queries_s =
    time (fun () ->
        List.iter
          (fun q -> ignore (run_q (plan_for q.Hbp_queries.flat_text)))
          (Lazy.force queries))
  in
  { system = name; flatten_s; load_s; queries_s; space_bytes = space }

let run_mediator kind =
  let p = Lazy.force paths in
  let name =
    match kind with `Col -> "Col.Store+Mongo" | `Row -> "RowStore+Mongo"
  in
  let docs = Vida_baseline.Docstore.create () in
  let relational, load_rel =
    match kind with
    | `Col ->
      let store = Vida_baseline.Colstore.create () in
      let (), t =
        time (fun () ->
            Vida_baseline.Loader.csv_into_colstore store ~name:"Patients"
              (Vida_raw.Raw_buffer.of_path p.Hbp_data.patients);
            Vida_baseline.Loader.csv_into_colstore store ~name:"Genetics"
              (Vida_raw.Raw_buffer.of_path p.Hbp_data.genetics))
      in
      (Vida_baseline.Mediator.Col store, t)
    | `Row ->
      let store = Vida_baseline.Rowstore.create () in
      let (), t =
        time (fun () ->
            Vida_baseline.Loader.csv_into_rowstore store ~name:"Patients"
              (Vida_raw.Raw_buffer.of_path p.Hbp_data.patients);
            Vida_baseline.Loader.csv_into_rowstore store ~name:"Genetics"
              (Vida_raw.Raw_buffer.of_path p.Hbp_data.genetics))
      in
      (Vida_baseline.Mediator.Row store, t)
  in
  (* "Mongo" import (no flattening needed, but a full parse + re-encode) *)
  let _, load_docs =
    time (fun () ->
        Vida_baseline.Docstore.import_jsonl docs ~name:"BrainRegions"
          (Vida_raw.Raw_buffer.of_path p.Hbp_data.regions))
  in
  let m = Vida_baseline.Mediator.create relational docs in
  Vida_baseline.Mediator.place m ~source:"Patients" `Rel;
  Vida_baseline.Mediator.place m ~source:"Genetics" `Rel;
  Vida_baseline.Mediator.place m ~source:"BrainRegions" `Doc;
  let _, queries_s =
    time (fun () ->
        List.iter
          (fun q -> ignore (Vida_baseline.Mediator.run m (plan_for q.Hbp_queries.text)))
          (Lazy.force queries))
  in
  ( { system = name; flatten_s = 0.; load_s = load_rel +. load_docs; queries_s;
      space_bytes = Vida_baseline.Docstore.storage_bytes docs },
    m )

let figure5 () =
  section "Figure 5: ViDa vs warehouse vs integration layer";
  Printf.printf
    "(scale %.3f, %d queries; per-system cumulative preparation + execution)\n\n" sf
    n_queries;
  let vida_row, vida_stats = run_vida () in
  let col_row = run_warehouse `Col in
  let row_row = run_warehouse `Row in
  let colm_row, _ = run_mediator `Col in
  let rowm_row, _ = run_mediator `Row in
  let rows = [ vida_row; col_row; row_row; colm_row; rowm_row ] in
  Printf.printf "%-16s %12s %10s %12s %10s\n" "System" "Flatten(s)" "Load(s)"
    "Queries(s)" "Total(s)";
  List.iter
    (fun r ->
      Printf.printf "%-16s %12.3f %10.3f %12.3f %10.3f\n" r.system r.flatten_s
        r.load_s r.queries_s
        (r.flatten_s +. r.load_s +. r.queries_s))
    rows;
  (* claim checks (paper §6) *)
  let total r = r.flatten_s +. r.load_s +. r.queries_s in
  let best_baseline =
    List.fold_left (fun acc r -> Float.min acc (total r)) infinity (List.tl rows)
  in
  let worst_baseline =
    List.fold_left (fun acc r -> Float.max acc (total r)) 0. (List.tl rows)
  in
  Printf.printf "\nclaims:\n";
  Printf.printf
    "  ViDa vs baselines: %.1fx faster than best, %.1fx than worst (paper: up to 4.2x)\n"
    (best_baseline /. Float.max 1e-9 (total vida_row))
    (worst_baseline /. Float.max 1e-9 (total vida_row));
  let slowest_prep =
    List.fold_left (fun acc r -> Float.max acc (r.flatten_s +. r.load_s)) 0.
      (List.tl rows)
  in
  Printf.printf
    "  ViDa finishes the whole workload before the slowest baseline finishes \
     preparing: %b (%.3fs vs %.3fs)\n"
    (total vida_row < slowest_prep)
    (total vida_row) slowest_prep;
  Printf.printf
    "  queries served from ViDa's caches: %d/%d = %.0f%% (paper: ~80%%)\n"
    vida_stats.Vida.queries_from_cache vida_stats.Vida.queries_run
    (100.
    *. float_of_int vida_stats.Vida.queries_from_cache
    /. float_of_int (max 1 vida_stats.Vida.queries_run));
  let raw_json_bytes =
    let p = Lazy.force paths in
    let ic = open_in_bin p.Hbp_data.regions in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)
  in
  Printf.printf
    "  document-store import size vs raw JSON: %.2fx (paper: ~2x for MongoDB)\n"
    (float_of_int colm_row.space_bytes /. float_of_int raw_json_bytes)

(* ------------------------------------------------------------------ *)
(* Figure 4: layouts for tuples carrying a JSON object                 *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "Figure 4: intermediate layouts for a JSON-object attribute";
  let p = Lazy.force paths in
  let buf = Vida_raw.Raw_buffer.of_path p.Hbp_data.regions in
  let si = Vida_raw.Semi_index.build buf in
  let n = Vida_raw.Semi_index.object_count si in
  (* the query: filter objects on a scalar (quality), then materialize the
     qualifying objects for output *)
  let qualifies obj =
    match Vida_raw.Semi_index.field_value si ~obj ~field:"quality" with
    | Value.Float q -> q > 0.85
    | _ -> false
  in
  let repeat = 5 in
  let bytes_of_strings arr = Array.fold_left (fun a s -> a + String.length s) 0 arr in
  (* (a) text: carry the raw JSON text of every object *)
  let (text_bytes, text_out), text_s =
    time (fun () ->
        let out = ref 0 and total = ref 0 in
        for _ = 1 to repeat do
          let carried =
            Array.init n (fun obj ->
                let pos, len = Vida_raw.Semi_index.object_bounds si obj in
                Vida_raw.Raw_buffer.slice buf ~pos ~len)
          in
          total := bytes_of_strings carried;
          for obj = 0 to n - 1 do
            if qualifies obj then (
              ignore (Vida_raw.Json.parse carried.(obj));
              incr out)
          done
        done;
        (!total, !out))
  in
  (* (b) vbson: encode once, carry compact binary, decode qualifying *)
  let vbson_cache =
    Array.init n (fun obj ->
        Vida_storage.Vbson.encode (Vida_raw.Semi_index.object_value si obj))
  in
  let (vbson_bytes, _), vbson_s =
    time (fun () ->
        let out = ref 0 in
        for _ = 1 to repeat do
          for obj = 0 to n - 1 do
            if qualifies obj then (
              ignore (Vida_storage.Vbson.decode vbson_cache.(obj));
              incr out)
          done
        done;
        (bytes_of_strings vbson_cache, !out))
  in
  (* (c) parsed objects: parse everything up front and carry values *)
  let (obj_bytes, _), obj_s =
    time (fun () ->
        let out = ref 0 and total = ref 0 in
        for _ = 1 to repeat do
          let carried = Array.init n (fun obj -> Vida_raw.Semi_index.object_value si obj) in
          total :=
            Vida_storage.Cache.payload_bytes (Vida_storage.Cache.Values carried);
          for obj = 0 to n - 1 do
            if qualifies obj then incr out
          done
        done;
        (!total, !out))
  in
  (* (d) positions: carry (start,len) pairs, assemble only qualifying
     objects at projection time (paper §5 cache-pollution avoidance) *)
  let (pos_bytes, _), pos_s =
    time (fun () ->
        let out = ref 0 in
        for _ = 1 to repeat do
          let carried = Array.init n (fun obj -> Vida_raw.Semi_index.object_bounds si obj) in
          for obj = 0 to n - 1 do
            if qualifies obj then (
              let pos, len = carried.(obj) in
              let text = Vida_raw.Raw_buffer.slice buf ~pos ~len in
              ignore (Vida_raw.Json.parse text);
              incr out)
          done
        done;
        (16 * n, !out))
  in
  Printf.printf "(%d objects, %d repeats, %.0f%% qualify)\n\n" n repeat
    (100. *. float_of_int text_out /. float_of_int (repeat * n));
  Printf.printf "%-24s %12s %16s\n" "Layout (Fig. 4)" "time (s)" "carried bytes";
  Printf.printf "%-24s %12.4f %16d\n" "(a) JSON text" text_s text_bytes;
  Printf.printf "%-24s %12.4f %16d\n" "(b) VBSON binary" vbson_s vbson_bytes;
  Printf.printf "%-24s %12.4f %16d\n" "(c) parsed object" obj_s obj_bytes;
  Printf.printf "%-24s %12.4f %16d\n" "(d) start/end positions" pos_s pos_bytes;
  Printf.printf
    "\nshape check: positions carry the least state (%b); binary beats \
     re-parsing text (%b)\n"
    (pos_bytes < vbson_bytes && pos_bytes < text_bytes && pos_bytes < obj_bytes)
    (vbson_s < text_s)

(* ------------------------------------------------------------------ *)
(* A1: JIT (specialized) vs generic interpreted operators              *)
(* ------------------------------------------------------------------ *)

let ablation_jit () =
  section "A1: closure-compiled (JIT) vs interpreted engine";
  let p = Lazy.force paths in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:p.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:p.Hbp_data.genetics ();
  Vida.json db ~name:"BrainRegions" ~path:p.Hbp_data.regions ();
  let cases =
    [ ( "scan+filter+agg",
        "for { p <- Patients, p.age > 40, p.city = \"geneva\" } yield avg p.protein_0"
      );
      ( "two-way join",
        "for { p <- Patients, g <- Genetics, p.id = g.id, g.snp_0 = 1 } yield count p"
      );
      ( "three-way join",
        "for { p <- Patients, g <- Genetics, b <- BrainRegions, p.id = g.id, g.id = b.id, p.age > 40 } yield sum b.quality"
      )
    ]
  in
  (* warm caches so both engines measure pure execution machinery *)
  List.iter (fun (_, q) -> ignore (Vida.query_value db q)) cases;
  let repeat = 30 in
  Printf.printf
    "(caches warm; %d executions per case, no result reuse; median [IQR] ms)\n\n" repeat;
  Printf.printf "%-18s %24s %24s %9s\n" "Query" "JIT (ms)" "Generic (ms)" "speedup";
  List.iter
    (fun (name, q) ->
      (* [~reuse:false]: every repetition executes; with the result
         cache on, all but the first would time a cache hit *)
      let run engine =
        let ms =
          Array.init repeat (fun _ ->
              let r, s = time (fun () -> Vida.query ~engine ~reuse:false db q) in
              (match r with Ok _ -> () | Error e -> failwith (Vida.error_to_string e));
              1000. *. s)
        in
        Array.sort compare ms;
        (percentile ms 0.25, percentile ms 0.5, percentile ms 0.75)
      in
      let cell (q1, med, q3) = Printf.sprintf "%.3f [%.3f-%.3f]" med q1 q3 in
      let (_, jit, _) as j = run Vida.Jit in
      let (_, gen, _) as g = run Vida.Generic in
      Printf.printf "%-18s %24s %24s %8.1fx\n" name (cell j) (cell g)
        (gen /. Float.max 1e-9 jit))
    cases

(* ------------------------------------------------------------------ *)
(* A2: positional maps                                                 *)
(* ------------------------------------------------------------------ *)

let ablation_posmap () =
  section "A2: positional maps cut repeated raw CSV navigation";
  let p = Lazy.force paths in
  let cfg = Lazy.force config in
  let n_cols = min 12 ((cfg.Hbp_data.genetics_attrs - 1) / 2) in
  let query i =
    Printf.sprintf "for { g <- Genetics } yield sum g.%s" (Hbp_data.snp_attr (i * 2))
  in
  let run_session ~retain =
    (* a tiny cache rules out column caching, isolating the map's effect *)
    let db = Vida.create ~cache_capacity:1 () in
    Vida.csv db ~name:"Genetics" ~path:p.Hbp_data.genetics ();
    Vida_raw.Io_stats.reset ();
    let (), t =
      time (fun () ->
          for i = 0 to n_cols - 1 do
            if not retain then Vida.invalidate db "Genetics";
            ignore (Vida.query_value db (query i))
          done)
    in
    (t, Vida_raw.Io_stats.current ())
  in
  let cold_t, cold_io = run_session ~retain:false in
  let warm_t, warm_io = run_session ~retain:true in
  Printf.printf "(%d successive queries, each projecting a different SNP column)\n\n"
    n_cols;
  Printf.printf "%-26s %10s %18s\n" "Mode" "time (s)" "fields tokenized";
  Printf.printf "%-26s %10.3f %18d\n" "no positional map (cold)" cold_t
    cold_io.Vida_raw.Io_stats.fields_tokenized;
  Printf.printf "%-26s %10.3f %18d\n" "positional map retained" warm_t
    warm_io.Vida_raw.Io_stats.fields_tokenized;
  Printf.printf "\nshape check: retained map tokenizes fewer fields: %b\n"
    (warm_io.Vida_raw.Io_stats.fields_tokenized
    < cold_io.Vida_raw.Io_stats.fields_tokenized)

(* ------------------------------------------------------------------ *)
(* A3: cache locality over the workload                                *)
(* ------------------------------------------------------------------ *)

let ablation_cache () =
  section "A3: cache locality across the workload";
  let p = Lazy.force paths in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:p.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:p.Hbp_data.genetics ();
  Vida.json db ~name:"BrainRegions" ~path:p.Hbp_data.regions ();
  let cum = ref 0. in
  let marks = [ 10; 25; 50; 75; 100; 125; 150 ] in
  Printf.printf "%-8s %14s %12s %10s\n" "queries" "cumulative(s)" "from-cache"
    "hit rate";
  List.iteri
    (fun i q ->
      let (), t =
        time (fun () ->
            match Vida.query db q.Hbp_queries.text with
            | Ok _ -> ()
            | Error e -> failwith (Vida.error_to_string e))
      in
      cum := !cum +. t;
      let k = i + 1 in
      if List.mem k marks then (
        let s = Vida.stats db in
        Printf.printf "%-8d %14.3f %12d %9.0f%%\n" k !cum s.Vida.queries_from_cache
          (100. *. float_of_int s.Vida.queries_from_cache /. float_of_int k)))
    (Lazy.force queries);
  let s = Vida.stats db in
  Printf.printf
    "\nfinal hit rate: %.0f%% (paper: ~80%% of the workload served from caches)\n"
    (100.
    *. float_of_int s.Vida.queries_from_cache
    /. float_of_int (max 1 s.Vida.queries_run))

(* ------------------------------------------------------------------ *)
(* A4: group-by — correlated encoding vs the Nest rewrite              *)
(* ------------------------------------------------------------------ *)

let ablation_groupby () =
  section "A4: group-by via Nest vs correlated re-scan";
  let p = Lazy.force paths in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:p.Hbp_data.patients ();
  (* ~95 distinct ages: enough groups that per-group re-scans hurt *)
  let q =
    "SELECT p.age AS age, COUNT( * ) AS n, SUM(p.protein_0) AS total \
     FROM Patients p GROUP BY p.age"
  in
  (* warm the column caches so both modes measure pure grouping *)
  ignore (Vida.sql ~reuse:false db q);
  let repeat = 5 in
  let run optimize () =
    for _ = 1 to repeat do
      match Vida.sql ~optimize ~reuse:false db q with
      | Ok _ -> ()
      | Error e -> failwith (Vida.error_to_string e)
    done
  in
  let (), nest_s = time (run true) in
  let (), corr_s = time (run false) in
  Printf.printf "(caches warm, %d repetitions; groups: distinct ages)\n\n" repeat;
  Printf.printf "%-32s %12s\n" "Mode" "ms/query";
  Printf.printf "%-32s %12.2f\n" "correlated re-scan (no rewrite)"
    (1000. *. corr_s /. float_of_int repeat);
  Printf.printf "%-32s %12.2f\n" "Nest rewrite (one pass)"
    (1000. *. nest_s /. float_of_int repeat);
  Printf.printf "\nshape check: grouping pass beats per-group re-scans: %b (%.1fx)\n"
    (nest_s < corr_s)
    (corr_s /. Float.max 1e-9 nest_s)

(* ------------------------------------------------------------------ *)
(* A5: runtime feedback improves the optimizer's estimates             *)
(* ------------------------------------------------------------------ *)

let ablation_feedback () =
  section "A5: runtime feedback tightens cost estimates";
  let p = Lazy.force paths in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:p.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:p.Hbp_data.genetics ();
  let q =
    "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 88, g.snp_0 = 2 } yield count p"
  in
  let plan =
    Vida_algebra.Translate.plan_of_comp
      (Vida_calculus.Rewrite.normalize (Vida_calculus.Parser.parse_exn q))
  in
  (* estimate the stream feeding the aggregate, not the 1-row Reduce *)
  let stream =
    match plan with Vida_algebra.Plan.Reduce { child; _ } -> child | p -> p
  in
  let before = Vida_optimizer.Cost.estimate (Vida.ctx db) stream in
  let actual =
    match Vida.query ~reuse:false db q with
    | Ok r -> Value.to_int r.Vida.value
    | Error e -> failwith (Vida.error_to_string e)
  in
  let after = Vida_optimizer.Cost.estimate (Vida.ctx db) stream in
  Printf.printf "(selective conjunction the heuristics cannot see through)\n\n";
  Printf.printf "actual matching rows:        %d\n" actual;
  Printf.printf "estimate before first run:   %s\n"
    (Format.asprintf "%a" Vida_optimizer.Cost.pp before);
  Printf.printf "estimate after feedback:     %s\n"
    (Format.asprintf "%a" Vida_optimizer.Cost.pp after);
  let err est = Float.abs (est -. float_of_int actual) in
  Printf.printf "\nshape check: feedback moved the estimate toward reality: %b\n"
    (err after.Vida_optimizer.Cost.cardinality
    <= err before.Vida_optimizer.Cost.cardinality)

(* ------------------------------------------------------------------ *)
(* A6: zone maps — predicated scans over binary arrays                 *)
(* ------------------------------------------------------------------ *)

let ablation_zonemaps () =
  section "A6: zone maps skip blocks in binary-array scans";
  let path = Filename.concat data_dir "zonemap_bench.varr" in
  let n = 200_000 in
  if not (Sys.file_exists path) then
    Vida_raw.Binarray.write path ~dims:[ n ]
      ~fields:[ { Vida_raw.Binarray.name = "t"; is_float = false };
                { Vida_raw.Binarray.name = "v"; is_float = true } ]
      (fun cell -> [| Value.Int cell; Value.Float (sin (float_of_int cell)) |]);
  let registry = Vida_catalog.Registry.create () in
  let _ = Vida_catalog.Registry.register_binarray registry ~name:"Series" ~path in
  let make_ctx () = Vida_engine.Plugins.create_ctx registry in
  let q = "for { c <- Series, c.t >= 150000, c.t < 151000 } yield avg c.v" in
  let plan =
    Vida_algebra.Translate.plan_of_comp
      (Vida_calculus.Rewrite.normalize (Vida_calculus.Parser.parse_exn q))
  in
  (* pruned: compiled engine pushes the range into the scan *)
  let ctx = make_ctx () in
  let run = Vida_engine.Compile.query ctx plan in
  ignore (run ()) (* build zones + warm file *);
  let repeat = 20 in
  let (), pruned_s = time (fun () -> for _ = 1 to repeat do ignore (run ()) done) in
  let ba =
    Vida_engine.Structures.binarray ctx.Vida_engine.Plugins.structures
      (Option.get (Vida_catalog.Registry.find registry "Series"))
  in
  let skipped = Vida_raw.Binarray.blocks_skipped ba in
  (* unpruned: same JIT engine, but a Map between Select and Source defeats
     the scan-pushdown pattern, so every cell is fetched *)
  let unpruned_plan =
    let open Vida_algebra.Plan in
    let rec defeat p =
      match p with
      | Select ({ child = Source _ as src; _ } as sel) ->
        Select
          { sel with
            child =
              Map { var = "__pad"; expr = Vida_calculus.Expr.int 0; child = src }
          }
      | p -> map_children defeat p
    in
    defeat plan
  in
  let ctx2 = make_ctx () in
  let run2 = Vida_engine.Compile.query ctx2 unpruned_plan in
  ignore (run2 ());
  let (), full_s = time (fun () -> for _ = 1 to repeat do ignore (run2 ()) done) in
  Printf.printf "(%d cells, 1000-cell band selected, %d repetitions; both runs \
                 use the JIT engine)\n\n" n repeat;
  Printf.printf "%-30s %12s\n" "Scan" "ms/query";
  Printf.printf "%-30s %12.2f\n" "full scan"
    (1000. *. full_s /. float_of_int repeat);
  Printf.printf "%-30s %12.2f\n" "zone-map pruned"
    (1000. *. pruned_s /. float_of_int repeat);
  Printf.printf "\n%d blocks skipped; shape check: pruning wins: %b (%.0fx)\n" skipped
    (pruned_s < full_s)
    (full_s /. Float.max 1e-9 pruned_s)

(* ------------------------------------------------------------------ *)
(* A7: parallel in-situ reduction over OCaml 5 domains                 *)
(* ------------------------------------------------------------------ *)

let ablation_parallel () =
  section "A7: parallel reduction (commutative monoids over domains)";
  (* domain spawns cost ~1 ms, so this needs real input sizes *)
  let path = Filename.concat data_dir "parallel_bench.csv" in
  let n = 400_000 in
  if not (Sys.file_exists path) then (
    let oc = open_out_bin path in
    output_string oc "id,age,x,y,z\n";
    for i = 1 to n do
      output_string oc
        (Printf.sprintf "%d,%d,%.3f,%.3f,%.3f\n" i (18 + (i mod 80))
           (sin (float_of_int i))
           (cos (float_of_int i))
           (float_of_int (i mod 97) /. 9.7))
    done;
    close_out oc);
  let registry = Vida_catalog.Registry.create () in
  let _ = Vida_catalog.Registry.register_csv registry ~name:"Wide" ~path () in
  let ctx = Vida_engine.Plugins.create_ctx registry in
  let q = "for { p <- Wide, p.age > 30 } yield avg p.x * p.y + p.z" in
  let plan =
    Vida_algebra.Translate.plan_of_comp
      (Vida_calculus.Rewrite.normalize (Vida_calculus.Parser.parse_exn q))
  in
  let sequential = Vida_engine.Compile.query ctx plan in
  ignore (sequential ()) (* warm caches for both paths *);
  ignore (Option.get (Vida_engine.Parallel.try_query ctx ~domains:2 plan));
  let repeat = 20 in
  (* domains need wall-clock, not CPU, time *)
  let wall f =
    let t0 = Monotonic_clock.now () in
    f ();
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "(avg over a 3-column expression, caches warm, %d reps; wall-clock; this \
     machine reports %d core%s)\n\n"
    repeat cores (if cores = 1 then "" else "s");
  let seq_ms = wall (fun () -> for _ = 1 to repeat do ignore (sequential ()) done) in
  Printf.printf "%-24s %12s\n" "Mode" "ms/query";
  Printf.printf "%-24s %12.2f\n" "sequential" (seq_ms /. float_of_int repeat);
  let par_ms =
    List.map
      (fun d ->
        let ms =
          wall (fun () ->
              for _ = 1 to repeat do
                ignore (Option.get (Vida_engine.Parallel.try_query ctx ~domains:d plan))
              done)
        in
        Printf.printf "%-24s %12.2f\n"
          (Printf.sprintf "parallel (%d domains)" d)
          (ms /. float_of_int repeat);
        ms)
      [ 2; 4 ]
  in
  (* correctness always holds; speedup needs physical cores *)
  let seq_v = sequential () in
  let par_v = Option.get (Vida_engine.Parallel.try_query ctx ~domains:4 plan) in
  (* the split fold reassociates float additions; compare with tolerance *)
  let close =
    match seq_v, par_v with
    | Value.Float a, Value.Float b -> Float.abs (a -. b) <= 1e-9 *. Float.abs a
    | a, b -> Value.equal a b
  in
  Printf.printf "\nresults agree across engines: %b\n" close;
  if cores <= 1 then
    Printf.printf
      "(single-core machine: domain scheduling can only add overhead here; \
       re-run on a multi-core box to see the split fold win)\n"
  else
    Printf.printf "shape check: parallel beats sequential on %d cores: %b\n" cores
      (List.exists (fun ms -> ms < seq_ms) par_ms)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro: Bechamel operator-level benchmarks";
  let open Bechamel in
  let p = Lazy.force paths in
  let buf = Vida_raw.Raw_buffer.of_path p.Hbp_data.patients in
  let pm_cold = Vida_raw.Positional_map.build buf in
  let pm_warm = Vida_raw.Positional_map.build buf in
  Vida_raw.Positional_map.populate pm_warm [ 10 ];
  let nrows = Vida_raw.Positional_map.row_count pm_cold in
  let sample_json =
    let jbuf = Vida_raw.Raw_buffer.of_path p.Hbp_data.regions in
    let si = Vida_raw.Semi_index.build jbuf in
    let pos, len = Vida_raw.Semi_index.object_bounds si 0 in
    Vida_raw.Raw_buffer.slice jbuf ~pos ~len
  in
  let sample_vbson = Vida_storage.Vbson.encode (Vida_raw.Json.parse sample_json) in
  (* compiled vs interpreted scalar: the same predicate over one tuple *)
  let registry = Vida_catalog.Registry.create () in
  let ctx = Vida_engine.Plugins.create_ctx registry in
  let pred = Vida_calculus.Parser.parse_exn "x.age > 40 and x.city = \"geneva\"" in
  let tuple = Value.Record [ ("age", Value.Int 50); ("city", Value.String "geneva") ] in
  let compiled = Vida_engine.Compile.scalar ctx ~slots:[ ("x", 0) ] pred in
  let env_arr = [| tuple |] in
  let counter = ref 0 in
  let tests =
    [ Test.make ~name:"csv-field-cold"
        (Staged.stage (fun () ->
             incr counter;
             ignore (Vida_raw.Positional_map.field pm_cold ~row:(!counter mod nrows) ~col:10)));
      Test.make ~name:"csv-field-mapped"
        (Staged.stage (fun () ->
             incr counter;
             ignore (Vida_raw.Positional_map.field pm_warm ~row:(!counter mod nrows) ~col:10)));
      Test.make ~name:"json-parse-object"
        (Staged.stage (fun () -> ignore (Vida_raw.Json.parse sample_json)));
      Test.make ~name:"vbson-decode-object"
        (Staged.stage (fun () -> ignore (Vida_storage.Vbson.decode sample_vbson)));
      Test.make ~name:"pred-compiled" (Staged.stage (fun () -> ignore (compiled env_arr)));
      Test.make ~name:"pred-interpreted"
        (Staged.stage (fun () ->
             ignore
               (Vida_calculus.Eval.eval
                  (Vida_calculus.Eval.env_of_list [ ("x", tuple) ])
                  pred)))
    ]
  in
  let benchmark test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  Printf.printf "%-26s %14s\n" "operation" "ns/op";
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"vida" ~fmt:"%s/%s" [ test ]) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-26s %14.1f\n" name est
          | _ -> Printf.printf "%-26s %14s\n" name "n/a")
        results)
    tests

(* ------------------------------------------------------------------ *)
(* R1: query-lifecycle governor under injected faults                  *)
(* ------------------------------------------------------------------ *)

let governor () =
  section "R1: query-lifecycle governor under injected faults";
  let module FP = Vida_raw.Fault_plan in
  let module G = Vida_governor.Governor in
  let p = Lazy.force paths in
  let db = Vida.create () in
  Vida.csv db ~name:"Patients" ~path:p.Hbp_data.patients ();
  Vida.csv db ~name:"Genetics" ~path:p.Hbp_data.genetics ();
  Vida.json db ~name:"BrainRegions" ~path:p.Hbp_data.regions ();
  let qs =
    let rec take n = function
      | x :: tl when n > 0 -> x :: take (n - 1) tl
      | _ -> []
    in
    take 25 (Lazy.force queries)
  in
  let rows = ref [] in
  let ok = ref 0 and degraded = ref 0 and structured = ref 0 in
  List.iteri
    (fun i q ->
      (* every 5th query reloads a source whose first load attempt fails
         transiently (retried with backoff); every 7th hits an injected
         JIT compile failure (degrades to the Generic engine) *)
      let faulty_io = i mod 5 = 0 in
      let faulty_jit = i mod 7 = 0 in
      if faulty_io then Vida.invalidate db "Patients";
      let plan =
        (if faulty_io then [ FP.Load { fail = 1; latency_ms = 0.; only = None } ] else [])
        @ if faulty_jit then [ FP.Jit_compile { fail = 1 } ] else []
      in
      let row =
        match
          FP.with_plan plan (fun () -> Vida.query ~reuse:false db q.Hbp_queries.text)
        with
        | Ok r ->
          let g = r.Vida.governor in
          incr ok;
          if g.G.fallbacks <> [] then incr degraded;
          (i, "ok", g.G.wall_ms, g.G.retries, List.length g.G.fallbacks)
        | Error (Vida.Data_error e) ->
          incr structured;
          (i, Vida_error.kind_name e, 0., 0, 0)
        | Error e -> failwith (Vida.error_to_string e)
      in
      rows := row :: !rows)
    qs;
  (* a deliberately slow reload under injected latency and a tight
     deadline: must finish with a structured deadline error — never a
     hang, never a crash, never a wrong answer *)
  Vida.invalidate db "Genetics";
  Vida.set_limits db { G.unlimited with G.deadline_ms = Some 10. };
  let deadline_outcome =
    FP.with_plan [ FP.Load { fail = 0; latency_ms = 50.; only = None } ] (fun () ->
        match Vida.query ~reuse:false db "for { g <- Genetics } yield count g" with
        | Error (Vida.Data_error e) -> Vida_error.kind_name e
        | Ok _ -> "ok"
        | Error e -> failwith (Vida.error_to_string e))
  in
  Vida.set_limits db G.unlimited;
  rows := (List.length qs, deadline_outcome, 0., 0, 0) :: !rows;
  let rows = List.rev !rows in
  let out = "BENCH_governor.json" in
  let oc = open_out out in
  output_string oc "{\n  \"experiment\": \"governor\",\n";
  output_string oc domains_meta_fields;
  output_string oc "  \"queries\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun k (i, outcome, wall_ms, retries, fallbacks) ->
      Printf.fprintf oc
        "    {\"query\": %d, \"outcome\": \"%s\", \"wall_ms\": %.3f, \
         \"retries\": %d, \"fallbacks\": %d}%s\n"
        i outcome wall_ms retries fallbacks
        (if k = last then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n  \"ok\": %d,\n  \"degraded\": %d,\n  \"structured_errors\": %d,\n\
    \  \"deadline_outcome\": \"%s\"\n}\n"
    !ok !degraded !structured deadline_outcome;
  close_out oc;
  Printf.printf
    "(%d workload queries; every 5th reload fails transiently once, every \
     7th JIT compile is failed)\n\n"
    (List.length qs);
  Printf.printf "completed ok: %d (of which degraded but correct: %d), \
                 structured errors: %d\n" !ok !degraded !structured;
  Printf.printf "slow reload under 10 ms deadline + 50 ms injected latency: %s\n"
    deadline_outcome;
  Printf.printf
    "\nshape check: every query terminated, deadline surfaced structurally: %b\n"
    (deadline_outcome = "deadline");
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* vectorized: batch kernels vs closure engine vs interpreter          *)
(* ------------------------------------------------------------------ *)

let vectorized_bench () =
  section "vectorized: fused batch kernels vs closure vs interpreter (1 domain)";
  let n = max 10_000 (int_of_float (4_000_000. *. sf)) in
  (* same wide CSV the parallel experiment scans *)
  if not (Sys.file_exists data_dir) then Sys.mkdir data_dir 0o755;
  let path = Filename.concat data_dir (Printf.sprintf "parallel_%d.csv" n) in
  if not (Sys.file_exists path) then (
    let oc = open_out_bin path in
    output_string oc "id,age,x,y,z\n";
    for i = 1 to n do
      output_string oc
        (Printf.sprintf "%d,%d,%.3f,%.3f,%.3f\n" i (18 + (i mod 80))
           (sin (float_of_int i))
           (cos (float_of_int i))
           (float_of_int (i mod 97) /. 9.7))
    done;
    close_out oc);
  let db = Vida.create () in
  Vida.set_domains db 1;
  Vida.csv db ~name:"Wide" ~path ();
  let run ?engine q =
    match Vida.query ?engine ~reuse:false db q with
    | Ok r -> (r.Vida.value, r.Vida.governor)
    | Error e -> failwith (Vida.error_to_string e)
  in
  let value_of ?engine q = fst (run ?engine q) in
  let close a b =
    match (a, b) with
    | Value.Float a, Value.Float b ->
      Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)
    | a, b -> Value.equal a b
  in
  (* each engine is timed warm (caches settled by an untimed run) so the
     comparison isolates execution, not decode/structure builds *)
  (* best of three timed blocks: the first block after an engine switch
     carries the previous engine's GC debt and the allocator/frequency
     warm-up, which showed up as 2-3x inflation in single-block runs *)
  let measure ?engine ~repeat q =
    ignore (value_of ?engine q);
    let block () =
      Gc.major ();
      let (), wall =
        time (fun () -> for _ = 1 to repeat do ignore (value_of ?engine q) done)
      in
      wall /. float_of_int repeat
    in
    let b1 = block () in
    let b2 = block () in
    let b3 = block () in
    Float.min b1 (Float.min b2 b3)
  in
  let scan_q = "for { p <- Wide, p.age > 30 } yield sum p.x" in
  let agg_q = "for { p <- Wide } yield avg p.x * p.y + p.z" in
  let workloads = [ ("scan_heavy", scan_q); ("aggregate_heavy", agg_q) ] in
  let sweep_sizes = [ 1024; 4096; 16384 ] in
  let repeat = 10 in
  Printf.printf "(%d rows, 1 domain, %d reps warm; batch sweep %s rows)\n\n" n
    repeat
    (String.concat "/" (List.map string_of_int sweep_sizes));
  let all_ok = ref true in
  let rows =
    List.map
      (fun (name, q) ->
        (* the generic interpreter is the semantic reference *)
        let reference = value_of ~engine:Vida.Generic q in
        let interp_wall = measure ~engine:Vida.Generic ~repeat:2 q in
        Vida.set_vectorized false;
        let closure_wall, closure_v =
          Fun.protect
            ~finally:(fun () -> Vida.set_vectorized true)
            (fun () -> (measure ~repeat q, value_of q))
        in
        Vida.set_batch_rows 4096;
        let vector_wall = measure ~repeat q in
        let vector_v, grep = run q in
        (* a speedup claim over a silently-degraded run would be bogus:
           demand the vectorized rung actually executed batches *)
        if grep.Vida_governor.Governor.batches = 0 then (
          Printf.printf "%-18s DID NOT VECTORIZE (fallbacks: %s)\n" name
            (String.concat "; "
               (List.map
                  (fun f -> f.Vida_governor.Governor.reason)
                  grep.Vida_governor.Governor.fallbacks));
          all_ok := false);
        let ok = close reference closure_v && close reference vector_v in
        if not ok then all_ok := false;
        let sweep =
          List.map
            (fun b ->
              Vida.set_batch_rows b;
              let w = measure ~repeat q in
              let sok = close reference (value_of q) in
              if not sok then all_ok := false;
              (b, w, sok))
            sweep_sizes
        in
        Vida.set_batch_rows 4096;
        Printf.printf
          "%-18s interp %8.2f ms   closure %8.2f ms   vectorized %8.2f ms   \
           (%.1fx vs closure, %.1fx vs interp)%s\n"
          name (interp_wall *. 1000.) (closure_wall *. 1000.)
          (vector_wall *. 1000.)
          (closure_wall /. vector_wall)
          (interp_wall /. vector_wall)
          (if ok then "" else "  DIVERGED");
        List.iter
          (fun (b, w, sok) ->
            Printf.printf "%-18s   batch %6d %8.2f ms%s\n" "" b (w *. 1000.)
              (if sok then "" else "  DIVERGED"))
          sweep;
        ( name, q, interp_wall, closure_wall, vector_wall, ok,
          grep.Vida_governor.Governor.batches,
          grep.Vida_governor.Governor.batch_rows_p50, sweep ))
      workloads
  in
  let out = "BENCH_vectorized.json" in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"experiment\": \"vectorized\",\n%s  \"scale\": %.3f,\n  \"rows\": %d,\n\
    \  \"batch_rows_default\": 4096,\n  \"workloads\": [\n"
    domains_meta_fields sf n;
  let last = List.length rows - 1 in
  List.iteri
    (fun k (name, q, iw, cw, vw, ok, batches, p50, sweep) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"query\": %S,\n\
        \     \"interp_wall_s\": %.6f, \"closure_wall_s\": %.6f, \
         \"vectorized_wall_s\": %.6f,\n\
        \     \"speedup_vs_closure\": %.3f, \"speedup_vs_interp\": %.3f,\n\
        \     \"batches\": %d, \"rows_per_batch_p50\": %d,\n\
        \     \"batch_sweep\": ["
        name q iw cw vw (cw /. vw) (iw /. vw) batches p50;
      let slast = List.length sweep - 1 in
      List.iteri
        (fun j (b, w, sok) ->
          Printf.fprintf oc
            "{\"batch_rows\": %d, \"wall_s\": %.6f, \"differential_ok\": %b}%s"
            b w sok
            (if j = slast then "" else ",\n                      "))
        sweep;
      Printf.fprintf oc "],\n     \"differential_ok\": %b}%s\n" ok
        (if k = last then "" else ",")
    )
    rows;
  Printf.fprintf oc
    "  ],\n  \"differential_ok\": %b,\n\
    \  \"note\": \"wall times measured on whatever this container offers \
     (see resolved_domains/recommended_domains); the engine comparison is \
     single-domain by construction, so the speedups are per-core kernel \
     effects, not parallelism\"\n}\n"
    !all_ok;
  close_out oc;
  Printf.printf "\nall engines agree on every run: %b\n" !all_ok;
  (* differential divergence is a correctness bug, not a slow run: CI keys
     off the exit code *)
  if not !all_ok then exit 1;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* parallel: morsel-driven execution across domain budgets             *)
(* ------------------------------------------------------------------ *)

let parallel_bench () =
  section "parallel: morsel-driven execution across domain budgets";
  let cores = Domain.recommended_domain_count () in
  (* one wide CSV whose scan dominates; size scales with VIDA_SF *)
  let n = max 10_000 (int_of_float (4_000_000. *. sf)) in
  let path = Filename.concat data_dir (Printf.sprintf "parallel_%d.csv" n) in
  if not (Sys.file_exists path) then (
    let oc = open_out_bin path in
    output_string oc "id,age,x,y,z\n";
    for i = 1 to n do
      output_string oc
        (Printf.sprintf "%d,%d,%.3f,%.3f,%.3f\n" i (18 + (i mod 80))
           (sin (float_of_int i))
           (cos (float_of_int i))
           (float_of_int (i mod 97) /. 9.7))
    done;
    close_out oc);
  let fresh_db d =
    let db = Vida.create () in
    Vida.set_domains db d;
    Vida.csv db ~name:"Wide" ~path ();
    db
  in
  let value_of db q =
    match Vida.query ~reuse:false db q with
    | Ok r -> r.Vida.value
    | Error e -> failwith (Vida.error_to_string e)
  in
  let close a b =
    match (a, b) with
    | Value.Float a, Value.Float b ->
      Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)
    | a, b -> Value.equal a b
  in
  let budgets = [ 1; 2; 4; 8 ] in
  let repeat = 10 in
  Printf.printf
    "(%d rows, domain budgets %s, %d reps warm / 1 rep cold; this machine \
     reports %d core%s)\n\n"
    n
    (String.concat "/" (List.map string_of_int budgets))
    repeat cores
    (if cores = 1 then "" else "s");
  (* warm workloads share one instance: columns decoded once, then each
     budget re-folds the same arrays; cold re-creates the instance per run
     so every budget pays positional-map build + column decode *)
  let measure_warm db q d =
    Vida.set_domains db d;
    ignore (value_of db q) (* settle caches under this budget *);
    let c0 = cpu_s () in
    let (), wall = time (fun () -> for _ = 1 to repeat do ignore (value_of db q) done) in
    (wall /. float_of_int repeat, (cpu_s () -. c0) /. float_of_int repeat)
  in
  let measure_cold q d =
    let db = fresh_db d in
    let c0 = cpu_s () in
    let v, wall = time (fun () -> value_of db q) in
    (v, wall, cpu_s () -. c0)
  in
  let scan_q = "for { p <- Wide, p.age > 30 } yield sum p.x" in
  let agg_q = "for { p <- Wide } yield avg p.x * p.y + p.z" in
  let workloads = [ ("scan_heavy", scan_q); ("aggregate_heavy", agg_q) ] in
  let rows = ref [] in
  List.iter
    (fun (name, q) ->
      Printf.printf "%-18s %10s %12s %12s\n" name "domains" "wall ms" "cpu ms";
      let db = fresh_db 1 in
      let reference = value_of db q in
      let runs =
        List.map
          (fun d ->
            let wall, cpu = measure_warm db q d in
            let ok = close reference (value_of db q) in
            Printf.printf "%-18s %10d %12.2f %12.2f%s\n" "" d (wall *. 1000.)
              (cpu *. 1000.)
              (if ok then "" else "  DIVERGED");
            (d, wall, cpu, ok))
          budgets
      in
      rows := (name, q, runs) :: !rows)
    workloads;
  (* cold first query: every budget pays auxiliary-structure build and
     column decode — the parallel positional-map path shows up here *)
  let cold_q = scan_q in
  Printf.printf "%-18s %10s %12s %12s\n" "cold_first_query" "domains" "wall ms" "cpu ms";
  let cold_ref, _, _ = measure_cold cold_q 1 in
  let cold_runs =
    List.map
      (fun d ->
        let v, wall, cpu = measure_cold cold_q d in
        let ok = close cold_ref v in
        Printf.printf "%-18s %10d %12.2f %12.2f%s\n" "" d (wall *. 1000.)
          (cpu *. 1000.)
          (if ok then "" else "  DIVERGED");
        (d, wall, cpu, ok))
      budgets
  in
  rows := ("cold_first_query", cold_q, cold_runs) :: !rows;
  let rows = List.rev !rows in
  let wall_at runs d =
    match List.find_opt (fun (d', _, _, _) -> d' = d) runs with
    | Some (_, w, _, _) -> w
    | None -> nan
  in
  let all_ok =
    List.for_all (fun (_, _, runs) -> List.for_all (fun (_, _, _, ok) -> ok) runs) rows
  in
  let out = "BENCH_parallel.json" in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"experiment\": \"parallel\",\n%s  \"scale\": %.3f,\n  \"rows\": %d,\n\
    \  \"cores\": %d,\n  \"workloads\": [\n"
    domains_meta_fields sf n cores;
  let last = List.length rows - 1 in
  List.iteri
    (fun k (name, q, runs) ->
      Printf.fprintf oc "    {\"name\": %S, \"query\": %S,\n     \"runs\": [" name q;
      let rlast = List.length runs - 1 in
      List.iteri
        (fun j (d, wall, cpu, ok) ->
          Printf.fprintf oc
            "{\"domains\": %d, \"wall_s\": %.6f, \"cpu_s\": %.6f, \
             \"differential_ok\": %b}%s"
            d wall cpu ok
            (if j = rlast then "" else ",\n              "))
        runs;
      Printf.fprintf oc "],\n     \"speedup_at_4\": %.3f}%s\n"
        (wall_at runs 1 /. wall_at runs 4)
        (if k = last then "" else ",")
    )
    rows;
  Printf.fprintf oc "  ],\n  \"differential_ok\": %b\n}\n" all_ok;
  close_out oc;
  Printf.printf "\nresults agree across all budgets: %b\n" all_ok;
  (* a correctness failure in a perf harness must not pass silently: CI
     runs this experiment as a smoke test and keys off the exit code *)
  if not all_ok then exit 1;
  if cores <= 1 then
    Printf.printf
      "(single-core machine: extra domains can only add overhead here; the \
       speedup_at_4 figures need a multi-core box)\n"
  else
    List.iter
      (fun (name, _, runs) ->
        Printf.printf "shape check %s: 4-domain speedup %.2fx\n" name
          (wall_at runs 1 /. wall_at runs 4))
      rows;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* recovery: append repair vs full rebuild; epoch re-pin overhead       *)
(* ------------------------------------------------------------------ *)

let recovery () =
  section "recovery: append repair vs full rebuild, epoch re-pin overhead";
  let module G = Vida_governor.Governor in
  if not (Sys.file_exists data_dir) then Sys.mkdir data_dir 0o755;
  let q = "for { r <- S } yield sum r.v" in
  let value_of db query =
    match Vida.query ~reuse:false db query with
    | Ok r -> r
    | Error e -> failwith (Vida.error_to_string e)
  in
  let row_line i = Printf.sprintf "%d,%d\n" i (i mod 1000) in
  let expected n =
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := !s + (i mod 1000)
    done;
    Value.Int !s
  in
  (* --- append repair vs full rebuild across sizes --- *)
  let sizes =
    List.map
      (fun base -> max 5_000 (int_of_float (float_of_int base *. sf)))
      [ 200_000; 1_000_000 ]
  in
  Printf.printf "%-10s %14s %16s %16s\n" "rows" "warm build ms" "append repair ms"
    "full rebuild ms";
  let size_rows =
    List.map
      (fun n ->
        let appended = max 100 (n / 100) in
        let path = Filename.concat data_dir (Printf.sprintf "recovery_%d.csv" n) in
        let oc = open_out_bin path in
        output_string oc "id,v\n";
        for i = 0 to n - 1 do
          output_string oc (row_line i)
        done;
        close_out oc;
        let db = Vida.create ~domains:1 () in
        Vida.csv db ~name:"S" ~path ();
        (* first query builds the positional map and decodes the column *)
        let _, build_s = time (fun () -> value_of db q) in
        (* grow the file by ~1%: the refresh classifies it as an append
           and extends structures + caches from the old tail *)
        let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
        for i = n to n + appended - 1 do
          output_string oc (row_line i)
        done;
        close_out oc;
        let r, repair_s = time (fun () -> value_of db q) in
        let repair_ok = Value.equal r.Vida.value (expected (n + appended)) in
        (* a cold instance over the same final file pays the full rebuild *)
        let db2 = Vida.create ~domains:1 () in
        Vida.csv db2 ~name:"S" ~path ();
        let r2, rebuild_s = time (fun () -> value_of db2 q) in
        let rebuild_ok = Value.equal r2.Vida.value (expected (n + appended)) in
        Printf.printf "%-10d %14.2f %16.2f %16.2f%s\n" n (build_s *. 1000.)
          (repair_s *. 1000.) (rebuild_s *. 1000.)
          (if repair_ok && rebuild_ok then "" else "  DIVERGED");
        Sys.remove path;
        (n, appended, build_s, repair_s, rebuild_s, repair_ok && rebuild_ok))
      sizes
  in
  (* --- epoch re-pin overhead: a mid-query change forces one retry --- *)
  let n = max 5_000 (int_of_float (50_000. *. sf)) in
  let path = Filename.concat data_dir "recovery_repin.csv" in
  let write_rows ~reversed =
    let oc = open_out_bin path in
    output_string oc "id,v\n";
    if reversed then
      for i = n - 1 downto 0 do
        output_string oc (row_line i)
      done
    else
      for i = 0 to n - 1 do
        output_string oc (row_line i)
      done;
    close_out oc
  in
  write_rows ~reversed:false;
  let limits = { G.unlimited with G.on_change = G.Retry_fresh 2 } in
  (* a cold instance per run, so the raw scan of [S] happens mid-query —
     after the mutator (the product's inner collection, materialized
     first) rewrote the file under the query's pin. With a warm cache
     there is nothing to measure: the cached bytes ARE the pinned
     generation and the query legitimately completes against it. *)
  let fresh_db ~mutate =
    let db = Vida.create ~domains:1 ~limits () in
    Vida.csv db ~name:"S" ~path ();
    let armed = ref mutate in
    Vida.external_source db ~name:"Mut"
      ~element:(Ty.Record [ ("go", Ty.Int) ])
      ~count:(fun () -> 1)
      ~produce:(fun consumer ->
        if !armed then (
          armed := false;
          (* same rows in reverse order: a different file generation
             whose correct answer is unchanged *)
          write_rows ~reversed:true);
        consumer (Value.Record [ ("go", Value.Int 1) ]));
    db
  in
  (* keep the written plan order (S outer, Mut inner): the optimizer
     would hoist the 1-element mutator outermost and materialize S before
     the mutation, leaving nothing to detect *)
  let mvalue_of db query =
    match Vida.query ~reuse:false ~optimize:false db query with
    | Ok r -> r
    | Error e -> failwith (Vida.error_to_string e)
  in
  let mq = "for { r <- S, e <- Mut, e.go = 1 } yield sum r.v" in
  let baseline_r, baseline_s = time (fun () -> mvalue_of (fresh_db ~mutate:false) mq) in
  ignore baseline_r;
  let retry_r, retry_s = time (fun () -> mvalue_of (fresh_db ~mutate:true) mq) in
  let repins =
    List.length
      (List.filter
         (fun f -> f.G.stage = "epoch-repin")
         retry_r.Vida.governor.G.fallbacks)
  in
  let retry_ok = Value.equal retry_r.Vida.value (expected n) in
  Sys.remove path;
  Printf.printf
    "\nmid-query change, %d rows: clean %.2f ms, with %d re-pin retr%s %.2f ms\n" n
    (baseline_s *. 1000.) repins
    (if repins = 1 then "y" else "ies")
    (retry_s *. 1000.);
  let all_ok = retry_ok && List.for_all (fun (_, _, _, _, _, ok) -> ok) size_rows in
  let out = "BENCH_recovery.json" in
  let oc = open_out out in
  Printf.fprintf oc "{\n  \"experiment\": \"recovery\",\n%s  \"scale\": %.3f,\n\
                    \  \"sizes\": [\n" domains_meta_fields sf;
  let last = List.length size_rows - 1 in
  List.iteri
    (fun k (n, appended, build_s, repair_s, rebuild_s, ok) ->
      Printf.fprintf oc
        "    {\"rows\": %d, \"appended_rows\": %d, \"warm_build_s\": %.6f, \
         \"append_repair_s\": %.6f, \"full_rebuild_s\": %.6f, \
         \"repair_speedup\": %.3f, \"differential_ok\": %b}%s\n"
        n appended build_s repair_s rebuild_s (rebuild_s /. repair_s) ok
        (if k = last then "" else ","))
    size_rows;
  Printf.fprintf oc
    "  ],\n  \"repin\": {\"rows\": %d, \"clean_s\": %.6f, \"retry_s\": %.6f, \
     \"repins\": %d, \"differential_ok\": %b},\n  \"differential_ok\": %b\n}\n"
    n baseline_s retry_s repins retry_ok all_ok;
  close_out oc;
  Printf.printf "\nresults agree on every path: %b\n" all_ok;
  if not all_ok then exit 1;
  List.iter
    (fun (n, _, _, repair_s, rebuild_s, _) ->
      Printf.printf "shape check %d rows: repair %.2fx faster than rebuild\n" n
        (rebuild_s /. repair_s))
    size_rows;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* serving: concurrent sessions against one server process            *)
(* ------------------------------------------------------------------ *)

let serving () =
  section "serving: concurrent framed clients against one instance";
  let module Server = Vida_server.Server in
  let module GA = Vida_governor.Governor.Admission in
  let n = max 2_000 (int_of_float (100_000. *. sf)) in
  let buf = Buffer.create (n * 8) in
  Buffer.add_string buf "v,k\n";
  let st = Random.State.make [| 0x5e41 |] in
  for _ = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "%d,%d\n" (Random.State.int st 1000) (Random.State.int st 10))
  done;
  let path = Filename.temp_file "vida_serving" ".csv" in
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc;
  let queries =
    [| "for { s <- S } yield sum s.v"; "for { s <- S } yield count s";
       "for { s <- S, s.v > 500 } yield count s";
       "for { s <- S, s.k = 3 } yield sum s.v" |]
  in
  let run_load clients =
    (* fresh server per load point: lifetime counters start at zero *)
    let db = Vida.create () in
    Vida.csv db ~name:"S" ~path ();
    let config =
      { Server.default_config with
        Server.admission =
          { GA.default_config with
            GA.max_concurrent = 4; max_queue = 8; per_tenant = clients;
            queue_timeout_ms = 50.; retry_after_ms = 25. } }
    in
    let srv = Server.create ~config db in
    let address = Server.address srv in
    let per_client = max 8 (64 / clients) in
    let lock = Mutex.create () in
    let lat = ref [] and ok = ref 0 and shed = ref 0 in
    let threads =
      List.init clients (fun i ->
          Thread.create
            (fun () ->
              let c = Server.Client.connect address in
              for r = 0 to per_client - 1 do
                let q = queries.((i + r) mod Array.length queries) in
                let t0 = now_s () in
                let reply = Server.Client.query c q in
                let dt = now_s () -. t0 in
                let status =
                  match Value.field_opt reply "status" with
                  | Some (Value.String s) -> s
                  | _ -> "?"
                in
                Mutex.protect lock (fun () ->
                    if status = "ok" then (
                      ok := !ok + 1;
                      lat := dt :: !lat)
                    else shed := !shed + 1)
              done;
              Server.Client.close c)
            ())
    in
    List.iter Thread.join threads;
    let stats = Server.stats srv in
    Server.stop srv;
    let sorted = Array.of_list !lat in
    Array.sort compare sorted;
    let total = !ok + !shed in
    let p50 = percentile sorted 0.50 *. 1000. in
    let p99 = percentile sorted 0.99 *. 1000. in
    let shed_rate = float_of_int !shed /. float_of_int (max 1 total) in
    Printf.printf
      "%3d clients: %4d requests, p50 %7.2f ms, p99 %7.2f ms, shed %5.1f%% \
       (served=%d shed=%d)\n"
      clients total p50 p99 (100. *. shed_rate) stats.Server.served
      stats.Server.shed;
    (clients, total, p50, p99, shed_rate, stats.Server.served, stats.Server.shed)
  in
  let rows = List.map run_load [ 1; 8; 32 ] in
  Sys.remove path;
  let out = "BENCH_serving.json" in
  let oc = open_out out in
  Printf.fprintf oc "{\n  \"experiment\": \"serving\",\n%s  \"rows\": %d,\n\
                    \  \"loads\": [\n" domains_meta_fields n;
  let last = List.length rows - 1 in
  List.iteri
    (fun k (clients, total, p50, p99, shed_rate, served, shed) ->
      Printf.fprintf oc
        "    {\"clients\": %d, \"requests\": %d, \"p50_ms\": %.3f, \
         \"p99_ms\": %.3f, \"shed_rate\": %.4f, \"served\": %d, \
         \"shed\": %d}%s\n"
        clients total p50 p99 shed_rate served shed
        (if k = last then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  let one_client_shed =
    match rows with (_, _, _, _, r, _, _) :: _ -> r | [] -> 1.
  in
  Printf.printf "\nshape check: a lone client is never shed: %b\n"
    (one_client_shed = 0.);
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* resilience: guarded-path overhead, breaker trip/heal, reconnects    *)
(* ------------------------------------------------------------------ *)

let resilience () =
  section "resilience: deadline overhead, breaker recovery, reconnects";
  let module Server = Vida_server.Server in
  let module Chaos = Vida_server.Chaos in
  let module GA = Vida_governor.Governor.Admission in
  let module GB = Vida_governor.Governor.Breaker in
  let module Fault = Vida_raw.Fault_plan in
  let n = max 2_000 (int_of_float (50_000. *. sf)) in
  let buf = Buffer.create (n * 8) in
  Buffer.add_string buf "v,k\n";
  let st = Random.State.make [| 0x7e51 |] in
  for _ = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "%d,%d\n" (Random.State.int st 1000) (Random.State.int st 10))
  done;
  let path = Filename.temp_file "vida_resil" ".csv" in
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc;
  let q = "for { s <- S } yield sum s.v" in
  let stats_of lat =
    let sorted = Array.of_list lat in
    Array.sort compare sorted;
    (percentile sorted 0.50 *. 1000., percentile sorted 0.99 *. 1000.)
  in
  (* 1. steady-state overhead of the guarded serving path: per-connection
     deadlines armed and a heartbeat ping interleaved with every request,
     vs an unguarded server — the deadline machinery costs a [select]
     per read/write, which must be noise against query time *)
  let serve_point ~guarded =
    let db = Vida.create () in
    Vida.csv db ~name:"S" ~path ();
    let config =
      if guarded then
        { Server.default_config with
          Server.idle_timeout_ms = Some 5_000.;
          frame_timeout_ms = Some 2_000.; write_timeout_ms = Some 2_000. }
      else
        { Server.default_config with
          Server.idle_timeout_ms = None; frame_timeout_ms = None;
          write_timeout_ms = None }
    in
    let srv = Server.create ~config db in
    let c = Server.Client.connect (Server.address srv) in
    let lat = ref [] in
    let requests = 120 in
    for _ = 1 to requests do
      if guarded then ignore (Server.Client.ping c);
      let t0 = now_s () in
      ignore (Server.Client.query c q);
      lat := (now_s () -. t0) :: !lat
    done;
    Server.Client.close c;
    Server.stop srv;
    stats_of !lat
  in
  let plain_p50, plain_p99 = serve_point ~guarded:false in
  let guard_p50, guard_p99 = serve_point ~guarded:true in
  let overhead_pct = 100. *. (guard_p50 -. plain_p50) /. plain_p50 in
  Printf.printf
    "guarded path: plain p50 %.3f ms p99 %.3f ms | guarded+heartbeat p50 %.3f \
     ms p99 %.3f ms (overhead %.1f%%)\n"
    plain_p50 plain_p99 guard_p50 guard_p99 overhead_pct;
  (* 2. breaker recovery: a tripped breaker sheds in a hashtable probe
     where the failing scan costs a full retry loop; a half-open probe
     closes it as soon as the source heals *)
  let saved_breaker = GB.config () in
  GB.reset ();
  GB.set_config { GB.failure_threshold = 3; cooldown_ms = 150. };
  let db = Vida.create () in
  Vida.csv db ~name:"S" ~path ();
  let failing_s, shed_s =
    Fault.with_plan
      [ Fault.Load { fail = 1_000_000; latency_ms = 0.; only = Some (Filename.basename path) } ]
      (fun () ->
        let failing_s =
          let t0 = now_s () in
          ignore (Vida.query db q);
          now_s () -. t0
        in
        let tripped = ref 0 in
        while GB.state ~source:path <> `Open && !tripped < 10 do
          incr tripped;
          ignore (Vida.query db q)
        done;
        let t0 = now_s () in
        ignore (Vida.query db q);
        (failing_s, now_s () -. t0))
  in
  (* heal: from the moment the source recovers, how long until a query
     flows again (cooldown wait + half-open probe) *)
  let heal_s =
    let t0 = now_s () in
    let rec probe () =
      match Vida.query db q with
      | Ok _ -> now_s () -. t0
      | Error _ ->
        Thread.delay 0.01;
        probe ()
    in
    probe ()
  in
  let breaker_closed = GB.state ~source:path = `Closed in
  GB.set_config saved_breaker;
  GB.reset ();
  let shed_speedup = failing_s /. shed_s in
  Printf.printf
    "breaker: failing scan %.2f ms, open-breaker shed %.4f ms (%.0fx \
     faster), heal-to-first-answer %.1f ms, closed again: %b\n"
    (failing_s *. 1000.) (shed_s *. 1000.) shed_speedup (heal_s *. 1000.)
    breaker_closed;
  (* 3. reconnect recovery: the self-healing client through a resetting
     proxy — every logical query must be answered; the p99 bounds the
     reconnect-and-resubmit recovery latency *)
  let db = Vida.create () in
  Vida.csv db ~name:"S" ~path ();
  let srv = Server.create db in
  let direct_lat = ref [] in
  let cd = Server.Client.connect (Server.address srv) in
  for _ = 1 to 60 do
    let t0 = now_s () in
    ignore (Server.Client.query cd q);
    direct_lat := (now_s () -. t0) :: !direct_lat
  done;
  Server.Client.close cd;
  let direct_p50, _ = stats_of !direct_lat in
  let proxy =
    Chaos.start ~seed:99
      ~config:{ Chaos.calm with Chaos.reset_p = 0.25 }
      (Server.address srv)
  in
  let rc =
    Server.Client.connect_resilient
      ~retry:
        { Server.Client.default_retry with
          Server.Client.max_attempts = 20; base_backoff_ms = 2.;
          max_backoff_ms = 50.; seed = 17 }
      (Chaos.address proxy)
  in
  let requests = 80 in
  let lat = ref [] and ok = ref 0 in
  for _ = 1 to requests do
    let t0 = now_s () in
    let reply = Server.Client.rquery rc q in
    let dt = now_s () -. t0 in
    lat := dt :: !lat;
    match Value.field_opt reply "status" with
    | Some (Value.String "ok") -> incr ok
    | _ -> ()
  done;
  let reconnects = Server.Client.reconnects rc in
  Server.Client.close_resilient rc;
  Chaos.stop proxy;
  Server.stop srv;
  Sys.remove path;
  let re_p50, re_p99 = stats_of !lat in
  Printf.printf
    "reconnect: %d/%d answered through a resetting proxy (%d reconnects), \
     p50 %.3f ms p99 %.3f ms (direct p50 %.3f ms)\n"
    !ok requests reconnects re_p50 re_p99 direct_p50;
  let all_ok = !ok = requests && shed_speedup > 5. && breaker_closed in
  let out = "BENCH_resilience.json" in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"experiment\": \"resilience\",\n%s  \"rows\": %d,\n\
    \  \"overhead\": {\"plain_p50_ms\": %.4f, \"plain_p99_ms\": %.4f, \
     \"guarded_p50_ms\": %.4f, \"guarded_p99_ms\": %.4f, \
     \"overhead_pct\": %.2f},\n\
    \  \"breaker\": {\"failing_query_ms\": %.4f, \"open_shed_ms\": %.4f, \
     \"shed_speedup\": %.1f, \"heal_ms\": %.4f, \"closed_after_heal\": %b},\n\
    \  \"reconnect\": {\"requests\": %d, \"answered\": %d, \
     \"reconnects\": %d, \"p50_ms\": %.4f, \"p99_ms\": %.4f, \
     \"direct_p50_ms\": %.4f},\n\
    \  \"ok\": %b\n}\n"
    domains_meta_fields n plain_p50 plain_p99 guard_p50 guard_p99 overhead_pct
    (failing_s *. 1000.) (shed_s *. 1000.) shed_speedup (heal_s *. 1000.)
    breaker_closed requests !ok reconnects re_p50 re_p99 direct_p50 all_ok;
  close_out oc;
  Printf.printf "\nshape check: shed is %.0fx cheaper than the failing scan, \
                 every query answered: %b\n" shed_speedup all_ok;
  if not all_ok then exit 1;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* durability: cold vs warm boot over a state directory                *)
(* ------------------------------------------------------------------ *)

let durability () =
  section "durability: cold vs warm boot (state-directory reuse)";
  if not (Sys.file_exists data_dir) then Sys.mkdir data_dir 0o755;
  let q = "for { r <- S } yield sum r.v" in
  let row_line i = Printf.sprintf "%d,%d\n" i (i mod 1000) in
  let value_of db query =
    match Vida.query db query with
    | Ok r -> r.Vida.value
    | Error e -> failwith (Vida.error_to_string e)
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  (* time-to-first-result includes instance boot: that is what a restart
     actually costs an operator *)
  let boot ~dir ~path =
    let db = Vida.create ~domains:1 ~state_dir:dir () in
    Vida.csv db ~name:"S" ~path ();
    let v = value_of db q in
    (db, v)
  in
  let sizes =
    List.map
      (fun base -> max 5_000 (int_of_float (float_of_int base *. sf)))
      [ 200_000; 1_000_000 ]
  in
  Printf.printf "%-10s %16s %16s %9s %10s %10s\n" "rows" "cold first ms"
    "warm first ms" "speedup" "plan warm" "pm restore";
  let rows =
    List.map
      (fun n ->
        let path =
          Filename.concat data_dir (Printf.sprintf "durability_%d.csv" n)
        in
        let oc = open_out_bin path in
        output_string oc "id,v\n";
        for i = 0 to n - 1 do
          output_string oc (row_line i)
        done;
        close_out oc;
        let dir =
          Filename.concat data_dir (Printf.sprintf "durability_state_%d" n)
        in
        rm_rf dir;
        (* cold: an empty state directory — the first result pays the
           positional-map build and the plan compile *)
        let (db1, v1), cold_s = time (fun () -> boot ~dir ~path) in
        let sr1 = Option.get (Vida.state_report db1) in
        let cold_rebuilds = sr1.Vida.sr_structure_rebuilds in
        ignore (Vida.persist_state db1);
        Vida.close_state db1;
        (* warm: a restarted process boots from the persisted artifacts *)
        let (db2, v2), warm_s = time (fun () -> boot ~dir ~path) in
        let sr2 = Option.get (Vida.state_report db2) in
        let ok =
          Value.equal v1 v2
          && sr2.Vida.sr_plan_warm_hits >= 1
          && sr2.Vida.sr_structure_restores >= 1
          && sr2.Vida.sr_structure_rebuilds = 0
        in
        Vida.close_state db2;
        Printf.printf "%-10d %16.2f %16.2f %8.1fx %10d %10d%s\n" n
          (cold_s *. 1000.) (warm_s *. 1000.)
          (cold_s /. warm_s) sr2.Vida.sr_plan_warm_hits
          sr2.Vida.sr_structure_restores
          (if ok then "" else "  DIVERGED");
        Sys.remove path;
        rm_rf dir;
        ( n, cold_s, warm_s, cold_rebuilds, sr2.Vida.sr_plan_warm_hits,
          sr2.Vida.sr_structure_restores, sr2.Vida.sr_structure_rebuilds, ok ))
      sizes
  in
  let all_ok = List.for_all (fun (_, _, _, _, _, _, _, ok) -> ok) rows in
  let out = "BENCH_durability.json" in
  let oc = open_out out in
  Printf.fprintf oc "{\n  \"experiment\": \"durability\",\n%s  \"scale\": %.3f,\n\
                    \  \"sizes\": [\n" domains_meta_fields sf;
  let last = List.length rows - 1 in
  List.iteri
    (fun k (n, cold_s, warm_s, cold_rebuilds, warm_hits, restores, rebuilds, ok) ->
      Printf.fprintf oc
        "    {\"rows\": %d, \"cold_first_result_s\": %.6f, \
         \"warm_first_result_s\": %.6f, \"warm_speedup\": %.3f, \
         \"cold_rebuilds\": %d, \"plan_warm_hits\": %d, \
         \"structure_restores\": %d, \"warm_rebuilds\": %d, \
         \"differential_ok\": %b}%s\n"
        n cold_s warm_s (cold_s /. warm_s) cold_rebuilds warm_hits restores
        rebuilds ok
        (if k = last then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"ok\": %b\n}\n" all_ok;
  close_out oc;
  Printf.printf "\nwarm boot skipped every rebuild and answers agree: %b\n" all_ok;
  if not all_ok then exit 1;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table2", table2);
    ("figure5", figure5);
    ("figure4", figure4);
    ("ablation-jit", ablation_jit);
    ("ablation-posmap", ablation_posmap);
    ("ablation-cache", ablation_cache);
    ("ablation-groupby", ablation_groupby);
    ("ablation-feedback", ablation_feedback);
    ("ablation-zonemaps", ablation_zonemaps);
    ("ablation-parallel", ablation_parallel);
    ("parallel", parallel_bench);
    ("vectorized", vectorized_bench);
    ("governor", governor);
    ("recovery", recovery);
    ("serving", serving);
    ("resilience", resilience);
    ("durability", durability);
    ("micro", micro)
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  Printf.printf "ViDa benchmark harness (scale=%.3f, queries=%d)\n" sf n_queries;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 2)
    requested
