open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
module Governor = Vida_governor.Governor
module Epoch = Vida_raw.Epoch
module Binarray = Vida_raw.Binarray
module BA1 = Bigarray.Array1

(* Vectorized batch execution (paper §4: "operate over raw data as fast as
   the hardware allows").

   The closure engine executes tuple-at-a-time: per row it pays a governor
   poll, a record allocation, a closure call per operator and a monoid
   merge allocation. This module replaces that hot loop for the commonest
   plan shape — Reduce over a Select*/Map* chain on one columnar source —
   and for Reduce over a tree of equi-joins and unnests of such chains
   (the join fragment below) with batch-at-a-time kernels:

   - source columns live in unboxed buffers ([Bigarray] float64/int) plus
     a byte validity mask (1 = non-NULL), promoted once per physical
     column (memoized) or batch-decoded straight out of a binary-array
     file ({!Binarray.fill_floats}); a string column is the cached
     [Value.t array] itself, compared in place;
   - a selection vector (row indices surviving the filters so far) is
     threaded through the operators instead of materializing intermediate
     rows; filters compact it in place, binds evaluate into dense buffers
     aligned with it;
   - select→map→reduce is fused: each batch runs a handful of tight array
     loops and folds directly into a scalar accumulator;
   - governor cancellation polls, epoch ticks and memory charges are
     hoisted to batch boundaries ({!Governor.poll_batch} advances the poll
     counter by the whole batch, so deadline/cancellation/budget semantics
     stay record-equivalent).

   Scalar semantics are bit-compatible with {!Eval.eval_binop} /
   {!Monoid}: Int-vs-Float result types are preserved by typing every
   kernel statically (a column mixing Int and Float declines), comparisons
   use [Float.compare] (NaN totally ordered, as [Value.compare] does),
   integer division/modulo by zero raise the same {!Eval.Error}s, NULLs
   propagate through validity masks, and the sequential entry accumulates
   in row order so float folds associate exactly as the closure engine's.

   Anything outside the fragment — other monoids, non-scalar expressions,
   string arithmetic, concatenation or bindings, mixed-type or non-scalar
   columns, sources without a columnar view
   (cleaning policies skipping rows, external producers) — declines with a
   reason; the caller ({!Compile.query}) records it as the
   ["vectorized->closure"] rung of the degradation ladder and runs the
   closure engine instead. *)

exception Not_vectorizable of string

let decline fmt = Format.kasprintf (fun s -> raise (Not_vectorizable s)) fmt

(* --- configuration ---------------------------------------------------- *)

let default_batch_rows = 4096

let env_batch_rows =
  match Sys.getenv_opt "VIDA_BATCH_ROWS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let batch_rows_ref = ref (Option.value env_batch_rows ~default:default_batch_rows)
let set_batch_rows n = batch_rows_ref := max 1 n
let batch_rows () = !batch_rows_ref

let enabled_ref =
  ref
    (match Sys.getenv_opt "VIDA_VECTOR" with
    | Some ("0" | "off" | "false") -> false
    | _ -> true)

let set_enabled b = enabled_ref := b
let enabled () = !enabled_ref

(* --- process-global statistics (server health) ------------------------ *)

type stats = {
  kernels : int;  (* queries (or morsel fleets) that compiled a kernel *)
  batches : int;
  rows : int;
  fallbacks : int;
  batch_rows_p50 : int;  (* over recent batches *)
  last_fallbacks : string list;  (* most recent reasons, newest first *)
}

let s_kernels = Atomic.make 0
let s_batches = Atomic.make 0
let s_rows = Atomic.make 0
let ring_cap = 256

(* ring entries are atomics: slots are claimed with a fetch-and-add on the
   cursor and written from every worker domain, so a plain array could
   serve the p50 torn or stale values under the memory model *)
let s_ring = Array.init ring_cap (fun _ -> Atomic.make 0)
let s_cursor = Atomic.make 0

(* the fallback counter and its reason ring move together under the lock:
   a health snapshot must never show reasons without matching counts *)
let reasons_lock = Vida_sync.Lock.create ~rank:70 ~name:"vector.reasons" ()
let s_fallbacks = ref 0
let s_reasons : string list ref = ref []

let note_batch rows =
  ignore (Atomic.fetch_and_add s_batches 1);
  ignore (Atomic.fetch_and_add s_rows rows);
  let slot = Atomic.fetch_and_add s_cursor 1 in
  Atomic.set s_ring.(slot mod ring_cap) rows

let note_global_fallback reason =
  Vida_sync.Lock.protect reasons_lock (fun () ->
      incr s_fallbacks;
      s_reasons :=
        reason :: (if List.length !s_reasons >= 8 then List.filteri (fun i _ -> i < 7) !s_reasons else !s_reasons))

let stats () =
  let filled = min (Atomic.get s_cursor) ring_cap in
  let p50 =
    if filled = 0 then 0
    else begin
      let xs = Array.init filled (fun i -> Atomic.get s_ring.(i)) in
      Array.sort compare xs;
      xs.(filled / 2)
    end
  in
  let fallbacks, last_fallbacks =
    Vida_sync.Lock.protect reasons_lock (fun () -> (!s_fallbacks, !s_reasons))
  in
  { kernels = Atomic.get s_kernels; batches = Atomic.get s_batches;
    rows = Atomic.get s_rows; fallbacks;
    batch_rows_p50 = p50;
    last_fallbacks }

let reset_stats () =
  Atomic.set s_kernels 0;
  Atomic.set s_batches 0;
  Atomic.set s_rows 0;
  Atomic.set s_cursor 0;
  Vida_sync.Lock.protect reasons_lock (fun () ->
      s_fallbacks := 0;
      s_reasons := [])

(* --- unboxed columns -------------------------------------------------- *)

type fcol = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type icol = (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t

(* A source column. Validity [None] means every row is non-NULL (the
   gather loops skip the mask copy). [ColRaw*] columns are batch-decoded
   straight from the binary-array file into per-instance staging buffers —
   no whole-column materialization at all. [ColS] is a cached column of
   strings and NULLs, read in place: its NULLs are its validity. *)
type col =
  | ColF of fcol * Bytes.t option
  | ColI of icol * Bytes.t option
  | ColB of Bytes.t * Bytes.t option
  | ColS of Value.t array
  | ColRawF of Binarray.t * int
  | ColRawI of Binarray.t * int

type vty = TF | TI | TB | TS

let col_ty = function
  | ColF _ | ColRawF _ -> TF
  | ColI _ | ColRawI _ -> TI
  | ColB _ -> TB
  | ColS _ -> TS

(* Promote a boxed (policy-cleaned, cache-resident) column to its unboxed
   form. The type is exact, never widened: a column mixing Int and Float
   declines, because Int-vs-Float result typing in {!Eval} is per-row and
   a widened column would change result types; so does one mixing
   strings with other values. *)
let promote ~field (arr : Value.t array) : col =
  let n = Array.length arr in
  let kind = ref `Unknown and nulls = ref false in
  (try
     for i = 0 to n - 1 do
       match Array.unsafe_get arr i with
       | Value.Null -> nulls := true
       | Value.Float _ -> (
         match !kind with `Unknown -> kind := `F | `F -> () | _ -> raise Exit)
       | Value.Int _ -> (
         match !kind with `Unknown -> kind := `I | `I -> () | _ -> raise Exit)
       | Value.Bool _ -> (
         match !kind with `Unknown -> kind := `B | `B -> () | _ -> raise Exit)
       | Value.String _ -> (
         match !kind with `Unknown -> kind := `S | `S -> () | _ -> raise Exit)
       | _ -> raise Exit
     done
   with Exit -> decline "column %s is not a uniform numeric, bool or string column" field);
  let validity () =
    if not !nulls then None
    else begin
      let v = Bytes.make n '\001' in
      for i = 0 to n - 1 do
        if arr.(i) = Value.Null then Bytes.unsafe_set v i '\000'
      done;
      Some v
    end
  in
  match !kind with
  | `Unknown -> decline "column %s has no typed values" field
  | `S -> ColS arr
  | `F ->
    let a = BA1.create Bigarray.float64 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      match Array.unsafe_get arr i with
      | Value.Float f -> BA1.unsafe_set a i f
      | _ -> BA1.unsafe_set a i 0.
    done;
    ColF (a, validity ())
  | `I ->
    let a = BA1.create Bigarray.int Bigarray.c_layout n in
    for i = 0 to n - 1 do
      match Array.unsafe_get arr i with
      | Value.Int x -> BA1.unsafe_set a i x
      | _ -> BA1.unsafe_set a i 0
    done;
    ColI (a, validity ())
  | `B ->
    let a = Bytes.make n '\000' in
    for i = 0 to n - 1 do
      match Array.unsafe_get arr i with
      | Value.Bool true -> Bytes.unsafe_set a i '\001'
      | _ -> ()
    done;
    ColB (a, validity ())

(* A cached column of arrays, shredded into child rows: every element of
   every array, in parent order and then array order (the closure
   engine's unnest order). A NULL array has no child rows, as in
   {!Compile}. Child field columns are built on first use and kept
   beside it. *)
type shred = {
  sh_off : int array;  (* parent row i owns child rows [sh_off.(i), sh_off.(i+1)) *)
  sh_children : Value.t array;  (* the child records *)
  mutable sh_fields : (string * Value.t array) list;  (* under [memo_lock] *)
}

let shred ~field (arr : Value.t array) : shred =
  let n = Array.length arr in
  let size = function
    | Value.Null -> 0
    | Value.List xs | Value.Bag xs | Value.Set xs -> List.length xs
    | Value.Array { data; _ } -> Array.length data
    | _ -> decline "field %s is not an array" field
  in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + size (Array.unsafe_get arr i)
  done;
  let children = Array.make off.(n) Value.Null in
  let next = ref 0 in
  let add v =
    (match v with
    | Value.Record _ -> ()
    | v -> decline "array %s has a non-record element %s" field (Value.to_string v));
    children.(!next) <- v;
    incr next
  in
  for i = 0 to n - 1 do
    match Array.unsafe_get arr i with
    | Value.List xs | Value.Bag xs | Value.Set xs -> List.iter add xs
    | Value.Array { data; _ } -> Array.iter add data
    | _ -> ()
  done;
  { sh_off = off; sh_children = children; sh_fields = [] }

(* Promotion memo, keyed by physical identity of the boxed column: the
   plugins cache hands out the same immutable array until invalidation,
   and live-data extension replaces arrays wholesale, so [==] is exact.
   Bounded FIFO. The key is weak: a column the cache replaced (an append
   extends it into a new array) is not kept alive by its memo entry, and
   neither is its promotion. A column of arrays memoizes its shredding;
   its child field columns are keyed by their own arrays, which the
   shredding keeps alive. *)
type promoted = Promoted of col | Shredded of shred

let memo : (Value.t array, promoted) Ephemeron.K1.t list ref = ref []
let memo_lock = Vida_sync.Lock.create ~rank:65 ~name:"vector.memo" ()
let memo_cap = 64

let memoized arr make =
  match
    Vida_sync.Lock.protect memo_lock (fun () ->
        List.find_map (fun e -> Ephemeron.K1.query e arr) !memo)
  with
  | Some p -> p
  | None ->
    let p = make () in
    Vida_sync.Lock.protect memo_lock (fun () ->
        let kept =
          if List.length !memo >= memo_cap then
            List.filteri (fun i _ -> i < memo_cap - 1) !memo
          else !memo
        in
        memo := Ephemeron.K1.make arr p :: kept);
    p

let promote_memo ~field arr =
  match memoized arr (fun () -> Promoted (promote ~field arr)) with
  | Promoted c -> c
  | Shredded _ -> decline "column %s holds arrays" field

let shred_memo ~field arr =
  match memoized arr (fun () -> Shredded (shred ~field arr)) with
  | Shredded sh -> sh
  | Promoted _ -> decline "field %s is not an array" field

(* Child field [f] of every child row: NULL where a child lacks it. The
   first array built is the one kept, so promotions keyed by it stay
   valid. *)
let child_column sh f =
  let kept () = List.assoc_opt f sh.sh_fields in
  match Vida_sync.Lock.protect memo_lock kept with
  | Some a -> a
  | None ->
    let a =
      Array.map
        (fun c -> match Value.field_opt c f with Some v -> v | None -> Value.Null)
        sh.sh_children
    in
    Vida_sync.Lock.protect memo_lock (fun () ->
        match kept () with
        | Some a -> a
        | None ->
          sh.sh_fields <- (f, a) :: sh.sh_fields;
          a)

(* --- typed kernel IR -------------------------------------------------- *)

(* Every node carries its static result type; Int->Float coercions are
   explicit ([XItoF]), inserted where {!Eval.eval_binop}'s mixed-operand
   rules would convert. [XDivF]'s flag marks a statically-Int divisor:
   eval raises on [_ / Int 0] even when the dividend is Float, and the
   Int->Float conversion is exact at 0, so the check survives coercion.
   String operands ([XConstS], [XColS]) occur only under [XCmpS], whose
   constant, if any, is on the right. *)
type vx =
  | XConstF of float
  | XConstI of int
  | XConstB of bool
  | XConstS of string
  | XColF of int
  | XColI of int
  | XColB of int
  | XColS of int
  | XBind of int * vty
  | XItoF of vx
  | XArithF of Expr.binop * vx * vx
  | XArithI of Expr.binop * vx * vx
  | XDivF of vx * vx * bool  (* divisor statically Int: zero still raises *)
  | XDivI of vx * vx
  | XModI of vx * vx
  | XCmpF of Expr.binop * vx * vx
  | XCmpI of Expr.binop * vx * vx
  | XCmpS of Expr.binop * vx * vx
  | XAnd of vx * vx
  | XOr of vx * vx
  | XNot of vx
  | XNegF of vx
  | XNegI of vx

let vx_ty = function
  | XConstF _ | XColF _ | XItoF _ | XArithF _ | XDivF _ | XNegF _ -> TF
  | XConstI _ | XColI _ | XArithI _ | XDivI _ | XModI _ | XNegI _ -> TI
  | XConstB _ | XColB _ | XCmpF _ | XCmpI _ | XCmpS _ | XAnd _ | XOr _ | XNot _ -> TB
  | XConstS _ | XColS _ -> TS
  | XBind (_, ty) -> ty

(* Compile one scalar expression to the typed IR. [cols] maps source
   fields (projections off a generator variable) to column slots,
   [var_cols] maps join-leaf bind variables to the columns they were
   scattered into, [binds] maps Map-introduced variables to bind slots,
   parameters fold to constants. Everything else declines with the
   offending construct. *)
type cenv = {
  src_vars : string list;
  cols : ((string * string) * int) list;
  var_cols : (string * int) list;
  col_tys : vty array;
  binds : (string * int) list;
  bind_tys : vty array;
  params : (string * Value.t) list;
}

let col_x env slot =
  match env.col_tys.(slot) with
  | TF -> XColF slot
  | TI -> XColI slot
  | TB -> XColB slot
  | TS -> XColS slot

(* the comparison with its operands swapped: [a op b] is [b (flip op) a] *)
let flip = function
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le
  | op -> op

let rec cx env (e : Expr.t) : vx =
  match e with
  | Expr.Const (Value.Int i) -> XConstI i
  | Expr.Const (Value.Float f) -> XConstF f
  | Expr.Const (Value.Bool b) -> XConstB b
  | Expr.Const (Value.String s) -> XConstS s
  | Expr.Const v -> decline "non-scalar constant %s" (Value.to_string v)
  | Expr.Proj (Expr.Var v, f) when List.mem v env.src_vars -> (
    match List.assoc_opt (v, f) env.cols with
    | None -> decline "field %s has no promoted column" f
    | Some slot -> col_x env slot)
  | Expr.Var x -> (
    match List.assoc_opt x env.binds with
    | Some slot -> XBind (slot, env.bind_tys.(slot))
    | None -> (
      match List.assoc_opt x env.var_cols with
      | Some slot -> col_x env slot
      | None ->
      if List.mem x env.src_vars then decline "whole-row reference %s" x
      else
        match List.assoc_opt x env.params with
        | Some (Value.Int i) -> XConstI i
        | Some (Value.Float f) -> XConstF f
        | Some (Value.Bool b) -> XConstB b
        | Some (Value.String s) -> XConstS s
        | Some v -> decline "non-scalar parameter %s = %s" x (Value.to_string v)
        | None -> decline "free variable %s" x))
  | Expr.UnOp (Expr.Not, a) -> (
    let xa = cx env a in
    match vx_ty xa with
    | TB -> XNot xa
    | _ -> decline "'not' on non-boolean kernel operand")
  | Expr.UnOp (Expr.Neg, a) -> (
    let xa = cx env a in
    match vx_ty xa with
    | TF -> XNegF xa
    | TI -> XNegI xa
    | TB | TS -> decline "negation of non-numeric kernel operand")
  | Expr.BinOp (op, a, b) -> (
    let xa = cx env a and xb = cx env b in
    let ta = vx_ty xa and tb = vx_ty xb in
    let as_f x = if vx_ty x = TI then XItoF x else x in
    match op with
    | Expr.Add | Expr.Sub | Expr.Mul -> (
      match ta, tb with
      | TI, TI -> XArithI (op, xa, xb)
      | (TI | TF), (TI | TF) -> XArithF (op, as_f xa, as_f xb)
      | _ -> decline "arithmetic on non-numeric kernel operand")
    | Expr.Div -> (
      match ta, tb with
      | TI, TI -> XDivI (xa, xb)
      | (TI | TF), (TI | TF) -> XDivF (as_f xa, as_f xb, tb = TI)
      | _ -> decline "division on non-numeric kernel operand")
    | Expr.Mod -> (
      match ta, tb with
      | TI, TI -> XModI (xa, xb)
      | _ -> decline "modulo on non-integer kernel operands")
    | Expr.Eq | Expr.Neq | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> (
      match ta, tb with
      | TI, TI -> XCmpI (op, xa, xb)
      | (TI | TF), (TI | TF) -> XCmpF (op, as_f xa, as_f xb)
      | TS, TS -> (
        match xa with XConstS _ -> XCmpS (flip op, xb, xa) | _ -> XCmpS (op, xa, xb))
      | _ -> decline "comparison on boolean or mixed kernel operands")
    | Expr.And -> (
      match ta, tb with
      | TB, TB -> XAnd (xa, xb)
      | _ -> decline "'and' on non-boolean kernel operands")
    | Expr.Or -> (
      match ta, tb with
      | TB, TB -> XOr (xa, xb)
      | _ -> decline "'or' on non-boolean kernel operands")
    | Expr.Concat -> decline "string concatenation")
  | Expr.Proj _ -> decline "projection off a non-source value"
  | Expr.If _ -> decline "conditional"
  | Expr.Record _ -> decline "record construction"
  | Expr.Lambda _ | Expr.Apply _ -> decline "function value"
  | Expr.Zero _ | Expr.Singleton _ | Expr.Merge _ | Expr.Comp _ ->
    decline "nested monoid expression"
  | Expr.Index _ -> decline "array indexing"

(* Structural (type-independent) support check, used by {!classify} so
   statically hopeless plans are declined before any column is fetched. *)
let rec structurally_supported ~src_vars (e : Expr.t) : (unit, string) result =
  let sub a b =
    match structurally_supported ~src_vars a with
    | Error _ as err -> err
    | Ok () -> structurally_supported ~src_vars b
  in
  match e with
  | Expr.Const (Value.Int _ | Value.Float _ | Value.Bool _ | Value.String _) -> Ok ()
  | Expr.Const v -> Error ("non-scalar constant " ^ Value.to_string v)
  | Expr.Proj (Expr.Var v, _) when List.mem v src_vars -> Ok ()
  | Expr.Var x when List.mem x src_vars -> Error ("whole-row reference " ^ x)
  | Expr.Var _ -> Ok () (* bind var or parameter; typing decides at run *)
  | Expr.UnOp (_, a) -> structurally_supported ~src_vars a
  | Expr.BinOp (Expr.Concat, _, _) -> Error "string concatenation"
  | Expr.BinOp (_, a, b) -> sub a b
  | Expr.Proj _ -> Error "projection off a non-source value"
  | Expr.If _ -> Error "conditional"
  | Expr.Record _ -> Error "record construction"
  | Expr.Lambda _ | Expr.Apply _ -> Error "function value"
  | Expr.Zero _ | Expr.Singleton _ | Expr.Merge _ | Expr.Comp _ ->
    Error "nested monoid expression"
  | Expr.Index _ -> Error "array indexing"

(* Fields of the source the kernels touch: projections off the chain var. *)
let rec proj_fields ~src_var acc (e : Expr.t) =
  match e with
  | Expr.Proj (Expr.Var v, f) when String.equal v src_var ->
    if List.mem f acc then acc else f :: acc
  | Expr.Const _ | Expr.Var _ -> acc
  | Expr.UnOp (_, a) -> proj_fields ~src_var acc a
  | Expr.BinOp (_, a, b) -> proj_fields ~src_var (proj_fields ~src_var acc a) b
  | Expr.Proj (a, _) -> proj_fields ~src_var acc a
  | Expr.If (a, b, c) ->
    proj_fields ~src_var (proj_fields ~src_var (proj_fields ~src_var acc a) b) c
  | Expr.Record fs ->
    List.fold_left (fun acc (_, e) -> proj_fields ~src_var acc e) acc fs
  | Expr.Lambda (_, a) -> proj_fields ~src_var acc a
  | Expr.Apply (a, b) | Expr.Merge (_, a, b) ->
    proj_fields ~src_var (proj_fields ~src_var acc a) b
  | Expr.Zero _ -> acc
  | Expr.Singleton (_, a) -> proj_fields ~src_var acc a
  | Expr.Comp _ -> acc
  | Expr.Index (a, idxs) ->
    List.fold_left (proj_fields ~src_var) (proj_fields ~src_var acc a) idxs

(* --- plan classification ---------------------------------------------- *)

type vstep = VFilter of Expr.t | VBind of string * Expr.t

let step_expr = function VFilter p -> p | VBind (_, e) -> e

type candidate = {
  source : Source.t;
  name : string;
  var : string;
  steps : vstep list;  (* execution order *)
  monoid : Monoid.t;
  head : Expr.t;
  fields : string list;
}

let monoid_supported = function
  | Monoid.Prim
      ( Monoid.Sum | Monoid.Prod | Monoid.Count | Monoid.Avg | Monoid.Max
      | Monoid.Min | Monoid.All | Monoid.Some_ ) ->
    Ok ()
  | m -> Error ("monoid " ^ Monoid.name m ^ " has no fused kernel")

(* Select/Map operators above a core, in the closure engine's evaluation
   order: inner operators first, and within a run of Selects the
   outermost predicate first (Compile chains a gathered run that way).
   Also returns the run of Selects sitting directly on the core. *)
let rec peel (p : Plan.t) : vstep list * Plan.t * Expr.t list =
  match p with
  | Plan.Select _ ->
    let rec gather preds (p : Plan.t) =
      match p with
      | Plan.Select { pred; child } -> gather (pred :: preds) child
      | p -> (List.rev preds, p)
    in
    let preds, child = gather [] p in
    let steps, core, direct = peel child in
    let direct = match child with Plan.Map _ -> direct | _ -> preds in
    (steps @ List.map (fun p -> VFilter p) preds, core, direct)
  | Plan.Map { var; expr; child } ->
    let steps, core, direct = peel child in
    (steps @ [ VBind (var, expr) ], core, direct)
  | core -> ([], core, [])

(* A Select*/Map* chain on a named source: its variable, the source and
   the steps in the closure engine's order, so filters see the rows, and
   record the selectivities, that they see there. *)
let decompose (p : Plan.t) =
  match peel p with
  | steps, Plan.Source { var; expr = Expr.Var name }, _ -> Some (var, name, steps)
  | _ -> None

(* [`Silent] = the plan shape was never a vectorization candidate (joins,
   bare chains, subplans…): the closure engine is the designed path, no
   fallback is recorded. [`Decline] = the shape matched but a detail rules
   the kernels out: recorded as the vectorized->closure rung. *)
let classify ctx (p : Plan.t) :
    [ `Candidate of candidate | `Decline of string | `Silent ] =
  if not (enabled ()) then `Silent
  else
    match p with
    | Plan.Reduce { monoid; head; child } -> (
      match decompose child with
      | None -> `Silent
      | Some (var, name, steps) -> (
        match Registry.find ctx.Plugins.registry name with
        | None -> `Silent
        | Some source -> (
          match source.Source.format with
          | Source.External _ -> `Silent
          | _ -> (
            match monoid_supported monoid with
            | Error reason -> `Decline reason
            | Ok () -> (
              let check e = structurally_supported ~src_vars:[ var ] e in
              match
                List.find_map
                  (fun e -> match check e with Ok () -> None | Error r -> Some r)
                  (List.map step_expr steps @ [ head ])
              with
              | Some reason -> `Decline reason
              | None -> (
                (* the fields the plan needs, in [plan_var_needs] order *)
                match Analysis.plan_var_needs p ~var with
                | Analysis.Whole -> `Decline ("whole-row reference " ^ var)
                | Analysis.Fields fields ->
                  `Candidate { source; name; var; steps; monoid; head; fields }))))))
    | _ -> `Silent

(* --- compiled kernels -------------------------------------------------- *)

type feedback_tap = {
  tap_pred : Expr.t;
  seen : int Atomic.t;
  passed : int Atomic.t;
}

type kstep = KFilter of vx * feedback_tap | KBind of int * vx

type kernel = {
  k_name : string;  (* registry name, for epoch ticks & poll source *)
  k_cols : col array;
  k_nrows : int;
  k_steps : kstep list;
  k_nbinds : int;
  k_head : vx;
  k_monoid : Monoid.t;
  k_taps : feedback_tap list;
  k_prune : (Binarray.t * Binarray.range list) option;
      (* zone-map batch pruning for direct binary-array scans *)
}

let new_tap pred = { tap_pred = pred; seen = Atomic.make 0; passed = Atomic.make 0 }

let type_filter env pred =
  let x = cx env pred in
  if vx_ty x <> TB then decline "filter is not boolean-typed";
  x

(* Type a step list in execution order: binds take slots in order and may
   reference earlier binds. Returns the environment with every bind in
   scope, the typed steps, their feedback taps and the bind count. *)
let type_steps env steps =
  let bind_names =
    List.filter_map (function VBind (v, _) -> Some v | VFilter _ -> None) steps
  in
  let nbinds = List.length bind_names in
  let bind_slots = List.mapi (fun i v -> (v, i)) bind_names in
  let bind_tys = Array.make (max nbinds 1) TF in
  let env = { env with binds = []; bind_tys } in
  let env, ksteps, taps =
    List.fold_left
      (fun (env, acc, taps) s ->
        match s with
        | VFilter p ->
          let tap = new_tap p in
          (env, KFilter (type_filter env p, tap) :: acc, tap :: taps)
        | VBind (v, e) ->
          let x = cx env e in
          if vx_ty x = TS then decline "string binding %s" v;
          let slot = List.assoc v bind_slots in
          bind_tys.(slot) <- vx_ty x;
          ({ env with binds = (v, slot) :: env.binds }, KBind (slot, x) :: acc, taps))
      (env, [], []) steps
  in
  (env, List.rev ksteps, taps, nbinds)

let check_head_type monoid head_ty =
  match monoid, head_ty with
  | _, TS -> decline "monoid %s over a string head" (Monoid.name monoid)
  | Monoid.Prim (Monoid.Sum | Monoid.Prod | Monoid.Avg | Monoid.Max | Monoid.Min), TB
    ->
    decline "numeric monoid over a boolean head"
  | Monoid.Prim (Monoid.All | Monoid.Some_), (TF | TI) ->
    decline "boolean monoid over a numeric head"
  | _ -> ()

(* Build a kernel for an already-resolved chain: typed columns, typed
   steps, typed head, reduce kind validated against the head type. *)
let build_kernel ?prune ~name ~var ~(cols : (string * col) array) ~nrows ~steps
    ~monoid ~head ~params () : kernel =
  let col_tys = Array.map (fun (_, c) -> col_ty c) cols in
  let col_slots = Array.to_list (Array.mapi (fun i (f, _) -> ((var, f), i)) cols) in
  let env =
    { src_vars = [ var ]; cols = col_slots; var_cols = []; col_tys; binds = [];
      bind_tys = [||]; params }
  in
  let env, ksteps, taps, nbinds = type_steps env steps in
  let head_x = cx env head in
  check_head_type monoid (vx_ty head_x);
  ignore (Atomic.fetch_and_add s_kernels 1);
  { k_name = name; k_cols = Array.map snd cols; k_nrows = nrows;
    k_steps = ksteps; k_nbinds = nbinds; k_head = head_x;
    k_monoid = monoid; k_taps = taps; k_prune = prune }

(* --- instances: per-domain scratch + the batch loop -------------------- *)

type vval = VF of float array * Bytes.t | VI of int array * Bytes.t | VB of Bytes.t * Bytes.t

let dummy_vval = VB (Bytes.create 0, Bytes.create 0)

(* Batch buffers outlive no kernel run. Arrays longer than 256 words go
   straight to the major heap, so a fresh set per query would drive
   major-GC work that lands on whatever runs next; each domain keeps the
   buffers of finished runs for the next one instead. *)
type buffer_pool = {
  mutable floats : float array list;
  mutable ints : int array list;
  mutable bytes : Bytes.t list;
}

let pool_key = Domain.DLS.new_key (fun () -> { floats = []; ints = []; bytes = [] })
let pool_cap = 64  (* buffers kept per kind and domain *)

let rec take_sized len = function
  | a :: rest when len a -> Some (a, rest)
  | _ :: rest -> take_sized len rest
  | [] -> None

type state = {
  bcap : int;
  sel : int array;
  sels : int array array;
      (* the row-id vectors a filter compacts: [[|sel|]] on one chain, one
         per generator after a join *)
  col_sel : int array array;  (* per column, the row ids it gathers at *)
  mutable n : int;  (* live rows in [sel] *)
  mutable batch_lo : int;
  ones : Bytes.t;
  cols : col array;
  stage_f : fcol array;  (* per raw column, else 0-length *)
  stage_i : icol array;
  binds : vval array;
  mutable assigned : int;  (* bind slots filled so far this batch *)
  mutable owned_f : float array list;  (* buffers to hand back, see [release] *)
  mutable owned_i : int array list;
  mutable owned_b : Bytes.t list;
}

let fbuf st =
  let sc = Domain.DLS.get pool_key in
  let a =
    match take_sized (fun a -> Array.length a = st.bcap) sc.floats with
    | Some (a, rest) -> sc.floats <- rest; a
    | None -> Array.make st.bcap 0.
  in
  st.owned_f <- a :: st.owned_f;
  a

let ibuf st =
  let sc = Domain.DLS.get pool_key in
  let a =
    match take_sized (fun a -> Array.length a = st.bcap) sc.ints with
    | Some (a, rest) -> sc.ints <- rest; a
    | None -> Array.make st.bcap 0
  in
  st.owned_i <- a :: st.owned_i;
  a

let bbuf st =
  let sc = Domain.DLS.get pool_key in
  let b =
    match take_sized (fun b -> Bytes.length b = st.bcap) sc.bytes with
    | Some (b, rest) -> sc.bytes <- rest; b
    | None -> Bytes.make st.bcap '\000'
  in
  st.owned_b <- b :: st.owned_b;
  b

(* Hand a finished run's buffers to the domain's next run. Nothing may use
   [st] afterwards. *)
let release st =
  let sc = Domain.DLS.get pool_key in
  let keep mine pool =
    List.filteri (fun i _ -> i < pool_cap) (List.rev_append mine pool)
  in
  sc.floats <- keep st.owned_f sc.floats;
  sc.ints <- keep st.owned_i sc.ints;
  sc.bytes <- keep st.owned_b sc.bytes;
  st.owned_f <- [];
  st.owned_i <- [];
  st.owned_b <- []

let as_f = function VF (a, v) -> (a, v) | _ -> assert false
let as_i = function VI (a, v) -> (a, v) | _ -> assert false
let as_b = function VB (a, v) -> (a, v) | _ -> assert false

let valid c = c = '\001'

(* whether a three-way comparison result satisfies [op] *)
let cmp_test : Expr.binop -> int -> bool = function
  | Expr.Eq -> fun c -> c = 0
  | Expr.Neq -> fun c -> c <> 0
  | Expr.Lt -> fun c -> c < 0
  | Expr.Le -> fun c -> c <= 0
  | Expr.Gt -> fun c -> c > 0
  | Expr.Ge -> fun c -> c >= 0
  | _ -> assert false

(* [op] on two strings, as {!Value.compare} decides it: [String.compare];
   equality needs no order, so it skips to [String.equal] *)
let string_test : Expr.binop -> string -> string -> bool = function
  | Expr.Eq -> String.equal
  | Expr.Neq -> fun a b -> not (String.equal a b)
  | op ->
    let test = cmp_test op in
    fun a b -> test (String.compare a b)

(* Build the evaluator closure tree for one instance. Every operator node
   owns its output buffers and writes nothing else; leaves return borrowed
   buffers (columns gather into their own scratch, binds and constants are
   returned as-is). Values under an invalid mask are garbage by design —
   only division/modulo guard on validity, everything else computes
   through and lets the mask win. *)
let rec build st (x : vx) : unit -> vval =
  let fbuf () = fbuf st and ibuf () = ibuf st and bbuf () = bbuf st in
  match x with
  | XConstF c ->
    let a = fbuf () in
    Array.fill a 0 st.bcap c;
    let r = VF (a, st.ones) in
    fun () -> r
  | XConstI c ->
    let a = ibuf () in
    Array.fill a 0 st.bcap c;
    let r = VI (a, st.ones) in
    fun () -> r
  | XConstB c ->
    let a = bbuf () in
    Bytes.fill a 0 st.bcap (if c then '\001' else '\000');
    let r = VB (a, st.ones) in
    fun () -> r
  | XBind (slot, _) -> fun () -> st.binds.(slot)
  | XColF ci -> (
    let out = fbuf () and sel = st.col_sel.(ci) in
    match st.cols.(ci) with
    | ColF (src, None) ->
      fun () ->
        for k = 0 to st.n - 1 do
          Array.unsafe_set out k (BA1.unsafe_get src (Array.unsafe_get sel k))
        done;
        VF (out, st.ones)
    | ColF (src, Some sv) ->
      let vd = bbuf () in
      fun () ->
        for k = 0 to st.n - 1 do
          let r = Array.unsafe_get sel k in
          Array.unsafe_set out k (BA1.unsafe_get src r);
          Bytes.unsafe_set vd k (Bytes.unsafe_get sv r)
        done;
        VF (out, vd)
    | ColRawF _ ->
      let stage = st.stage_f.(ci) in
      fun () ->
        let lo = st.batch_lo in
        for k = 0 to st.n - 1 do
          Array.unsafe_set out k (BA1.unsafe_get stage (Array.unsafe_get st.sel k - lo))
        done;
        VF (out, st.ones)
    | _ -> assert false)
  | XColI ci -> (
    let out = ibuf () and sel = st.col_sel.(ci) in
    match st.cols.(ci) with
    | ColI (src, None) ->
      fun () ->
        for k = 0 to st.n - 1 do
          Array.unsafe_set out k (BA1.unsafe_get src (Array.unsafe_get sel k))
        done;
        VI (out, st.ones)
    | ColI (src, Some sv) ->
      let vd = bbuf () in
      fun () ->
        for k = 0 to st.n - 1 do
          let r = Array.unsafe_get sel k in
          Array.unsafe_set out k (BA1.unsafe_get src r);
          Bytes.unsafe_set vd k (Bytes.unsafe_get sv r)
        done;
        VI (out, vd)
    | ColRawI _ ->
      let stage = st.stage_i.(ci) in
      fun () ->
        let lo = st.batch_lo in
        for k = 0 to st.n - 1 do
          Array.unsafe_set out k (BA1.unsafe_get stage (Array.unsafe_get st.sel k - lo))
        done;
        VI (out, st.ones)
    | _ -> assert false)
  | XColB ci -> (
    let out = bbuf () and sel = st.col_sel.(ci) in
    match st.cols.(ci) with
    | ColB (src, None) ->
      fun () ->
        for k = 0 to st.n - 1 do
          Bytes.unsafe_set out k (Bytes.unsafe_get src (Array.unsafe_get sel k))
        done;
        VB (out, st.ones)
    | ColB (src, Some sv) ->
      let vd = bbuf () in
      fun () ->
        for k = 0 to st.n - 1 do
          let r = Array.unsafe_get sel k in
          Bytes.unsafe_set out k (Bytes.unsafe_get src r);
          Bytes.unsafe_set vd k (Bytes.unsafe_get sv r)
        done;
        VB (out, vd)
    | _ -> assert false)
  | XItoF a ->
    let ea = build st a in
    let out = fbuf () in
    fun () ->
      let xa, va = as_i (ea ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (float_of_int (Array.unsafe_get xa k))
      done;
      VF (out, va)
  | XArithF (op, a, b) ->
    let ea = build st a and eb = build st b in
    let out = fbuf () and vd = bbuf () in
    let f =
      match op with
      | Expr.Add -> ( +. )
      | Expr.Sub -> ( -. )
      | Expr.Mul -> ( *. )
      | _ -> assert false
    in
    fun () ->
      let xa, va = as_f (ea ()) in
      let xb, vb = as_f (eb ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (f (Array.unsafe_get xa k) (Array.unsafe_get xb k));
        Bytes.unsafe_set vd k
          (if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k)
           then '\001' else '\000')
      done;
      VF (out, vd)
  | XArithI (op, a, b) ->
    let ea = build st a and eb = build st b in
    let out = ibuf () and vd = bbuf () in
    let f =
      match op with
      | Expr.Add -> ( + )
      | Expr.Sub -> ( - )
      | Expr.Mul -> ( * )
      | _ -> assert false
    in
    fun () ->
      let xa, va = as_i (ea ()) in
      let xb, vb = as_i (eb ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (f (Array.unsafe_get xa k) (Array.unsafe_get xb k));
        Bytes.unsafe_set vd k
          (if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k)
           then '\001' else '\000')
      done;
      VI (out, vd)
  | XDivI (a, b) ->
    let ea = build st a and eb = build st b in
    let out = ibuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_i (ea ()) in
      let xb, vb = as_i (eb ()) in
      for k = 0 to st.n - 1 do
        if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k) then begin
          let y = Array.unsafe_get xb k in
          if y = 0 then raise (Eval.Error "integer division by zero");
          Array.unsafe_set out k (Array.unsafe_get xa k / y);
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VI (out, vd)
  | XDivF (a, b, check_int_zero) ->
    let ea = build st a and eb = build st b in
    let out = fbuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_f (ea ()) in
      let xb, vb = as_f (eb ()) in
      for k = 0 to st.n - 1 do
        if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k) then begin
          let y = Array.unsafe_get xb k in
          if check_int_zero && y = 0. then
            raise (Eval.Error "integer division by zero");
          Array.unsafe_set out k (Array.unsafe_get xa k /. y);
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VF (out, vd)
  | XModI (a, b) ->
    let ea = build st a and eb = build st b in
    let out = ibuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_i (ea ()) in
      let xb, vb = as_i (eb ()) in
      for k = 0 to st.n - 1 do
        if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k) then begin
          let y = Array.unsafe_get xb k in
          if y = 0 then raise (Eval.Error "modulo by zero");
          Array.unsafe_set out k (Array.unsafe_get xa k mod y);
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VI (out, vd)
  | XCmpF (op, a, b) ->
    let ea = build st a and eb = build st b in
    let out = bbuf () and vd = bbuf () in
    let test = cmp_test op in
    fun () ->
      let xa, va = as_f (ea ()) in
      let xb, vb = as_f (eb ()) in
      for k = 0 to st.n - 1 do
        (* Float.compare, not IEEE: NaN totally ordered, as Value.compare *)
        Bytes.unsafe_set out k
          (if test (Float.compare (Array.unsafe_get xa k) (Array.unsafe_get xb k))
           then '\001' else '\000');
        Bytes.unsafe_set vd k
          (if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k)
           then '\001' else '\000')
      done;
      VB (out, vd)
  | XCmpI (op, a, b) ->
    let ea = build st a and eb = build st b in
    let out = bbuf () and vd = bbuf () in
    let test = cmp_test op in
    fun () ->
      let xa, va = as_i (ea ()) in
      let xb, vb = as_i (eb ()) in
      for k = 0 to st.n - 1 do
        Bytes.unsafe_set out k
          (if test (Int.compare (Array.unsafe_get xa k) (Array.unsafe_get xb k))
           then '\001' else '\000');
        Bytes.unsafe_set vd k
          (if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k)
           then '\001' else '\000')
      done;
      VB (out, vd)
  | XCmpS (op, a, b) -> (
    let out = bbuf () and vd = bbuf () in
    let holds = string_test op in
    (* string operands are read in place: a column through its row ids *)
    let operand = function
      | XColS ci -> (
        match st.cols.(ci) with
        | ColS arr -> `Col (arr, st.col_sel.(ci))
        | _ -> assert false)
      | XConstS c -> `Const c
      | _ -> assert false
    in
    let at = function
      | `Col (arr, sel) -> fun k -> Array.unsafe_get arr (Array.unsafe_get sel k)
      | `Const c ->
        let v = Value.String c in
        fun _ -> v
    in
    match operand a, operand b with
    | `Col (arr, sel), `Const c ->
      fun () ->
        for k = 0 to st.n - 1 do
          match Array.unsafe_get arr (Array.unsafe_get sel k) with
          | Value.String s ->
            Bytes.unsafe_set out k (if holds s c then '\001' else '\000');
            Bytes.unsafe_set vd k '\001'
          | _ -> Bytes.unsafe_set vd k '\000'
        done;
        VB (out, vd)
    | oa, ob ->
      let va = at oa and vb = at ob in
      fun () ->
        for k = 0 to st.n - 1 do
          match va k, vb k with
          | Value.String x, Value.String y ->
            Bytes.unsafe_set out k (if holds x y then '\001' else '\000');
            Bytes.unsafe_set vd k '\001'
          | _ -> Bytes.unsafe_set vd k '\000'
        done;
        VB (out, vd))
  | XColS _ | XConstS _ -> invalid_arg "Vector.build: string operand outside a comparison"
  | XAnd (a, b) ->
    let ea = build st a and eb = build st b in
    let out = bbuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_b (ea ()) in
      let xb, vb = as_b (eb ()) in
      for k = 0 to st.n - 1 do
        let av = valid (Bytes.unsafe_get va k)
        and bv = valid (Bytes.unsafe_get vb k) in
        let at = valid (Bytes.unsafe_get xa k)
        and bt = valid (Bytes.unsafe_get xb k) in
        (* three-valued: false ∧ x = false, true ∧ null = null *)
        if (av && not at) || (bv && not bt) then begin
          Bytes.unsafe_set out k '\000';
          Bytes.unsafe_set vd k '\001'
        end
        else if av && bv then begin
          Bytes.unsafe_set out k '\001';
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VB (out, vd)
  | XOr (a, b) ->
    let ea = build st a and eb = build st b in
    let out = bbuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_b (ea ()) in
      let xb, vb = as_b (eb ()) in
      for k = 0 to st.n - 1 do
        let av = valid (Bytes.unsafe_get va k)
        and bv = valid (Bytes.unsafe_get vb k) in
        let at = valid (Bytes.unsafe_get xa k)
        and bt = valid (Bytes.unsafe_get xb k) in
        if (av && at) || (bv && bt) then begin
          Bytes.unsafe_set out k '\001';
          Bytes.unsafe_set vd k '\001'
        end
        else if av && bv then begin
          Bytes.unsafe_set out k '\000';
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VB (out, vd)
  | XNot a ->
    let ea = build st a in
    let out = bbuf () in
    fun () ->
      let xa, va = as_b (ea ()) in
      for k = 0 to st.n - 1 do
        Bytes.unsafe_set out k
          (if valid (Bytes.unsafe_get xa k) then '\000' else '\001')
      done;
      VB (out, va)
  | XNegF a ->
    let ea = build st a in
    let out = fbuf () in
    fun () ->
      let xa, va = as_f (ea ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (-.Array.unsafe_get xa k)
      done;
      VF (out, va)
  | XNegI a ->
    let ea = build st a in
    let out = ibuf () in
    fun () ->
      let xa, va = as_i (ea ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (-Array.unsafe_get xa k)
      done;
      VI (out, va)

(* compact one dense bind buffer in place with the same permutation the
   selection vector just underwent (dst <= src, so in-place is safe) *)
let compact_vval v ~src ~dst =
  match v with
  | VF (a, vd) ->
    Array.unsafe_set a dst (Array.unsafe_get a src);
    Bytes.unsafe_set vd dst (Bytes.unsafe_get vd src)
  | VI (a, vd) ->
    Array.unsafe_set a dst (Array.unsafe_get a src);
    Bytes.unsafe_set vd dst (Bytes.unsafe_get vd src)
  | VB (a, vd) ->
    Bytes.unsafe_set a dst (Bytes.unsafe_get a src);
    Bytes.unsafe_set vd dst (Bytes.unsafe_get vd src)

(* Fused reduce accumulators: scalar mutable state folding exactly as
   [Monoid.merge (unit …)] does row by row — same start values, same
   NULL skipping, same Value.compare tie-breaks, same float association
   (row order within a range). The returned value is the pre-finalize
   accumulator, so morsel partials merge with [Monoid.merge] unchanged. *)
type accum = { push : vval -> int -> unit; result : unit -> Value.t }

let make_accum (monoid : Monoid.t) (head_ty : vty) : accum =
  let af = ref 0. and ai = ref 0 and count = ref 0 and any = ref false in
  let ab = ref true in
  let over_valid f =
    fun v n ->
      match v, head_ty with
      | VF (a, vd), _ ->
        for k = 0 to n - 1 do
          if valid (Bytes.unsafe_get vd k) then f (Array.unsafe_get a k) 0 false
        done
      | VI (a, vd), _ ->
        for k = 0 to n - 1 do
          if valid (Bytes.unsafe_get vd k) then f 0. (Array.unsafe_get a k) false
        done
      | VB (a, vd), _ ->
        for k = 0 to n - 1 do
          if valid (Bytes.unsafe_get vd k) then
            f 0. 0 (valid (Bytes.unsafe_get a k))
        done
  in
  match monoid, head_ty with
  | Monoid.Prim Monoid.Count, _ ->
    { push = over_valid (fun _ _ _ -> incr count);
      result = (fun () -> Value.Int !count) }
  | Monoid.Prim Monoid.Sum, TI ->
    { push = over_valid (fun _ x _ -> ai := !ai + x);
      result = (fun () -> Value.Int !ai) }
  | Monoid.Prim Monoid.Sum, TF ->
    { push = over_valid (fun x _ _ -> af := !af +. x; any := true);
      result = (fun () -> if !any then Value.Float !af else Value.Int 0) }
  | Monoid.Prim Monoid.Prod, TI ->
    ai := 1;
    { push = over_valid (fun _ x _ -> ai := !ai * x);
      result = (fun () -> Value.Int !ai) }
  | Monoid.Prim Monoid.Prod, TF ->
    af := 1.;
    { push = over_valid (fun x _ _ -> af := !af *. x; any := true);
      result = (fun () -> if !any then Value.Float !af else Value.Int 1) }
  | Monoid.Prim Monoid.Avg, (TI | TF) ->
    let push =
      match head_ty with
      | TI -> over_valid (fun _ x _ -> af := !af +. float_of_int x; incr count)
      | _ -> over_valid (fun x _ _ -> af := !af +. x; incr count)
    in
    { push;
      result =
        (fun () ->
          Value.Record [ ("sum", Value.Float !af); ("count", Value.Int !count) ])
    }
  | Monoid.Prim Monoid.Max, TI ->
    { push =
        over_valid (fun _ x _ ->
            if not !any then (ai := x; any := true)
            else if Int.compare !ai x < 0 then ai := x);
      result = (fun () -> if !any then Value.Int !ai else Value.Null) }
  | Monoid.Prim Monoid.Max, TF ->
    { push =
        over_valid (fun x _ _ ->
            if not !any then (af := x; any := true)
            else if Float.compare !af x < 0 then af := x);
      result = (fun () -> if !any then Value.Float !af else Value.Null) }
  | Monoid.Prim Monoid.Min, TI ->
    { push =
        over_valid (fun _ x _ ->
            if not !any then (ai := x; any := true)
            else if Int.compare !ai x > 0 then ai := x);
      result = (fun () -> if !any then Value.Int !ai else Value.Null) }
  | Monoid.Prim Monoid.Min, TF ->
    { push =
        over_valid (fun x _ _ ->
            if not !any then (af := x; any := true)
            else if Float.compare !af x > 0 then af := x);
      result = (fun () -> if !any then Value.Float !af else Value.Null) }
  | Monoid.Prim Monoid.All, TB ->
    { push = over_valid (fun _ _ b -> ab := !ab && b);
      result = (fun () -> Value.Bool !ab) }
  | Monoid.Prim Monoid.Some_, TB ->
    ab := false;
    { push = over_valid (fun _ _ b -> ab := !ab || b);
      result = (fun () -> Value.Bool !ab) }
  | _ -> decline "monoid %s has no fused kernel for this head" (Monoid.name monoid)

type instance = {
  i_k : kernel;
  i_st : state;
  i_steps : (unit -> unit) list;  (* per-batch step runners *)
  i_head : unit -> vval;
  i_accum : accum;
  i_domain : int;  (* instantiating domain, for the P09 scratch check *)
}

(* Buffers for one batch pipeline: [nsels] row-id vectors, which filters
   compact, and column [i] gathers through vector [col_sel.(i)]. *)
let make_state ~bcap ~(cols : col array) ~nsels ~col_sel ~nbinds =
  let ncols = Array.length cols in
  let empty_f = BA1.create Bigarray.float64 Bigarray.c_layout 0 in
  let empty_i = BA1.create Bigarray.int Bigarray.c_layout 0 in
  let st =
  { bcap; sel = [||]; sels = [||]; col_sel = [||];
    n = 0; batch_lo = 0; ones = Bytes.empty; cols;
    stage_f =
      Array.init ncols (fun i ->
          match cols.(i) with
          | ColRawF _ -> BA1.create Bigarray.float64 Bigarray.c_layout bcap
          | _ -> empty_f);
    stage_i =
      Array.init ncols (fun i ->
          match cols.(i) with
          | ColRawI _ -> BA1.create Bigarray.int Bigarray.c_layout bcap
          | _ -> empty_i);
    binds = Array.make (max nbinds 1) dummy_vval; assigned = 0;
    owned_f = []; owned_i = []; owned_b = [] }
  in
  let sels = Array.init nsels (fun _ -> ibuf st) in
  let ones = bbuf st in
  Bytes.fill ones 0 bcap '\001';
  { st with sel = (if nsels > 0 then sels.(0) else [||]); sels;
    col_sel = Array.map (fun i -> sels.(i)) col_sel; ones }

(* Per-batch runner of one typed step. A filter compacts every row-id
   vector and every bind filled so far with the same permutation. *)
let step_runner st = function
  | KBind (slot, x) ->
    let e = build st x in
    fun () ->
      st.binds.(slot) <- e ();
      st.assigned <- st.assigned + 1
  | KFilter (x, tap) ->
    let e = build st x in
    let sels = st.sels in
    let nsels = Array.length sels in
    fun () ->
      let bb, vd = as_b (e ()) in
      let n = st.n in
      ignore (Atomic.fetch_and_add tap.seen n);
      let m = ref 0 in
      for src = 0 to n - 1 do
        if valid (Bytes.unsafe_get vd src) && valid (Bytes.unsafe_get bb src)
        then begin
          let dst = !m in
          for s = 0 to nsels - 1 do
            let sel = Array.unsafe_get sels s in
            Array.unsafe_set sel dst (Array.unsafe_get sel src)
          done;
          for b = 0 to st.assigned - 1 do
            compact_vval st.binds.(b) ~src ~dst
          done;
          incr m
        end
      done;
      st.n <- !m;
      ignore (Atomic.fetch_and_add tap.passed !m)

let instantiate (k : kernel) : instance =
  let st =
    make_state ~bcap:(batch_rows ()) ~cols:k.k_cols ~nsels:1
      ~col_sel:(Array.make (Array.length k.k_cols) 0) ~nbinds:k.k_nbinds
  in
  let steps = List.map (step_runner st) k.k_steps in
  let head = build st k.k_head in
  let accum = make_accum k.k_monoid (vx_ty k.k_head) in
  (* no budget charge: the scratch is O(batch_rows), a per-query constant
     independent of the data — budgets track data-dependent materialized
     working sets, and the closure engine's scans charge nothing either *)
  { i_k = k; i_st = st; i_steps = steps; i_head = head; i_accum = accum;
    i_domain = (Domain.self () :> int) }

(* Run the fused kernel over rows [lo, hi): the per-morsel (or whole-scan)
   batch loop. One governor poll, one epoch tick and one stats note per
   batch; returns the pre-finalize accumulator value. *)
let run_range (inst : instance) ~lo ~hi : Value.t =
  let st = inst.i_st in
  let source = inst.i_k.k_name in
  let sanitize = Vida_sync.enabled () in
  (* P09: the instance's scratch (selection vector, staging buffers, bind
     slots) is single-morsel state — running it from a domain other than
     the one that instantiated it means the scratch escaped its morsel *)
  if sanitize then begin
    Vida_sync.note_kernel_check ();
    match
      Vida_analysis.Kernel.check_scratch_domain ~created_on:inst.i_domain
        ~running_on:(Domain.self () :> int)
    with
    | Some reason -> Vida_sync.kernel_failed ~id:"P09" ~subject:source "%s" reason
    | None -> ()
  end;
  let process rlo rhi =
  let pos = ref rlo in
  while !pos < rhi do
    let blo = !pos in
    let bhi = min rhi (blo + st.bcap) in
    let rows = bhi - blo in
    Governor.poll_batch ~source:"vector" ~rows ();
    Epoch.check ~source ();
    note_batch rows;
    st.batch_lo <- blo;
    Array.iteri
      (fun ci c ->
        match c with
        | ColRawF (ba, field) ->
          Binarray.fill_floats ba ~field ~lo:blo ~hi:bhi st.stage_f.(ci)
        | ColRawI (ba, field) ->
          Binarray.fill_ints ba ~field ~lo:blo ~hi:bhi st.stage_i.(ci)
        | _ -> ())
      st.cols;
    for k = 0 to rows - 1 do
      Array.unsafe_set st.sel k (blo + k)
    done;
    st.n <- rows;
    st.assigned <- 0;
    List.iter (fun step -> step ()) inst.i_steps;
    (* P08: filters only ever compact the selection vector in place, so
       after the steps it must still be strictly increasing and inside
       this batch's bounds — anything else means a kernel wrote rows it
       was never selected to touch *)
    if sanitize then begin
      Vida_sync.note_kernel_check ();
      match Vida_analysis.Kernel.check_selection st.sel ~n:st.n ~lo:blo ~hi:bhi with
      | Some reason -> Vida_sync.kernel_failed ~id:"P08" ~subject:source "%s" reason
      | None -> ()
    end;
    if st.n > 0 then inst.i_accum.push (inst.i_head ()) st.n;
    pos := bhi
  done
  in
  (match inst.i_k.k_prune with
  | Some (ba, ranges) -> Binarray.matching_runs ba ~ranges ~lo ~hi process
  | None -> process lo hi);
  inst.i_accum.result ()

(* One instance over rows [lo, hi), its buffers handed back afterwards. *)
let run_instance (k : kernel) ~lo ~hi =
  let inst = instantiate k in
  let acc = run_range inst ~lo ~hi in
  release inst.i_st;
  acc

let flush_taps ctx taps =
  List.iter
    (fun tap ->
      let seen = Atomic.exchange tap.seen 0 in
      let passed = Atomic.exchange tap.passed 0 in
      (* same 16-observation gate as the closure engine's instrumentation *)
      if seen >= 16 then
        Feedback.record ctx.Plugins.feedback
          ~key:(Feedback.selectivity_key tap.tap_pred)
          ~observed:(float_of_int passed /. float_of_int seen))
    taps

let flush_feedback ctx (k : kernel) = flush_taps ctx k.k_taps

(* Domains for a kernel over [rows] rows. Outside [vida serve] a split
   spawns fresh worker domains with empty scratch pools, which a kernel
   earns back only over many rows, so it splits only from sixteen times
   the morsel row floor; above that the count is [Morsel.domains_for_rows]'.
   At the default floor that is 32 768 rows: there a split scan kernel
   breaks even at two domains, below it loses up to 2x, and it wins from
   65 536 rows (bench/main.exe kernel-split, BENCH_kernel_split.json). *)
let kernel_domains ~domains rows =
  if rows < 16 * Vida_raw.Morsel.parallel_row_floor () then 1
  else Vida_raw.Morsel.domains_for_rows ~domains rows

(* Fold rows [0, n) in morsels on up to [domains] domains: [fold ~lo ~hi]
   returns one range's pre-finalize partial, and the partials merge in
   morsel (= source) order, which keeps non-commutative monoids (list and
   array concatenation) correct. Under the sanitizer that order is
   discharged as P10 before anything merges. *)
let fold_morsels ~domains ~monoid ~subject n fold =
  if Vida_sync.enabled () then begin
    Vida_sync.note_kernel_check ();
    match Vida_analysis.Kernel.check_merge_order monoid ~strategy:`Ordered with
    | Some reason -> Vida_sync.kernel_failed ~id:"P10" ~subject "%s" reason
    | None -> ()
  end;
  let ranges = Vida_raw.Morsel.chunks n (domains * 4) in
  let partials =
    Vida_raw.Morsel.run ~domains ~tasks:(Array.length ranges) (fun t ->
        let lo, hi = ranges.(t) in
        fold ~lo ~hi)
  in
  Array.fold_left (Monoid.merge monoid) (Monoid.zero monoid) partials

(* --- equi-join fragment ------------------------------------------------ *)

(* A Reduce over a tree of equi-Joins whose leaves are Select*/Map* chains
   on columnar sources runs on row ids, positions in the cached column
   arrays, instead of records:

   - each leaf's filters and binds run as the batch kernels above and
     leave one selection vector (leaf binds are scattered into columns
     indexed by row id);
   - an unnest of a generator's array field ([Unnest r <- b.f], not
     outer), over a leaf or a join, expands each tuple into the child
     rows of [b]'s shredded column ({!shred}), in tuple order and then
     array order: [r] gets child row ids, and every other generator keeps
     its row ids, so steps above it, join keys and the head read [b]'s
     columns through [b]'s own ids;
   - each join builds a hash table from its int key columns to build-side
     tuples, chained in build order, then probes it with the other side's
     row-id tuples;
   - residual predicates, post-join steps and the head run over columns
     gathered at the matched row ids, one batch of tuples at a time.

   Tuples come out in the closure engine's order — probe tuples in probe
   order, each followed by its matches in build order, NULL keys never
   matching — so collections equal the closure engine's element for
   element and float folds associate the same way. Columns are fetched
   through the cache in the row engines' order too: a join's build side
   before its probe side, each leaf with the fields the path being
   replaced would read. *)

type leaf = {
  l_id : int;  (* slot of its row ids among the plan's generators *)
  l_var : string;
  l_name : string;
  l_source : Source.t;
  l_steps : vstep list;  (* in the closure engine's evaluation order *)
  l_card : bool;  (* whether the closure engine records this scan's cardinality *)
}

type key = { key_var : string; key_field : string }

type jtree =
  | JLeaf of leaf
  | JJoin of {
      pred : Expr.t;
      keys : (key * key) list;  (* probe (left) column, build (right) column *)
      residual : Expr.t option;
      left : jtree;
      right : jtree;
    }
  | JUnnest of {
      var : string;  (* bound to each array element *)
      parent : string;  (* the generator whose array field is unnested *)
      field : string;
      id : int;  (* slot of the child row ids *)
      child : jtree;
    }
  | JSteps of vstep list * jtree  (* Select/Map above a join or an unnest *)

(* a fused fold over a typed head, or values gathered for bag/list *)
type jhead = HTyped of Expr.t | HBoxed of Expr.t

type join_candidate = {
  j_plan : Plan.t;  (* as given: the field needs of the path it replaces *)
  j_tree : jtree;
  j_monoid : Monoid.t;
  j_head : jhead;
}

exception Outside_fragment

(* the generator variables of a subtree with their row-id slots, left to
   right *)
let rec tree_gens = function
  | JLeaf lf -> [ (lf.l_var, lf.l_id) ]
  | JJoin { left; right; _ } -> tree_gens left @ tree_gens right
  | JUnnest { var; id; child; _ } -> tree_gens child @ [ (var, id) ]
  | JSteps (_, t) -> tree_gens t

let rec tree_exprs = function
  | JLeaf lf -> List.map step_expr lf.l_steps
  | JJoin { keys; residual; left; right; _ } ->
    List.concat_map
      (fun (a, b) ->
        [ Expr.Proj (Expr.Var a.key_var, a.key_field);
          Expr.Proj (Expr.Var b.key_var, b.key_field) ])
      keys
    @ Option.to_list residual @ tree_exprs left @ tree_exprs right
  | JUnnest { child; _ } -> tree_exprs child
  | JSteps (steps, t) -> List.map step_expr steps @ tree_exprs t

let rec has_subquery (e : Expr.t) =
  match e with
  | Expr.Comp _ -> true
  | Expr.Const _ | Expr.Var _ | Expr.Zero _ -> false
  | Expr.Proj (a, _) | Expr.UnOp (_, a) | Expr.Singleton (_, a) | Expr.Lambda (_, a) ->
    has_subquery a
  | Expr.BinOp (_, a, b) | Expr.Apply (a, b) | Expr.Merge (_, a, b) ->
    has_subquery a || has_subquery b
  | Expr.If (a, b, c) -> has_subquery a || has_subquery b || has_subquery c
  | Expr.Record fs -> List.exists (fun (_, e) -> has_subquery e) fs
  | Expr.Index (a, idxs) -> has_subquery a || List.exists has_subquery idxs

(* Parts of a bag/list head: cached values gathered as they are, or typed
   expressions boxed per tuple. *)
let boxed_parts (head : Expr.t) =
  match head with Expr.Record fs -> List.map snd fs | e -> [ e ]

let gathered ~src_vars (e : Expr.t) =
  match e with
  | Expr.Proj (Expr.Var v, _) -> List.mem v src_vars
  | Expr.Const _ -> true
  | _ -> false

(* Shape of the plan: [`Silent] outside the fragment (an outer unnest, an
   unnest variable used whole, Nest, Product, correlated sources,
   subqueries, joins without an equi-conjunct), [`Decline] when the
   shape matches but a detail rules the kernels out. *)
let classify_join ctx (plan : Plan.t) :
    [ `Join of join_candidate | `Decline of string | `Silent ] =
  let first_decline = ref None in
  let refuse fmt =
    Format.kasprintf
      (fun r -> if !first_decline = None then first_decline := Some r)
      fmt
  in
  let unnested = ref [] and slots = ref 0 in
  let fresh () =
    incr slots;
    !slots - 1
  in
  let leaf ~steps ~direct var name =
    match Registry.find ctx.Plugins.registry name with
    | None | Some { Source.format = Source.External _; _ } -> raise Outside_fragment
    | Some source ->
      (* a filtered binary-array scan runs the zone-map producer, which
         records no cardinality *)
      let ranged =
        source.Source.format = Source.Binary_array
        && List.exists
             (fun c -> Analysis.range_of ~var c <> None)
             (List.concat_map Analysis.conjuncts direct)
      in
      JLeaf
        { l_id = fresh (); l_var = var; l_name = name; l_source = source; l_steps = steps;
          l_card = not ranged }
  in
  let binds steps = List.exists (function VBind _ -> true | VFilter _ -> false) steps in
  let rec tree ~top (p : Plan.t) =
    let steps, core, direct = peel p in
    match core with
    | Plan.Source { var; expr = Expr.Var name } -> leaf ~steps ~direct var name
    | Plan.Unnest { var; path = Expr.Proj (Expr.Var parent, field); outer = false; child }
      ->
      let c = tree ~top:false child in
      if not (List.mem_assoc parent (tree_gens c)) then raise Outside_fragment;
      if (not top) && binds steps then refuse "binding between joins";
      unnested := var :: !unnested;
      let u = JUnnest { var; parent; field; id = fresh (); child = c } in
      if steps = [] then u else JSteps (steps, u)
    | Plan.Join { pred; left; right } ->
      let l = tree ~top:false left in
      let r = tree ~top:false right in
      let keys, residual =
        Analysis.split_equi ~left:(Plan.bound_vars left) ~right:(Plan.bound_vars right) pred
      in
      if keys = [] then raise Outside_fragment;
      let column side (e : Expr.t) =
        match e with
        | Expr.Proj (Expr.Var v, f) when List.mem_assoc v (tree_gens side) ->
          { key_var = v; key_field = f }
        | e ->
          refuse "join key %s is not a generator column" (Expr.to_string e);
          { key_var = ""; key_field = "" }
      in
      let keys = List.map (fun (a, b) -> (column l a, column r b)) keys in
      if (not top) && binds steps then refuse "binding between joins";
      let j = JJoin { pred; keys; residual; left = l; right = r } in
      if steps = [] then j else JSteps (steps, j)
    | _ -> raise Outside_fragment
  in
  if not (enabled ()) then `Silent
  else
    match plan with
    | Plan.Reduce { monoid; head; child } -> (
      match tree ~top:true child with
      | exception Outside_fragment -> `Silent
      | JLeaf _ -> `Silent
      | t ->
        let src_vars = List.map fst (tree_gens t) in
        (* an element used whole (an array of scalars, say) is the
           closure engine's: the kernels read child rows by field *)
        let whole v = Analysis.plan_var_needs plan ~var:v = Analysis.Whole in
        if List.exists has_subquery (head :: tree_exprs t) || List.exists whole !unnested
        then `Silent
        else begin
          let head =
            match monoid with
            | Monoid.Coll Ty.Bag | Monoid.Coll Ty.List -> HBoxed head
            | _ -> HTyped head
          in
          let check e =
            match structurally_supported ~src_vars e with
            | Ok () -> ()
            | Error r -> refuse "%s" r
          in
          (match head, monoid_supported monoid with
          | HBoxed h, _ ->
            List.iter (fun e -> if not (gathered ~src_vars e) then check e) (boxed_parts h)
          | HTyped _, Error _ -> refuse "monoid %s has no join kernel" (Monoid.name monoid)
          | HTyped h, Ok () -> check h);
          List.iter check (tree_exprs t);
          match !first_decline with
          | Some reason -> `Decline reason
          | None ->
            `Join { j_plan = plan; j_tree = t; j_monoid = monoid; j_head = head }
        end)
    | _ -> `Silent

(* growable row-id vectors *)
type ibuf = { mutable data : int array; mutable len : int }

let ibuf () = { data = Array.make 64 0; len = 0 }

let ibuf_append b (src : int array) n =
  if b.len + n > Array.length b.data then begin
    let grown = Array.make (max (b.len + n) (2 * Array.length b.data)) 0 in
    Array.blit b.data 0 grown 0 b.len;
    b.data <- grown
  end;
  Array.blit src 0 b.data b.len n;
  b.len <- b.len + n

let ibuf_contents b = Array.sub b.data 0 b.len

(* A materialized relation: the row ids of its tuples, one vector per
   generator slot of the subtree ([||] for slots outside it). *)
type rel = { ids : int array array; n : int }

type jrun = {
  jr_ctx : Plugins.ctx;
  jr_cand : join_candidate;
  jr_slots : (string * int) list;  (* generator variable -> row-id slot *)
  jr_boxed : (string * string, Value.t array) Hashtbl.t;  (* cached and child columns *)
  mutable jr_vcols : (string * (int * col)) list;  (* leaf binds, by row id of a slot *)
}

let slot_of jr v = List.assoc v jr.jr_slots

(* position of slot [s] among generators [gens] *)
let gen_pos gens s =
  let rec go i = function
    | (_, s') :: rest -> if s' = s then i else go (i + 1) rest
    | [] -> invalid_arg "Vector.gen_pos"
  in
  go 0 gens

let boxed jr v f = Hashtbl.find jr.jr_boxed (v, f)

let typed_col jr v f = promote_memo ~field:f (boxed jr v f)

let fields_of ~var exprs =
  List.rev (List.fold_left (proj_fields ~src_var:var) [] exprs)

(* the fields the candidate's plan needs of generator [var] *)
let needs jr var =
  match Analysis.plan_var_needs jr.jr_cand.j_plan ~var with
  | Analysis.Fields fs -> fs
  | Analysis.Whole -> decline "whole-record need on %s" var

(* Fetch a leaf's columns through the cache: the fields the candidate's
   plan needs of it, in [plan_var_needs] order. *)
let fetch_leaf jr lf =
  match Plugins.column_arrays jr.jr_ctx lf.l_source ~fields:(needs jr lf.l_var) with
  | None ->
    decline "source %s has no columnar view (cleaning policy or format)" lf.l_name
  | Some (nrows, cols) ->
    List.iter (fun (f, arr) -> Hashtbl.replace jr.jr_boxed (lf.l_var, f) arr) cols;
    nrows

(* The columns [exprs] read of generators [gens] (variable, slot): cached
   fields, promoted, then the binds of those generators. Returns them with
   the slot each is gathered at, and the typing environment over them. *)
let gen_columns jr gens exprs =
  let typed =
    List.concat_map
      (fun (v, slot) -> List.map (fun f -> (v, f, slot)) (fields_of ~var:v exprs))
      gens
  in
  let vcols =
    List.filter (fun (_, (slot, _)) -> List.exists (fun (_, s) -> s = slot) gens) jr.jr_vcols
  in
  let ntyped = List.length typed in
  let cols =
    Array.of_list
      (List.map (fun (v, f, _) -> typed_col jr v f) typed @ List.map (fun (_, (_, c)) -> c) vcols)
  in
  let col_slots =
    Array.of_list (List.map (fun (_, _, s) -> s) typed @ List.map (fun (_, (s, _)) -> s) vcols)
  in
  let env =
    { src_vars = List.map fst gens;
      cols = List.mapi (fun i (v, f, _) -> ((v, f), i)) typed;
      var_cols = List.mapi (fun i (v, _) -> (v, ntyped + i)) vcols;
      col_tys = Array.map col_ty cols; binds = []; bind_tys = [||];
      params = jr.jr_ctx.Plugins.params }
  in
  (cols, col_slots, env)

let scatter_col ty n =
  match ty with
  | TF -> ColF (BA1.create Bigarray.float64 Bigarray.c_layout n, Some (Bytes.make n '\000'))
  | TI -> ColI (BA1.create Bigarray.int Bigarray.c_layout n, Some (Bytes.make n '\000'))
  | TB -> ColB (Bytes.make n '\000', Some (Bytes.make n '\000'))
  | TS -> invalid_arg "Vector.scatter_col: string binding"

let scatter (v : vval) (c : col) (sel : int array) n =
  match v, c with
  | VF (a, vd), ColF (dst, Some dv) ->
    for k = 0 to n - 1 do
      let r = Array.unsafe_get sel k in
      BA1.unsafe_set dst r (Array.unsafe_get a k);
      Bytes.unsafe_set dv r (Bytes.unsafe_get vd k)
    done
  | VI (a, vd), ColI (dst, Some dv) ->
    for k = 0 to n - 1 do
      let r = Array.unsafe_get sel k in
      BA1.unsafe_set dst r (Array.unsafe_get a k);
      Bytes.unsafe_set dv r (Bytes.unsafe_get vd k)
    done
  | VB (a, vd), ColB (dst, Some dv) ->
    for k = 0 to n - 1 do
      let r = Array.unsafe_get sel k in
      Bytes.unsafe_set dst r (Bytes.unsafe_get a k);
      Bytes.unsafe_set dv r (Bytes.unsafe_get vd k)
    done
  | _ -> assert false

(* Scan one leaf batch by batch: one poll, epoch tick and stats note per
   batch, as on the single-chain path. Returns the surviving row ids. *)
let scan_leaf jr lf =
  let ctx = jr.jr_ctx in
  let nrows = fetch_leaf jr lf in
  let cols, _, env = gen_columns jr [ (lf.l_var, lf.l_id) ] (List.map step_expr lf.l_steps) in
  let env, ksteps, taps, nbinds = type_steps env lf.l_steps in
  let bcap = batch_rows () in
  let st =
    make_state ~bcap ~cols ~nsels:1 ~col_sel:(Array.make (Array.length cols) 0) ~nbinds
  in
  let sel = st.sel in
  let runners = List.map (step_runner st) ksteps in
  (* bind variables outlive the scan as columns indexed by row id *)
  let scatters =
    List.map (fun (v, slot) -> (v, slot, scatter_col env.bind_tys.(slot) nrows)) env.binds
  in
  let out = ibuf () in
  let sanitize = Vida_sync.enabled () in
  let pos = ref 0 in
  while !pos < nrows do
    let blo = !pos in
    let bhi = min nrows (blo + bcap) in
    let rows = bhi - blo in
    Governor.poll_batch ~source:"vector" ~rows ();
    Epoch.check ~source:lf.l_name ();
    note_batch rows;
    for k = 0 to rows - 1 do
      Array.unsafe_set sel k (blo + k)
    done;
    st.n <- rows;
    st.assigned <- 0;
    List.iter (fun run -> run ()) runners;
    (* P08, as on the single-chain path *)
    if sanitize then begin
      Vida_sync.note_kernel_check ();
      match Vida_analysis.Kernel.check_selection sel ~n:st.n ~lo:blo ~hi:bhi with
      | Some reason -> Vida_sync.kernel_failed ~id:"P08" ~subject:lf.l_name "%s" reason
      | None -> ()
    end;
    List.iter (fun (_, slot, c) -> scatter st.binds.(slot) c sel st.n) scatters;
    ibuf_append out sel st.n;
    pos := bhi
  done;
  release st;
  flush_taps ctx taps;
  if lf.l_card && nrows > 0 then
    Feedback.record ctx.Plugins.feedback
      ~key:(Feedback.cardinality_key lf.l_name)
      ~observed:(float_of_int nrows);
  jr.jr_vcols <- List.map (fun (v, _, c) -> (v, (lf.l_id, c))) scatters @ jr.jr_vcols;
  ibuf_contents out

(* --- hash build and probe --- *)

(* A key column as promoted ints; [None] when it holds no value at all
   (empty, or every key NULL), so it matches nothing. *)
let key_column jr k =
  let not_int () = decline "join key %s.%s is not an int column" k.key_var k.key_field in
  match typed_col jr k.key_var k.key_field with
  | ColI (a, validity) -> Some (a, validity)
  | _ -> not_int ()
  | exception Not_vectorizable _ ->
    if Array.for_all (function Value.Null -> true | _ -> false) (boxed jr k.key_var k.key_field)
    then None
    else not_int ()

(* Key values of a relation's tuples, one int vector per key, and whether
   every key of a tuple is non-NULL. *)
let key_values jr (r : rel) (ks : key list) =
  let valid = Bytes.make r.n '\001' in
  let vals =
    List.map
      (fun k ->
        let out = Array.make r.n 0 in
        (match key_column jr k with
        | None -> Bytes.fill valid 0 r.n '\000'
        | Some (a, validity) ->
          let ids = r.ids.(slot_of jr k.key_var) in
          for i = 0 to r.n - 1 do
            let row = Array.unsafe_get ids i in
            Array.unsafe_set out i (BA1.unsafe_get a row);
            match validity with
            | Some v when Bytes.unsafe_get v row = '\000' -> Bytes.unsafe_set valid i '\000'
            | _ -> ()
          done);
        out)
      ks
  in
  (Array.of_list vals, valid)

let hash_keys (keys : int array array) i =
  let h = ref 0 in
  for q = 0 to Array.length keys - 1 do
    h := (!h * 65599) + Array.unsafe_get (Array.unsafe_get keys q) i
  done;
  Hashtbl.hash !h

let keys_equal (a : int array array) i (b : int array array) j =
  let rec go q =
    q < 0
    || Array.unsafe_get (Array.unsafe_get a q) i = Array.unsafe_get (Array.unsafe_get b q) j
       && go (q - 1)
  in
  go (Array.length a - 1)

type table = {
  heads : int array;  (* bucket -> first build tuple, -1 when empty *)
  next : int array;  (* build tuple -> next one in its bucket, in build order *)
  bkeys : int array array;
  mask : int;
}

(* Chains are threaded from the last build tuple to the first, so walking
   a bucket visits the build side in its own order. *)
let build_table (bkeys, bvalid) n ~width =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let cap = !cap in
  if Governor.budgeted () then
    Governor.charge ~source:"vector" (8 * (cap + (n * (1 + Array.length bkeys + width))));
  let heads = Array.make cap (-1) and next = Array.make (max n 1) (-1) in
  for j = n - 1 downto 0 do
    if Bytes.unsafe_get bvalid j = '\001' then begin
      let h = hash_keys bkeys j land (cap - 1) in
      Array.unsafe_set next j (Array.unsafe_get heads h);
      Array.unsafe_set heads h j
    end
  done;
  { heads; next; bkeys; mask = cap - 1 }

(* Where an output pipeline's tuples come from: a hash probe, or an unnest
   expanding each tuple of its child relation into child rows. *)
type input =
  | Probe of {
      left : (int * int array) array;  (* probe-side generators: slot, row ids *)
      right : (int * int array) array;
      table : table;
      pkeys : int array array;
      pvalid : Bytes.t;
    }
  | Expand of {
      tuples : (int * int array) array;  (* the child relation's generators *)
      parents : int array;  (* per tuple, the unnested generator's row id *)
      off : int array;  (* its shredded column's child offsets *)
    }

(* A join or an unnest ready to run: its inputs evaluated, and its output
   pipeline (a join's residual, then the steps above) typed. *)
type prepared = {
  pr_gens : (string * int) list;  (* generators of the output, left to right *)
  pr_input : input;
  pr_n : int;  (* input positions: probe tuples, or tuples to expand *)
  pr_env : cenv;
  pr_cols : col array;
  pr_col_slot : int array;  (* column -> generator slot *)
  pr_steps : kstep list;
  pr_nbinds : int;
  pr_emitted : int Atomic.t;
  pr_finish : unit -> unit;  (* feedback, once every input range ran *)
}

let rec materialize jr (t : jtree) : rel =
  let nslots = List.length jr.jr_slots in
  match t with
  | JLeaf lf ->
    let ids = scan_leaf jr lf in
    let all = Array.make nslots [||] in
    all.(lf.l_id) <- ids;
    { ids = all; n = Array.length ids }
  | JJoin _ | JUnnest _ | JSteps _ ->
    let pr = prepare jr t ~head:[] in
    let bufs = List.map (fun (_, slot) -> (slot, ibuf ())) pr.pr_gens in
    let st, runners = pipeline pr in
    feed pr st runners ~lo:0 ~hi:pr.pr_n ~sink:(fun () ->
        List.iteri (fun pos (_, b) -> ibuf_append b st.sels.(pos) st.n) bufs);
    release st;
    pr.pr_finish ();
    let all = Array.make nslots [||] in
    List.iter (fun (slot, b) -> all.(slot) <- ibuf_contents b) bufs;
    { ids = all; n = (match bufs with (_, b) :: _ -> b.len | [] -> 0) }

(* A join evaluates its build side, builds, checkpoints, then its probe
   side — the closure engine's order, which is also the order columns are
   fetched through the cache. An unnest evaluates its child, then shreds
   the array column its parent's leaf fetched. [head] lists the typed
   expressions evaluated over the output besides its own steps. *)
and prepare jr (t : jtree) ~head : prepared =
  let ctx = jr.jr_ctx in
  let steps, core = match t with JSteps (steps, core) -> (steps, core) | core -> ([], core) in
  let side gens (rel : rel) =
    Array.of_list (List.map (fun (_, slot) -> (slot, rel.ids.(slot))) gens)
  in
  let gens, input, n, residual, record =
    match core with
    | JJoin { pred; keys; residual; left; right } ->
      let rgens = tree_gens right and lgens = tree_gens left in
      let r = materialize jr right in
      let table =
        build_table (key_values jr r (List.map snd keys)) r.n ~width:(List.length rgens)
      in
      Governor.checkpoint ~source:"vector" ();
      let l = materialize jr left in
      let pkeys, pvalid = key_values jr l (List.map fst keys) in
      let record out =
        if l.n > 0 && r.n > 0 then
          Feedback.record ctx.Plugins.feedback ~key:(Feedback.join_key pred)
            ~observed:(float_of_int out /. (float_of_int l.n *. float_of_int r.n))
      in
      ( lgens @ rgens,
        Probe { left = side lgens l; right = side rgens r; table; pkeys; pvalid },
        l.n, residual, record )
    | JUnnest { var; parent; field; id; child } ->
      let c = materialize jr child in
      let sh = shred_memo ~field (boxed jr parent field) in
      List.iter
        (fun f -> Hashtbl.replace jr.jr_boxed (var, f) (child_column sh f))
        (needs jr var);
      let cgens = tree_gens child in
      ( cgens @ [ (var, id) ],
        Expand { tuples = side cgens c; parents = c.ids.(slot_of jr parent); off = sh.sh_off },
        c.n, None, ignore )
    | JLeaf _ | JSteps _ -> invalid_arg "Vector.prepare"
  in
  (* the output pipeline reads columns of every generator below it *)
  let cols, col_slots, env =
    gen_columns jr gens (Option.to_list residual @ List.map step_expr steps @ head)
  in
  let res_tap = Option.map new_tap residual in
  let env, ksteps, taps, nbinds = type_steps env steps in
  let ksteps =
    match residual, res_tap with
    | Some p, Some tap -> KFilter (type_filter env p, tap) :: ksteps
    | _ -> ksteps
  in
  let emitted = Atomic.make 0 in
  let finish () =
    flush_taps ctx taps;
    record
      (match res_tap with Some tap -> Atomic.get tap.passed | None -> Atomic.get emitted)
  in
  { pr_gens = gens; pr_input = input; pr_n = n; pr_env = env; pr_cols = cols;
    pr_col_slot = col_slots; pr_steps = ksteps; pr_nbinds = nbinds;
    pr_emitted = emitted; pr_finish = finish }

(* Fresh buffers for one input range: one row-id vector per generator. *)
and pipeline pr =
  let st =
    make_state ~bcap:(batch_rows ()) ~cols:pr.pr_cols ~nsels:(List.length pr.pr_gens)
      ~col_sel:(Array.map (gen_pos pr.pr_gens) pr.pr_col_slot)
      ~nbinds:pr.pr_nbinds
  in
  (st, List.map (step_runner st) pr.pr_steps)

(* Feed input positions [lo, hi): output tuples fill the pipeline's row-id
   vectors, a probe tuple's matches in build order, an expanded tuple's
   child rows in array order; each full batch runs the steps and then
   [sink]. *)
and feed pr st runners ~lo ~hi ~sink =
  let flush k =
    st.n <- k;
    ignore (Atomic.fetch_and_add pr.pr_emitted k);
    st.assigned <- 0;
    List.iter (fun run -> run ()) runners;
    if st.n > 0 then sink ()
  in
  let k = ref 0 in
  (* the tuple just written at [!k] is complete *)
  let next () =
    if !k + 1 = st.bcap then begin
      flush st.bcap;
      k := 0
    end
    else incr k
  in
  (match pr.pr_input with
  | Probe { left; right; table = t; pkeys; pvalid } ->
    let nleft = Array.length left in
    let outs_l = Array.sub st.sels 0 nleft
    and outs_r = Array.sub st.sels nleft (Array.length right) in
    let ids_l = Array.map snd left and ids_r = Array.map snd right in
    for i = lo to hi - 1 do
      if Bytes.unsafe_get pvalid i = '\001' then begin
        let j = ref (Array.unsafe_get t.heads (hash_keys pkeys i land t.mask)) in
        while !j >= 0 do
          let jj = !j in
          if keys_equal pkeys i t.bkeys jj then begin
            let kk = !k in
            for s = 0 to nleft - 1 do
              Array.unsafe_set (Array.unsafe_get outs_l s) kk
                (Array.unsafe_get (Array.unsafe_get ids_l s) i)
            done;
            for s = 0 to Array.length outs_r - 1 do
              Array.unsafe_set (Array.unsafe_get outs_r s) kk
                (Array.unsafe_get (Array.unsafe_get ids_r s) jj)
            done;
            next ()
          end;
          j := Array.unsafe_get t.next jj
        done
      end
    done
  | Expand { tuples; parents; off } ->
    let nt = Array.length tuples in
    let outs = Array.sub st.sels 0 nt and ids = Array.map snd tuples in
    let children = st.sels.(nt) in
    for i = lo to hi - 1 do
      let p = Array.unsafe_get parents i in
      for c = Array.unsafe_get off p to Array.unsafe_get off (p + 1) - 1 do
        let kk = !k in
        for s = 0 to nt - 1 do
          Array.unsafe_set (Array.unsafe_get outs s) kk
            (Array.unsafe_get (Array.unsafe_get ids s) i)
        done;
        Array.unsafe_set children kk c;
        next ()
      done
    done);
  if !k > 0 then flush !k

(* --- the head over the top node's output --- *)

let box (v : vval) k =
  match v with
  | VF (a, vd) -> if valid (Bytes.unsafe_get vd k) then Value.Float a.(k) else Value.Null
  | VI (a, vd) -> if valid (Bytes.unsafe_get vd k) then Value.Int a.(k) else Value.Null
  | VB (a, vd) ->
    if valid (Bytes.unsafe_get vd k) then Value.Bool (valid (Bytes.unsafe_get a k))
    else Value.Null

(* The head over the top node's output, typed once: a fused fold, or the
   parts of a bag/list element — cached values gathered at the tuple's
   row id, constants, or typed expressions boxed per tuple. *)
type part = PGather of Value.t array * int | PConst of Value.t | PTyped of vx

type thead = TFold of vx | TRecord of (string * part) list | TScalar of part

let type_head jr pr =
  let part (e : Expr.t) =
    match e with
    | Expr.Proj (Expr.Var v, f) when List.mem v pr.pr_env.src_vars ->
      PGather (boxed jr v f, slot_of jr v)
    | Expr.Const c -> PConst c
    | e ->
      let x = cx pr.pr_env e in
      if vx_ty x = TS then decline "string expression %s in the head" (Expr.to_string e);
      PTyped x
  in
  match jr.jr_cand.j_head with
  | HTyped h ->
    let x = cx pr.pr_env h in
    check_head_type jr.jr_cand.j_monoid (vx_ty x);
    TFold x
  | HBoxed (Expr.Record fs) -> TRecord (List.map (fun (name, e) -> (name, part e)) fs)
  | HBoxed e -> TScalar (part e)

(* One input range folded into a pre-finalize partial, on fresh buffers. *)
let fold_range jr pr (head : thead) ~lo ~hi =
  let st, runners = pipeline pr in
  let part = function
    | PGather (arr, id) ->
      let sel = st.sels.(gen_pos pr.pr_gens id) in
      fun () k -> Array.unsafe_get arr (Array.unsafe_get sel k)
    | PConst c -> fun () _ -> c
    | PTyped x ->
      let ev = build st x in
      fun () -> box (ev ())
  in
  let collect (value : unit -> int -> Value.t) =
    let items = ref [] in
    feed pr st runners ~lo ~hi ~sink:(fun () ->
        let get = value () in
        for k = 0 to st.n - 1 do
          items := get k :: !items
        done);
    release st;
    match jr.jr_cand.j_monoid with
    | Monoid.Coll Ty.List -> Value.List (List.rev !items)
    | _ -> Value.Bag (List.rev !items)
  in
  match head with
  | TFold x ->
    let ev = build st x in
    let accum = make_accum jr.jr_cand.j_monoid (vx_ty x) in
    feed pr st runners ~lo ~hi ~sink:(fun () -> accum.push (ev ()) st.n);
    release st;
    accum.result ()
  | TScalar p -> collect (part p)
  | TRecord fs ->
    let parts = List.map (fun (name, p) -> (name, part p)) fs in
    collect (fun () ->
        let getters = List.map (fun (name, p) -> (name, p ())) parts in
        fun k -> Value.Record (List.map (fun (name, g) -> (name, g k)) getters))

(* Run a join candidate. With [domains > 1] the top input (a join's probe
   tuples, an unnest's tuples to expand) splits into morsels whose
   partials merge in input order. *)
let run_join ctx ~domains (c : join_candidate) () : Value.t =
  let jr =
    { jr_ctx = ctx; jr_cand = c; jr_slots = tree_gens c.j_tree;
      jr_boxed = Hashtbl.create 16; jr_vcols = [] }
  in
  ignore (Atomic.fetch_and_add s_kernels 1);
  let head =
    match c.j_head with
    | HTyped h -> [ h ]
    | HBoxed h ->
      let src_vars = List.map fst jr.jr_slots in
      List.filter (fun e -> not (gathered ~src_vars e)) (boxed_parts h)
  in
  let pr = prepare jr c.j_tree ~head in
  let head = type_head jr pr in
  let domains =
    if domains <= 1 then 1
    else kernel_domains ~domains pr.pr_n
  in
  let acc =
    if domains <= 1 then fold_range jr pr head ~lo:0 ~hi:pr.pr_n
    else
      fold_morsels ~domains ~monoid:c.j_monoid ~subject:"join" pr.pr_n
        (fold_range jr pr head)
  in
  pr.pr_finish ();
  Monoid.finalize c.j_monoid acc

(* --- single-chain entry ---------------------------------------------- *)

(* Resolve columns, type and run — performed per invocation so the thunk
   never holds stale columns across a source invalidation: every run
   re-reads through the plugins cache exactly as the closure engine does,
   and the promotion memo absorbs the repeat cost. With [domains > 1] the
   rows split into morsels whose partials merge in source order. *)
let run_candidate ctx ~domains (c : candidate) () : Value.t =
  let cols =
    match c.source.Source.format with
    | Source.Binary_array
      when Plugins.bad_row_count ctx c.name = 0 && c.fields <> []
           && kernel_domains ~domains
                (Binarray.cell_count (Structures.binarray ctx.Plugins.structures c.source))
              <= 1 ->
      (* direct batch decode: no whole-column materialization at all, and
         the filters' numeric bounds prune whole batches via zone maps
         (the batch-granular analogue of the closure engine's pushdown).
         Zone maps fill lazily and unsynchronized, so a scan the kernel
         splits into morsels reads the cached columns instead. *)
      let ba = Structures.binarray ctx.Plugins.structures c.source in
      let hdr = Binarray.header ba in
      let ranges =
        List.filter_map
          (fun (f, lo, hi) ->
            Option.map
              (fun field -> { Binarray.field; lo; hi })
              (Binarray.field_index ba f))
          (List.filter_map
             (Analysis.range_of ~var:c.var)
             (List.concat_map Analysis.conjuncts
                (List.filter_map
                   (function VFilter p -> Some p | VBind _ -> None)
                   c.steps)))
      in
      Some
        ( Binarray.cell_count ba,
          Array.of_list
            (List.map
               (fun f ->
                 match Binarray.field_index ba f with
                 | None -> decline "binary array has no field %s" f
                 | Some idx ->
                   let fld = List.nth hdr.Binarray.fields idx in
                   if fld.Binarray.is_float then (f, ColRawF (ba, idx))
                   else (f, ColRawI (ba, idx)))
               c.fields),
          if ranges = [] then None else Some (ba, ranges) )
    | _ ->
      Option.map
        (fun (nrows, cols) ->
          ( nrows,
            Array.of_list
              (List.map (fun (f, arr) -> (f, promote_memo ~field:f arr)) cols),
            None ))
        (Plugins.column_arrays ctx c.source ~fields:c.fields)
  in
  match cols with
  | None ->
    decline "source %s has no columnar view (cleaning policy or format)" c.name
  | Some (nrows, cols, prune) ->
    let k =
      build_kernel ?prune ~name:c.name ~var:c.var ~cols ~nrows ~steps:c.steps
        ~params:ctx.Plugins.params
        ~monoid:c.monoid ~head:c.head ()
    in
    let domains = kernel_domains ~domains nrows in
    let acc =
      if domains <= 1 then run_instance k ~lo:0 ~hi:nrows
      else fold_morsels ~domains ~monoid:c.monoid ~subject:c.name nrows (run_instance k)
    in
    flush_feedback ctx k;
    (* a morsel-split scan records no cardinality *)
    if domains <= 1 && nrows > 0 then
      Feedback.record ctx.Plugins.feedback
        ~key:(Feedback.cardinality_key c.name)
        ~observed:(float_of_int nrows);
    Plugins.finalize_root ctx c.monoid acc

(* The one way into the kernels, for {!Compile.query} at the instance's
   domain budget: [`Run] executes the whole plan vectorized, the
   single-chain scan or the top join probe split into morsels on up to
   [domains] domains, and raises {!Not_vectorizable} at run time when
   columns turn out untypeable; [`Decline] is a static refusal with its
   reason; [`Silent] plans were never candidates. The caller records a
   decline with {!note_fallback} when it takes the fallback. *)
let compile ctx ~domains (p : Plan.t) :
    [ `Run of unit -> Value.t | `Decline of string | `Silent ] =
  match classify ctx p with
  | `Candidate c -> `Run (run_candidate ctx ~domains c)
  | `Decline _ as d -> d
  | `Silent -> (
    match classify_join ctx p with
    | `Join j -> `Run (run_join ctx ~domains j)
    | (`Decline _ | `Silent) as other -> other)

(* the vectorized->closure rung, in the process-global stats and the
   ambient governor session *)
let note_fallback reason =
  note_global_fallback reason;
  Governor.note_fallback ~stage:"vectorized->closure" ~reason ()
