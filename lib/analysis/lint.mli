(** Plan linter: advisory checks over optimized algebra plans.

    Unlike the {!Verifier} (which enforces invariants), lints flag plans
    that will execute correctly but badly: cartesian products, filters the
    optimizer left above a join, wide materializations that pollute the
    value caches, and staleness hazards on the raw files behind a source.

    Catalog (stable IDs):
    - [P01] {e cartesian-product} (warning) — a [Product] with no
      enclosing predicate relating its two sides scans |L|×|R| pairs.
    - [P02] {e filter-not-pushed} (warning) — a [Select] sits directly
      above a join/product/map it could descend past, so rows are
      materialized before being discarded.
    - [P03] {e wide-materialization} (warning) — a bare stream plan
      escapes whole environments wider than {!wide_threshold} fields;
      the decoded columns evict hotter entries from the cache.
    - [P04] {e unknown-source} (error) — the plan references a variable
      that is neither a registered source nor a session parameter.
    - [P05] {e stale-source} (warning) — a referenced source's backing
      file changed since registration; its sidecars/fingerprints are
      staleness hazards until re-registration.
    - [P06] {e trivial-filter} (info) — a constant-true predicate.
    - [P07] {e order-sensitive-fold} (info) — the fold monoid is
      non-commutative, so the result depends on source order; the
      parallel engine must (and does) merge partials in morsel order.

    Kernel-safety obligations over the vectorized rung ([P08]-[P10]) are
    catalogued here but discharged {e dynamically}: {!Kernel} provides
    the pure checks, and when the concurrency sanitizer ([Vida_sync],
    [VIDA_SANITIZE]) is active the engine runs P08 and P09 on every
    kernel batch run and P10 in [Vector.fold_morsels], the one place
    morsel partials merge. Failures surface as ["kernel-obligation"] sync
    findings.
    - [P08] {e selection-vector-integrity} (error) — each batch's
      selection vector must be strictly increasing (sorted, unique) and
      in-bounds for the batch.
    - [P09] {e scratch-escape} (error) — a kernel instance's scratch
      buffers are single-morsel: the instance must run on the domain
      that instantiated it.
    - [P10] {e merge-order} (error) — merging morsel partials must
      satisfy the monoid's [merge_requirement] (ordered merge for
      non-commutative monoids). *)

type severity = Info | Warning | Error

val severity_name : severity -> string

type finding = { id : string; severity : severity; message : string }

val pp_finding : Format.formatter -> finding -> unit

(** [(id, severity, one-line description)] for every lint. *)
val catalog : (string * severity * string) list

(** Environment-record width beyond which a bare materialization is
    flagged as [P03]. *)
val wide_threshold : int

(** [plan ?env ?stale p] — findings for [p], most severe first. [env]
    enables the width and unknown-source checks; [stale] names sources
    whose backing files are known to have changed. *)
val plan :
  ?env:(string * Vida_data.Ty.t) list -> ?stale:string list ->
  Vida_algebra.Plan.t -> finding list

(** The highest severity among [findings] ([None] when clean). *)
val max_severity : finding list -> severity option
