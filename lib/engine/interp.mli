(** The one Volcano executor: tuple-at-a-time over name→value
    environments, with hash joins on equality conjuncts, grouped [Nest]
    and three-valued filters. Two callers share it, differing only in how
    a generator's elements are streamed and how a scalar is evaluated.

    - {!query} is the generic "pre-cooked" engine, paper §4's foil. It
      runs the same algebra over the same raw-file substrates with none of
      the JIT's per-query specialization: environments are rebuilt per
      tuple, scalars are interpreted by walking the AST, and input plugins
      fetch every field (no projection pushdown). The JIT-vs-interpreted
      benchmark (DESIGN.md A1) measures exactly this overhead.
    - {!resolved} is the classical engine the baseline stores share; their
      differences live in storage layout and scan, which [resolve]
      supplies. *)

(** [query ctx plan] runs [plan] generically, producing the same result as
    {!Compile.query}. *)
val query : Plugins.ctx -> Vida_algebra.Plan.t -> unit -> Vida_data.Value.t

(** [resolved ~resolve plan] executes [plan]. [resolve name ~need consumer]
    must stream the elements of source [name]; [need] is the projection
    hint (stores that can, read less).
    @raise Invalid_argument on an unknown source (propagated from
    [resolve]). *)
val resolved :
  resolve:(string -> need:Analysis.need -> (Vida_data.Value.t -> unit) -> unit) ->
  Vida_algebra.Plan.t -> Vida_data.Value.t
