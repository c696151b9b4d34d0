(** Every JIT query runs through {!Compile.query} at every domain count: a
    kernel splits its own rows into morsels, and what the kernels decline
    runs on the closure engine on one domain, so nothing logs a decline.

    These two definitions stay only because the benchmark suite
    ([vidabench/suite.ml]) reads them; they go with its next change. *)

(** One reason an expression kept a plan off worker domains. *)
type decline = { where : string; reason : string }

(** Always [[]]. *)
val last_declines : unit -> decline list
