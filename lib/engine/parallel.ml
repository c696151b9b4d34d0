(* Kept only for vidabench/suite.ml, which sums these; see parallel.mli. *)

type decline = { where : string; reason : string }

let last_declines () : decline list = []
