(* Classify how a raw source file drifted from the generation some derived
   state (auxiliary structures, caches, a pinned query epoch) was computed
   from. The interesting case is [Appended]: external tools growing a log
   or export leave the old prefix byte-identical, and every positional
   structure over that prefix stays valid — repair can extend from the old
   tail instead of rebuilding (arXiv:1712.03320's incremental maintenance
   of raw-access structures). *)

type t =
  | Unchanged
  | Appended of { old_size : int; new_size : int }
  | Truncated of { old_size : int; new_size : int }
  | Rewritten
  | Vanished

let classify_contents ~old_fp (v : Raw_buffer.view) =
  let new_size = v.len and s = v.data in
  let old_size = old_fp.Fingerprint.size in
  if new_size = old_size then
    if Fingerprint.equal (Fingerprint.of_view v) old_fp then Unchanged
    else Rewritten
  else if new_size < old_size then Truncated { old_size; new_size }
  else if Fingerprint.equal (Fingerprint.of_sub s ~size:old_size) old_fp then
    Appended { old_size; new_size }
  else Rewritten

let classify ~old_fp path =
  let old_size = old_fp.Fingerprint.size in
  match Fingerprint.probe path with
  | None -> (Vanished, None)
  | Some now as probed ->
    let delta =
      if now.Fingerprint.size = old_size then
        if Fingerprint.equal now old_fp then Unchanged else Rewritten
      else if now.Fingerprint.size < old_size then
        Truncated { old_size; new_size = now.Fingerprint.size }
      else
        (* grew: append iff the old prefix is byte-identical (old-prefix
           fingerprint unchanged), which the prefix probe re-digests *)
        match Fingerprint.probe_prefix path ~size:old_size with
        | Some prefix when Fingerprint.equal prefix old_fp ->
          Appended { old_size; new_size = now.Fingerprint.size }
        | Some _ | None -> Rewritten
    in
    (delta, probed)

let describe = function
  | Unchanged -> "unchanged"
  | Appended { old_size; new_size } ->
    Printf.sprintf "appended (%d -> %d bytes)" old_size new_size
  | Truncated { old_size; new_size } ->
    Printf.sprintf "truncated (%d -> %d bytes)" old_size new_size
  | Rewritten -> "rewritten"
  | Vanished -> "vanished"
