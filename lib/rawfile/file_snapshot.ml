type t = { path : string; fingerprint : Fingerprint.t }

let take path =
  match Fingerprint.probe path with
  | Some fingerprint -> { path; fingerprint }
  | None ->
    (* surface the OS's own reason, as opening the file would *)
    close_in (open_in_bin path);
    raise (Sys_error (path ^ ": cannot be read"))

let of_fingerprint path fingerprint = { path; fingerprint }
let path t = t.path
let size t = t.fingerprint.Fingerprint.size
let matches t fp = Fingerprint.equal t.fingerprint fp

let stale t =
  match Fingerprint.probe t.path with
  | Some fp -> not (matches t fp)
  | None -> true

let pp ppf t = Format.fprintf ppf "%s (%d bytes)" t.path (size t)
