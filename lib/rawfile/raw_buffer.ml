type backing = File | Memory of string

type t = { path : string; backing : backing; mutable contents : string option }

let of_path path = { path; backing = File; contents = None }

let of_string ~source contents =
  { path = source; backing = Memory contents; contents = None }

let path t = t.path

(* [Epoch.validate_contents], registered at module init by [Epoch] — a
   direct call would be a dependency cycle (Epoch → Delta → Fingerprint →
   Raw_buffer). Identity until Epoch is linked, in which case no epoch can
   be ambient either. *)
let validate_load : (source:string -> string -> unit) ref =
  ref (fun ~source:_ _ -> ())

(* Opens the file for one load attempt; transient failures surface as
   [Io_failure] so the governed retry loop below can distinguish them from
   corruption. *)
let with_file t read =
  Io_fault.on_load ~source:t.path;
  match open_in_bin t.path with
  | exception Sys_error reason -> Vida_error.io_failure ~source:t.path "%s" reason
  | ic -> (
    try Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
    with Sys_error reason | Failure reason ->
      Vida_error.io_failure ~source:t.path "%s" reason)

(* The governed load path shared by whole-file loads and prefix reads. *)
let governed_read t read =
  (* the per-source circuit breaker sheds immediately while open — a
     hashtable probe instead of a failing load plus backoffs *)
  Vida_governor.Governor.Breaker.check ~source:t.path;
  (* transient IO errors are retried with bounded exponential backoff
     under the ambient governor session; persistent ones keep their
     structured [Io_failure] and count against the breaker (one failure
     per exhausted retry loop, not per attempt) *)
  let s =
    try
      Vida_governor.Governor.with_retries ~source:t.path (fun () -> with_file t read)
    with Vida_error.Error (Vida_error.Io_failure { reason; _ }) as e ->
      Vida_governor.Governor.Breaker.failure ~source:t.path ~reason;
      raise e
  in
  Vida_governor.Governor.Breaker.success ~source:t.path;
  s

let force t =
  match t.contents with
  | Some s -> s
  | None ->
    let s =
      match t.backing with
      | Memory s -> s
      | File ->
        let s = governed_read t (fun ic -> really_input_string ic (in_channel_length ic)) in
        (* a load (or reload) mid-query must not hand the query a newer
           generation than the one it pinned at start *)
        !validate_load ~source:t.path s;
        s
    in
    Io_stats.add_file_loads 1;
    t.contents <- Some s;
    s

let prefix_window = 65536

(* The prefix grows by doubling; each read is cut at its last newline and
   handed to [enough], and a read with no newline yet just grows. *)
let prefix t ~enough =
  match (t.contents, t.backing) with
  | Some _, _ | None, Memory _ -> t
  | None, File ->
    (* the same governed path as a load, minus the epoch validation: a
       prefix is not a generation *)
    let s =
      governed_read t (fun ic ->
          let b = Buffer.create prefix_window in
          let rec grow want =
            match Buffer.add_channel b ic (want - Buffer.length b) with
            | exception End_of_file -> Buffer.contents b
            | () -> (
              let s = Buffer.contents b in
              match String.rindex_opt s '\n' with
              | Some i when enough (String.sub s 0 (i + 1)) -> String.sub s 0 (i + 1)
              | _ -> grow (2 * want))
          in
          grow prefix_window)
    in
    { path = t.path; backing = Memory s; contents = Some s }

(* The old bytes plus a read of only the file's bytes from their end up
   to [size], on the governed load path; [None] when the file is now
   shorter than [size]. *)
let extend t ~size =
  match (t.contents, t.backing) with
  | None, _ | _, Memory _ -> None
  | Some old, File ->
    let have = String.length old in
    if size < have then None
    else
      governed_read t (fun ic ->
          if in_channel_length ic < size then None
          else (
            let b = Bytes.create size in
            Bytes.blit_string old 0 b 0 have;
            seek_in ic have;
            match really_input ic b have (size - have) with
            | () -> Some (Bytes.unsafe_to_string b)
            | exception End_of_file -> None))
      |> Option.map (fun s ->
             !validate_load ~source:t.path s;
             Io_stats.add_file_loads 1;
             { path = t.path; backing = File; contents = Some s })

let length t = String.length (force t)

(* The whole file as one immutable string, for validated-range scan loops
   that want [String.unsafe_get] without a per-byte bounds check. Does not
   count toward [bytes_read] (callers account for what they consume). *)
let contents t = force t

let slice t ~pos ~len =
  let s = force t in
  if pos < 0 || len < 0 || pos + len > String.length s then
    Vida_error.truncated ~source:t.path ~offset:(max 0 pos)
      "%d bytes at [%d,%d) of a %d-byte file" len pos (pos + len) (String.length s);
  Io_stats.add_bytes_read len;
  String.sub s pos len

let char_at t pos =
  let s = force t in
  if pos < 0 || pos >= String.length s then
    Vida_error.truncated ~source:t.path ~offset:(max 0 pos)
      "one byte at %d of a %d-byte file" pos (String.length s);
  String.unsafe_get s pos

let index_from t pos c =
  let s = force t in
  if pos >= String.length s then None else String.index_from_opt s (max 0 pos) c

let loaded t = t.contents <> None

let invalidate t =
  match t.backing with Memory _ -> () | File -> t.contents <- None
