(* A file's bytes live in a store with spare capacity past the committed
   length; each generation of the file is a view of it: the shared bytes
   plus that generation's own length. Bytes below the committed length
   never change, so an append claims the tail with a compare-and-set on
   it, writes past every existing view and publishes a longer view over
   the same store: older generations keep reading their own prefix. The
   spare capacity always holds [poison], so a reader that runs past its
   view reads bytes no file holds. *)
type store = { bytes : Bytes.t; committed : int Atomic.t; spare : int }

type view = { data : string; len : int }

type backing = File | Memory of string

type t = { path : string; backing : backing; mutable contents : (store * view) option }

let poison = '\xff'

let store_of_string s =
  { bytes = Bytes.unsafe_of_string s; committed = Atomic.make (String.length s); spare = 0 }

let of_path path = { path; backing = File; contents = None }

let of_string ~source contents =
  { path = source; backing = Memory contents; contents = None }

let path t = t.path

(* [Epoch.validate_contents], registered at module init by [Epoch] — a
   direct call would be a dependency cycle (Epoch → Delta → Fingerprint →
   Raw_buffer). Identity until Epoch is linked, in which case no epoch can
   be ambient either. *)
let validate_load : (source:string -> view -> unit) ref =
  ref (fun ~source:_ _ -> ())

(* Opens the file for one load attempt; transient failures surface as
   [Io_failure] so the governed retry loop below can distinguish them from
   corruption. *)
let with_file t read =
  Fault_plan.on_load ~source:t.path;
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

let view_of_string s = { data = s; len = String.length s }

let force t =
  match t.contents with
  | Some (_, v) -> v
  | None ->
    let s =
      match t.backing with
      | Memory s -> s
      | File ->
        let s = governed_read t (fun ic -> really_input_string ic (in_channel_length ic)) in
        (* a load (or reload) mid-query must not hand the query a newer
           generation than the one it pinned at start *)
        !validate_load ~source:t.path (view_of_string s);
        s
    in
    Io_stats.add_file_loads 1;
    let v = view_of_string s in
    t.contents <- Some (store_of_string s, v);
    v

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
    { path = t.path; backing = Memory s; contents = Some (store_of_string s, view_of_string s) }

(* A fresh store for [size] bytes whose first [have] are [v]'s: its spare
   capacity doubles the previous store's, or the append's, whichever is
   larger, and is capped at an eighth of the length, so copies are
   amortized over the appends they make room for and the heap carries at
   most an eighth of the file in spare bytes. *)
let fresh_store (st : store) (v : view) ~size =
  let spare = min (size / 8) (2 * max st.spare (size - v.len)) in
  let bytes = Bytes.create (size + spare) in
  Bytes.blit_string v.data 0 bytes 0 v.len;
  Bytes.fill bytes size spare poison;
  { bytes; committed = Atomic.make size; spare }

(* Claims [have, size) of [st] for the view of length [have]: only one
   extension of a given tail wins, a loser (or a tail past the capacity)
   gets a fresh store. *)
let claim (st : store) (v : view) ~size =
  if size <= Bytes.length st.bytes && Atomic.compare_and_set st.committed v.len size
  then st
  else fresh_store st v ~size

(* Gives a claimed tail back: the bytes become poison again and the
   committed length returns to [have]. No view past [have] was published,
   so no other extension can have claimed beyond it meanwhile. *)
let release (st : store) ~have ~size =
  Bytes.fill st.bytes have (size - have) poison;
  ignore (Atomic.compare_and_set st.committed size have)

(* The old view plus a read of only the file's bytes from its end up to
   [size], into the tail of the old store when it is free; [None] when the
   file is now shorter than [size] or [accept] refuses the new view. *)
let extend t ~size ~accept =
  match (t.contents, t.backing) with
  | None, _ | _, Memory _ -> None
  | Some (st, v), File ->
    let have = v.len in
    if size < have then None
    else
      governed_read t (fun ic ->
          if in_channel_length ic < size then None
          else (
            let st' = claim st v ~size in
            let v' = { data = Bytes.unsafe_to_string st'.bytes; len = size } in
            let give_back () = if st' == st then release st ~have ~size in
            match
              seek_in ic have;
              really_input ic st'.bytes have (size - have);
              !validate_load ~source:t.path v';
              accept v'
            with
            | true -> Some (st', v')
            | false | (exception End_of_file) ->
              give_back ();
              None
            | exception e ->
              give_back ();
              raise e))
      |> Option.map (fun contents ->
             Io_stats.add_file_loads 1;
             { path = t.path; backing = File; contents = Some contents })

let length t = (force t).len

(* The file's bytes as a view, for validated-range scan loops that want
   [String.unsafe_get] without a per-byte bounds check. Does not count
   toward [bytes_read] (callers account for what they consume). *)
let contents t = force t

let slice t ~pos ~len =
  let v = force t in
  if pos < 0 || len < 0 || pos + len > v.len then
    Vida_error.truncated ~source:t.path ~offset:(max 0 pos)
      "%d bytes at [%d,%d) of a %d-byte file" len pos (pos + len) v.len;
  Io_stats.add_bytes_read len;
  String.sub v.data pos len

let char_at t pos =
  let v = force t in
  if pos < 0 || pos >= v.len then
    Vida_error.truncated ~source:t.path ~offset:(max 0 pos)
      "one byte at %d of a %d-byte file" pos v.len;
  String.unsafe_get v.data pos

let index_from t pos c =
  let v = force t in
  if pos >= v.len then None
  else
    match String.index_from_opt v.data (max 0 pos) c with
    | Some i when i < v.len -> Some i
    | Some _ | None -> None

let loaded t = t.contents <> None

let invalidate t =
  match t.backing with Memory _ -> () | File -> t.contents <- None
