type t = { size : int; head : string; mid : string; tail : string }

let window = 4096

(* Size-seeded interior window offset (splitmix-style mix): edits strictly
   between the head and tail windows of a large file must not go
   undetected, so a third window is digested at an offset derived from the
   file size — deterministic (the same size always probes the same bytes,
   so fingerprints of equal files are equal) but varying across sizes so a
   writer cannot rely on one fixed blind spot. *)
let mix_size n =
  let open Int64 in
  let z = add (of_int n) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (logand (logxor z (shift_right_logical z 31)) 0x3FFFFFFFFFFFFFFFL)

(* [(offset, length)] of the interior window for an [n]-byte file, [None]
   when head + tail already cover every byte. *)
let mid_window n =
  if n <= 2 * window then None
  else if n < 3 * window then Some (window, n - (2 * window))
  else Some (window + (mix_size n mod (n - (3 * window) + 1)), window)

(* Fingerprint from a random-access window digester, shared by the
   in-memory and on-file constructions so both always digest identical
   windows. *)
let of_reader ~size digest =
  let head = digest ~pos:0 ~len:(min window size) in
  let mid =
    match mid_window size with
    | None -> head
    | Some (pos, len) -> digest ~pos ~len
  in
  let tail = if size <= window then head else digest ~pos:(size - window) ~len:window in
  { size; head; mid; tail }

let of_sub s ~size = of_reader ~size (fun ~pos ~len -> Digest.substring s pos len)

let of_contents s = of_sub s ~size:(String.length s)

(* Digests the three windows in place: revalidating a loaded source must
   not copy the file or count as raw access. *)
let of_view (v : Raw_buffer.view) = of_sub v.data ~size:v.len
let of_buffer buf = of_view (Raw_buffer.contents buf)

(* Direct read, bypassing Raw_buffer and Io_stats: validation probes must
   not count as raw-data access or force a buffer reload. *)
let probe_channel ic ~size =
  of_reader ~size (fun ~pos ~len ->
      seek_in ic pos;
      Digest.channel ic len)

let with_channel path f =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match f ic with
        | fp -> Some fp
        | exception (Sys_error _ | End_of_file) -> None)

let probe_count = Atomic.make 0

let probes () = Atomic.get probe_count

let probe path =
  Atomic.incr probe_count;
  with_channel path (fun ic -> probe_channel ic ~size:(in_channel_length ic))

(* Fingerprint of the file's first [size] bytes — what the file's
   fingerprint {e was} if the bytes up to [size] are unchanged. [None] when
   the file shrank below [size] (or cannot be read): no such prefix
   exists. The delta detector compares this against the old fingerprint to
   classify a grown file as append-only. *)
let probe_prefix path ~size =
  match
    with_channel path (fun ic ->
        if in_channel_length ic < size then None
        else Some (probe_channel ic ~size))
  with
  | Some (Some fp) -> Some fp
  | _ -> None

let equal a b =
  a.size = b.size && String.equal a.head b.head && String.equal a.mid b.mid
  && String.equal a.tail b.tail

(* Encoded form, version-tagged. Version 2 added the interior window;
   [decode] rejects anything but the current version, which callers treat
   as a stale/unreadable stamp — an old sidecar or cache tag invalidates
   cleanly instead of being misread. *)
let version = '\x02'

let encoded_size = 1 + 8 + 16 + 16 + 16

let encode fp =
  let b = Buffer.create encoded_size in
  Buffer.add_char b version;
  for shift = 0 to 7 do
    Buffer.add_char b (Char.chr ((fp.size lsr (8 * shift)) land 0xFF))
  done;
  Buffer.add_string b fp.head;
  Buffer.add_string b fp.mid;
  Buffer.add_string b fp.tail;
  Buffer.contents b

let decode s ~pos =
  if pos < 0 || pos + encoded_size > String.length s then None
  else if s.[pos] <> version then None
  else (
    let size = ref 0 in
    for shift = 7 downto 0 do
      size := (!size lsl 8) lor Char.code s.[pos + 1 + shift]
    done;
    Some
      { size = !size;
        head = String.sub s (pos + 9) 16;
        mid = String.sub s (pos + 25) 16;
        tail = String.sub s (pos + 41) 16 })

let pp ppf fp =
  Format.fprintf ppf "size=%d head=%s mid=%s tail=%s" fp.size (Digest.to_hex fp.head)
    (Digest.to_hex fp.mid) (Digest.to_hex fp.tail)

let to_string fp = Format.asprintf "%a" pp fp
