(* Crash-safe sidecar persistence.

   All sidecar/cache files (positional maps, future index sidecars) are
   published through this one writer: contents are assembled in full,
   written to a temp file in the same directory, and renamed over the
   destination — a reader never observes a half-written sidecar under
   POSIX rename atomicity. What rename does NOT protect against is the
   machine dying before the data blocks hit disk (we do not fsync): the
   name then points at a file whose tail is zeros or garbage. The frame
   format is designed so that load detects exactly that: a CRC32 per
   frame, a CRC-protected header carrying a generation counter, and
   length fields bounds-checked against the actual file size. A sidecar
   that fails any check is reported [Bad] and the caller quarantines and
   rebuilds from the raw file — sidecars are disposable accelerators
   (paper §2.1), so losing one costs time, never answers.

   Layout:  magic | header-crc32(4) | generation(8 LE) | nframes(8 LE)
            | nframes * ( len(8 LE) | crc32(4) | bytes )

   A [Sidecar_tear] fault ({!Fault_plan}) simulates the unflushed-rename
   failure mode for tests: a write still publishes, but the published
   file is truncated at a seeded random offset, as if the process died
   before writeback completed. *)

(* --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) --- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(crc = 0) s ~pos ~len =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let crc32_string s = crc32 s ~pos:0 ~len:(String.length s)

(* --- encoding helpers --- *)

let add_int64 b n =
  for shift = 0 to 7 do
    Buffer.add_char b (Char.chr ((n lsr (8 * shift)) land 0xFF))
  done

let add_int32 b n =
  for shift = 0 to 3 do
    Buffer.add_char b (Char.chr ((n lsr (8 * shift)) land 0xFF))
  done

let read_int64 s pos =
  let n = ref 0 in
  for shift = 7 downto 0 do
    n := (!n lsl 8) lor Char.code s.[pos + shift]
  done;
  !n

let read_int32 s pos =
  let n = ref 0 in
  for shift = 3 downto 0 do
    n := (!n lsl 8) lor Char.code s.[pos + shift]
  done;
  !n

let encode ~magic ~generation frames =
  let b = Buffer.create 4096 in
  let header = Buffer.create 16 in
  add_int64 header generation;
  add_int64 header (List.length frames);
  let header = Buffer.contents header in
  Buffer.add_string b magic;
  add_int32 b (crc32_string (magic ^ header));
  Buffer.add_string b header;
  List.iter
    (fun frame ->
      add_int64 b (String.length frame);
      add_int32 b (crc32_string frame);
      Buffer.add_string b frame)
    frames;
  Buffer.contents b

type read_result =
  | Sidecar of { generation : int; frames : string list }
  | No_sidecar
  | Bad of string

let max_frames = 1 lsl 20

let decode ~magic s =
  let mlen = String.length magic in
  let total = String.length s in
  let fail fmt = Printf.ksprintf (fun m -> Bad m) fmt in
  if total < mlen + 4 + 16 then fail "short header (%d bytes)" total
  else if not (String.equal (String.sub s 0 mlen) magic) then
    fail "bad magic %S" (String.sub s 0 (min mlen total))
  else (
    let header_crc = read_int32 s mlen in
    let actual = crc32 ~crc:(crc32 s ~pos:0 ~len:mlen) s ~pos:(mlen + 4) ~len:16 in
    if actual <> header_crc then fail "header CRC mismatch"
    else (
      let generation = read_int64 s (mlen + 4) in
      let nframes = read_int64 s (mlen + 12) in
      if nframes < 0 || nframes > max_frames then fail "implausible frame count %d" nframes
      else (
        let rec frames acc pos = function
          | 0 ->
            if pos <> total then fail "%d trailing bytes" (total - pos)
            else Sidecar { generation; frames = List.rev acc }
          | k ->
            if pos + 12 > total then fail "truncated frame header at %d" pos
            else (
              let len = read_int64 s pos in
              let crc = read_int32 s (pos + 8) in
              if len < 0 || pos + 12 + len > total then
                fail "torn frame at %d (len %d, %d bytes left)" pos len (total - pos - 12)
              else if crc32 s ~pos:(pos + 12) ~len <> crc then
                fail "frame CRC mismatch at %d" pos
              else
                frames (String.sub s (pos + 12) len :: acc) (pos + 12 + len) (k - 1))
        in
        frames [] (mlen + 20) nframes)))

(* --- file IO --- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception (Sys_error _ | End_of_file) -> None)

let read ~path ~magic =
  match read_file path with
  | None -> No_sidecar
  | Some s -> decode ~magic s

let generation ~path ~magic =
  match read ~path ~magic with Sidecar { generation; _ } -> Some generation | _ -> None

(* The write path is audited for OS failure: every open/write/rename may
   fail for real (disk full, fd exhaustion) or by an armed
   {!Fault_plan}, and every such failure surfaces as a typed
   [State_failure] (kind "state", exit 80) with the temp file cleaned up —
   callers on the persistence path degrade to no-persist mode, they never
   see an untyped [Sys_error] or abort. *)
let state_fail ~path ~op e =
  let reason =
    match e with
    | Unix.Unix_error (err, _, _) -> Unix.error_message err
    | Sys_error msg -> msg
    | e -> Printexc.to_string e
  in
  Vida_error.state_failure ~source:path ~op "%s" reason

let publish ?op ~path contents =
  let fail stage e = state_fail ~path ~op:(Option.value op ~default:stage) e in
  let tmp = path ^ ".tmp" in
  let oc =
    try
      Fault_plan.on_os `Open ~path;
      open_out_bin tmp
    with (Sys_error _ | Unix.Unix_error _) as e -> fail "open" e
  in
  (try
     Fault_plan.on_os `Write ~path;
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     (match e with
     | Sys_error _ | Unix.Unix_error _ -> fail "write" e
     | e -> raise e));
  try
    Fault_plan.on_os `Rename ~path;
    Sys.rename tmp path
  with (Sys_error _ | Unix.Unix_error _) as e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    fail "rename" e

let write ~path ~magic ?generation:gen frames =
  let generation =
    match gen with
    | Some g -> g
    | None -> (
      match generation ~path ~magic with Some g -> g + 1 | None -> 1)
  in
  let payload = encode ~magic ~generation frames in
  publish ~path
    (match Fault_plan.tear ~path ~len:(String.length payload) with
    | None -> payload
    | Some offset -> String.sub payload 0 offset);
  generation

let quarantine path =
  let dest = path ^ ".corrupt" in
  match Sys.rename path dest with
  | () -> Some dest
  | exception Sys_error _ -> (
    (* cross-check: a reader racing us may already have moved it *)
    match Sys.remove path with () -> None | exception Sys_error _ -> None)
