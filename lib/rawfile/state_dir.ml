(* Durable warm state: the crash-safe state directory.

   ViDa's economics rest on amortizing just-in-time work — positional
   maps, optimized plans, breaker verdicts, quarantine ledgers — across a
   workload (paper §2, §5). All of that used to die with the process: a
   kill -9 of a serving instance paid full cold-start cost on restart.
   This module is the system-wide promotion of the {!Atomic_sidecar}
   publish discipline: one directory under which every piece of warm
   state is persisted crash-safely and revalidated on load.

   Layout:
     DIR/lock              single-instance lockfile: "pid:starttime"
     DIR/MANIFEST          journaled registry of artifacts (CRC-framed)
     DIR/<name>.bin        named artifacts (plans, breakers, ledger),
                           each an {!Atomic_sidecar} file of opaque frames
     DIR/structures/       positional-map sidecars, keyed by the MD5 of
                           the source's backing path
     *.corrupt             quarantined torn/corrupt files (age/count-GC'd)

   Trust discipline: every artifact is self-validating (magic, CRC-framed,
   generation counter) and every LOAD revalidates — a corrupt artifact is
   quarantined to [*.corrupt] and reported missing, never trusted; a
   stale one (fingerprint mismatch, checked by the caller) is silently
   rebuilt. The manifest is a journal, not an authority: a crash between
   an artifact publish and its manifest update leaves a generation skew,
   which costs nothing because loads trust the artifact's own framing.
   Losing any file here costs time, never answers.

   Failure discipline: every OS failure on the write path (disk full, fd
   exhaustion, IO errors — real or injected via {!Fault_plan}) surfaces as
   a typed [State_failure] (exit 80). The {!persist} wrapper converts
   that into the documented no-persist degraded mode: the flag flips, the
   failure is counted, queries keep answering, and persistence stays
   suspended until {!reset_degraded}. *)

let manifest_magic = "VSDM"
let artifact_magic = "VSDA"
let format_version = "vida-state:1"

(* --- lockfile: single instance, liveness-probed ---------------------- *)

(* Start time (clock ticks since boot) of [pid], from /proc — the pair
   (pid, starttime) survives pid reuse, the bug class that makes a bare
   pid probe reclaim a lock a NEW process legitimately holds. On systems
   without /proc the probe degrades to kill(pid, 0) liveness only. *)
(* (state char, starttime) from /proc/<pid>/stat; fields counted from
   after the parenthesized comm (which may itself contain spaces and
   parentheses) — state is field 3, starttime field 22 *)
let proc_stat pid =
  match
    let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> input_line ic)
  with
  | exception Sys_error _ -> (None, None)
  | exception End_of_file -> (None, None)
  | line -> (
    match String.rindex_opt line ')' with
    | None -> (None, None)
    | Some i ->
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      let fields =
        List.filter (fun s -> s <> "") (String.split_on_char ' ' rest)
      in
      (* rest starts at field 3 (state), so starttime is index 19 *)
      let state =
        match List.nth_opt fields 0 with
        | Some s when String.length s = 1 -> Some s.[0]
        | _ -> None
      in
      let start =
        match List.nth_opt fields 19 with
        | Some s -> int_of_string_opt s
        | None -> None
      in
      (state, start))

let proc_start_time pid = snd (proc_stat pid)

(* a zombie still answers kill(pid, 0) and keeps its starttime readable,
   but it will never release a lock: its unreaped pid must not block a
   restart (the exact shape a SIGKILLed server leaves behind until its
   supervisor reaps it) *)
let proc_defunct pid =
  match fst (proc_stat pid) with Some ('Z' | 'X') -> true | _ -> false

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true (* EPERM: exists *)

type lock_probe = No_holder | Stale | Live of int | Self

let probe_lock path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> input_line ic)
  with
  | exception Sys_error _ -> No_holder
  | exception End_of_file -> Stale (* empty lockfile: a torn write *)
  | line -> (
    match String.split_on_char ':' (String.trim line) with
    | pid :: rest -> (
      match int_of_string_opt pid with
      | None -> Stale
      | Some pid when pid = Unix.getpid () -> Self
      | Some pid ->
        if not (pid_alive pid) || proc_defunct pid then Stale
        else (
          (* pid is alive — but is it the SAME process that locked? *)
          match
            ( (match rest with [ st ] -> int_of_string_opt st | _ -> None),
              proc_start_time pid )
          with
          | Some recorded, Some current when recorded <> current ->
            Stale (* pid reuse: a different process wears that pid now *)
          | _ -> Live pid))
    | [] -> Stale)

(* --- the state directory --------------------------------------------- *)

type report = {
  r_dir : string;
  r_degraded : bool;
  r_persists : int;  (* artifact publishes completed *)
  r_persist_failures : int;  (* typed State_failures on the persist path *)
  r_warm_loads : int;  (* artifacts served CRC-valid from disk *)
  r_corrupt_quarantined : int;  (* corrupt files moved to *.corrupt *)
  r_quarantine_removed : int;  (* *.corrupt files GC'd *)
  r_lock_reclaimed : bool;  (* a stale holder's lockfile was reclaimed *)
  r_last_failure : string option;
}

type t = {
  dir : string;
  artifacts : (string, int) Hashtbl.t;  (* name -> generation *)
  structs : (string, string) Hashtbl.t;  (* path digest -> source path *)
  mutable degraded : bool;
  mutable persists : int;
  mutable persist_failures : int;
  mutable warm_loads : int;
  mutable corrupt_quarantined : int;
  mutable quarantine_removed : int;
  lock_reclaimed : bool;
  mutable last_failure : string option;
  mutable closed : bool;
  lock : Vida_sync.Lock.t;
}

let locked t f = Vida_sync.Lock.protect t.lock f
let dir t = t.dir
let lock_path dir = Filename.concat dir "lock"
let manifest_path dir = Filename.concat dir "MANIFEST"
let artifact_path t name = Filename.concat t.dir (name ^ ".bin")
let structure_dir t = Filename.concat t.dir "structures"

let mkdir_p path =
  match Unix.mkdir path 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
    Vida_error.state_failure ~source:path ~op:"mkdir" "%s" (Unix.error_message e)

(* published like every durable writer, but the lockfile carries no
   CRC: it is probed for liveness, not trusted *)
let write_lock_file dir =
  let self = Unix.getpid () in
  Atomic_sidecar.publish ~op:"lock" ~path:(lock_path dir)
    (match proc_start_time self with
    | Some st -> Printf.sprintf "%d:%d\n" self st
    | None -> Printf.sprintf "%d\n" self)

(* --- quarantine retention ---

   [*.corrupt] files are diagnostics, not state: they accumulate across
   crashes and would grow forever. GC keeps the newest [max_count] that
   are younger than [max_age_s]; both bounds at 0 purge everything. *)
let default_quarantine_age_s = 7. *. 24. *. 3600.
let default_quarantine_count = 32

let corrupt_files dir =
  let in_dir d =
    match Sys.readdir d with
    | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             if Filename.check_suffix f ".corrupt" then
               Some (Filename.concat d f)
             else None)
    | exception Sys_error _ -> []
  in
  in_dir dir @ in_dir (Filename.concat dir "structures")

let gc_quarantine ~max_age_s ~max_count dir =
  let now = Unix.gettimeofday () in
  let aged =
    List.filter_map
      (fun path ->
        match Unix.stat path with
        | { Unix.st_mtime; _ } -> Some (path, now -. st_mtime)
        | exception Unix.Unix_error _ -> None)
      (corrupt_files dir)
    |> List.sort (fun (_, a) (_, b) -> compare a b) (* newest first *)
  in
  let removed = ref 0 in
  List.iteri
    (fun i (path, age) ->
      if i >= max_count || age > max_age_s then (
        match Sys.remove path with
        | () -> incr removed
        | exception Sys_error _ -> ()))
    aged;
  !removed

(* --- manifest ---------------------------------------------------------

   One frame per record: "a\t<name>\t<generation>" for artifacts,
   "s\t<digest>\t<source path>" for structure sidecars; frame 0 carries
   the format version. A corrupt manifest is quarantined and rebuilt
   empty — artifacts are rediscovered lazily by their own framing. *)

let write_manifest t =
  Vida_sync.Lock.assert_held t.lock;
  let path = manifest_path t.dir in
  Fault_plan.on_publish Before ~name:"manifest" ~path;
  let frames =
    format_version
    :: (Hashtbl.fold
          (fun name gen acc -> Printf.sprintf "a\t%s\t%d" name gen :: acc)
          t.artifacts []
       @ Hashtbl.fold
           (fun digest source acc ->
             Printf.sprintf "s\t%s\t%s" digest source :: acc)
           t.structs [])
  in
  ignore (Atomic_sidecar.write ~path ~magic:manifest_magic frames);
  Fault_plan.on_publish Torn ~name:"manifest" ~path

let read_manifest t =
  let path = manifest_path t.dir in
  match Atomic_sidecar.read ~path ~magic:manifest_magic with
  | Atomic_sidecar.No_sidecar -> ()
  | Atomic_sidecar.Bad _ ->
    ignore (Atomic_sidecar.quarantine path);
    t.corrupt_quarantined <- t.corrupt_quarantined + 1
  | Atomic_sidecar.Sidecar { frames; _ } ->
    List.iter
      (fun frame ->
        match String.split_on_char '\t' frame with
        | [ "a"; name; gen ] -> (
          match int_of_string_opt gen with
          | Some g -> Hashtbl.replace t.artifacts name g
          | None -> ())
        | [ "s"; digest; source ] -> Hashtbl.replace t.structs digest source
        | _ -> () (* version frame, or a future record kind: skip *))
      frames

(* --- lifecycle -------------------------------------------------------- *)

let open_dir ?(quarantine_max_age_s = default_quarantine_age_s)
    ?(quarantine_max_count = default_quarantine_count) dir =
  mkdir_p dir;
  mkdir_p (Filename.concat dir "structures");
  let reclaimed =
    match probe_lock (lock_path dir) with
    | No_holder | Self -> false
    | Stale ->
      (try Sys.remove (lock_path dir) with Sys_error _ -> ());
      true
    | Live pid ->
      Vida_error.state_failure ~source:(lock_path dir) ~op:"lock"
        "state directory is held by live process %d" pid
  in
  write_lock_file dir;
  let t =
    { dir; artifacts = Hashtbl.create 8; structs = Hashtbl.create 8;
      degraded = false; persists = 0; persist_failures = 0; warm_loads = 0;
      corrupt_quarantined = 0; quarantine_removed = 0;
      lock_reclaimed = reclaimed; last_failure = None; closed = false;
      lock = Vida_sync.Lock.create ~rank:85 ~name:"raw.state-dir" () }
  in
  read_manifest t;
  t.quarantine_removed <-
    gc_quarantine ~max_age_s:quarantine_max_age_s
      ~max_count:quarantine_max_count dir;
  Fault_plan.arm_from_env ();
  t

let close t =
  locked t (fun () ->
      if not t.closed then (
        t.closed <- true;
        match probe_lock (lock_path t.dir) with
        | Self -> ( try Sys.remove (lock_path t.dir) with Sys_error _ -> ())
        | No_holder | Stale | Live _ -> ()))

(* --- artifacts -------------------------------------------------------- *)

(* raises [State_failure] on any OS write failure; {!persist} is the
   degraded-aware wrapper the background persistence path uses *)
let save_artifact t ~name frames =
  locked t (fun () ->
      let path = artifact_path t name in
      Fault_plan.on_publish Before ~name ~path;
      let gen = Atomic_sidecar.write ~path ~magic:artifact_magic frames in
      Fault_plan.on_publish Torn ~name ~path;
      Fault_plan.on_publish After ~name ~path;
      Hashtbl.replace t.artifacts name gen;
      write_manifest t;
      t.persists <- t.persists + 1)

let note_persist_failure t e =
  locked t (fun () ->
      t.degraded <- true;
      t.persist_failures <- t.persist_failures + 1;
      t.last_failure <- Some (Vida_error.to_string e))

let persist t ~name frames =
  if locked t (fun () -> t.degraded || t.closed) then false
  else
    match save_artifact t ~name frames with
    | () -> true
    | exception Vida_error.Error (Vida_error.State_failure _ as e) ->
      note_persist_failure t e;
      false

let load_artifact t ~name =
  let path = artifact_path t name in
  match Atomic_sidecar.read ~path ~magic:artifact_magic with
  | Atomic_sidecar.No_sidecar -> None
  | Atomic_sidecar.Bad _ ->
    (* torn by a crash mid-writeback: quarantine, never trust *)
    ignore (Atomic_sidecar.quarantine path);
    locked t (fun () ->
        t.corrupt_quarantined <- t.corrupt_quarantined + 1;
        Hashtbl.remove t.artifacts name);
    None
  | Atomic_sidecar.Sidecar { frames; _ } ->
    locked t (fun () -> t.warm_loads <- t.warm_loads + 1);
    Some frames

(* --- structure sidecar registry --------------------------------------- *)

let record_structure t ~digest ~source =
  locked t (fun () ->
      match Hashtbl.find_opt t.structs digest with
      | Some s when String.equal s source -> ()
      | _ ->
        Hashtbl.replace t.structs digest source;
        if not (t.degraded || t.closed) then (
          match write_manifest t with
          | () -> ()
          | exception Vida_error.Error (Vida_error.State_failure _) ->
            t.degraded <- true;
            t.persist_failures <- t.persist_failures + 1))

let structures t =
  locked t (fun () ->
      Hashtbl.fold (fun d s acc -> (d, s) :: acc) t.structs []
      |> List.sort compare)

(* --- degraded mode + reporting ----------------------------------------- *)

let degraded t = locked t (fun () -> t.degraded)

let reset_degraded t =
  locked t (fun () ->
      t.degraded <- false;
      t.last_failure <- None)

let clean_quarantine ?(max_age_s = 0.) ?(max_count = 0) t =
  let removed = gc_quarantine ~max_age_s ~max_count t.dir in
  locked t (fun () ->
      t.quarantine_removed <- t.quarantine_removed + removed);
  removed

let bump_warm_loads t n =
  locked t (fun () -> t.warm_loads <- t.warm_loads + n)

let report t =
  locked t (fun () ->
      { r_dir = t.dir; r_degraded = t.degraded; r_persists = t.persists;
        r_persist_failures = t.persist_failures; r_warm_loads = t.warm_loads;
        r_corrupt_quarantined = t.corrupt_quarantined;
        r_quarantine_removed = t.quarantine_removed;
        r_lock_reclaimed = t.lock_reclaimed;
        r_last_failure = t.last_failure })
