(* Snapshot-consistent query epochs.

   A query pins the fingerprint of every raw source it references at
   start; all derived data served to that query (buffers, cached columns,
   auxiliary structures) must match those pins, and long scan loops
   periodically re-probe the file on disk so a concurrent writer is
   detected promptly instead of at the next query. A detected change
   raises [Vida_error.Source_changed]; the governor decides whether to
   re-pin and retry. The epoch is ambient (domain-local, like the
   governor session) so scanners and morsel workers reach it without
   plumbing. *)

(* A pin may be looked up under several keys (the registry's source name
   at the engine layer, the backing file path inside the raw scanners), so
   each entry records the filesystem path to re-probe regardless of which
   key found it. *)
type t = {
  mutex : Vida_sync.Lock.t;
  mutable pins : (string * (string * Fingerprint.t)) list;  (* key -> (path, fp) *)
  checks : int Atomic.t;  (* stride counter for on-disk probes *)
  probes : int Atomic.t;  (* probes actually performed *)
}

let create () =
  { mutex = Vida_sync.Lock.create ~rank:85 ~name:"raw.epoch" ();
    pins = []; checks = Atomic.make 0; probes = Atomic.make 0 }

let locked e f = Vida_sync.Lock.protect e.mutex f

let pin e ~source ?path fp =
  let path = Option.value path ~default:source in
  locked e (fun () ->
      e.pins <- (source, (path, fp)) :: List.remove_assoc source e.pins)

let find_full e source = locked e (fun () -> List.assoc_opt source e.pins)
let find e source = Option.map snd (find_full e source)

let pins e =
  locked e (fun () -> List.map (fun (key, (_, fp)) -> (key, fp)) (List.rev e.pins))

let probes e = Atomic.get e.probes

(* --- ambient epoch, domain-local like Governor.current --- *)

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

let with_epoch e f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some e);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let pinned source =
  match current () with None -> None | Some e -> find e source

let changed ~source delta =
  Vida_error.source_changed ~source "%s" (Delta.describe delta)

(* Revalidate freshly loaded bytes against the pin (buffer loads: a reload
   mid-query must not hand the query a newer generation). *)
let validate_contents ~source view =
  match pinned source with
  | None -> ()
  | Some fp -> (
    match Delta.classify_contents ~old_fp:fp view with
    | Delta.Unchanged -> ()
    | delta -> changed ~source delta)

(* Buffer loads validate through this hook (direct dependency would be a
   cycle: Epoch → Delta → Fingerprint → Raw_buffer). *)
let () = Raw_buffer.validate_load := fun ~source v -> validate_contents ~source v

(* --- periodic on-disk probe from scan loops --- *)

let default_stride = 4096
let stride = Atomic.make default_stride

let set_check_stride n = Atomic.set stride (max 1 n)
let reset_check_stride () = Atomic.set stride default_stride

let probe_now e ~source ~path fp =
  Atomic.incr e.probes;
  match Delta.classify ~old_fp:fp path with
  | Delta.Unchanged, _ -> ()
  | delta, _ -> changed ~source delta

let check ~source () =
  match current () with
  | None -> ()
  | Some e -> (
    match find_full e source with
    | None -> ()
    | Some (path, fp) ->
      let n = Atomic.fetch_and_add e.checks 1 in
      if (n + 1) mod Atomic.get stride = 0 then probe_now e ~source ~path fp)

let revalidate ~source () =
  match current () with
  | None -> ()
  | Some e -> (
    match find_full e source with
    | None -> ()
    | Some (path, fp) -> probe_now e ~source ~path fp)
