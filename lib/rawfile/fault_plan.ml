(* The one registry of in-process fault injection.

   A plan is a list of faults at named points; [with_plan] arms it for the
   extent of a function and restores the previous plan, with its counts,
   on any exit. Each point keeps its own trigger: a load fails the first
   n attempts of each matching source, an open/write/rename the first n
   matching calls, a sidecar publish is torn about half of the time at a
   seeded offset, a state publish SIGKILLs the process at its n-th
   occurrence, a JIT compile fails the first n times.

   Lives below [Raw_buffer] and the durable-state writers, which consult
   it through the hooks at the bottom; the engine facade consults the JIT
   point. Every hook starts with one [Atomic.get] of the armed state, so
   an unarmed process pays a branch and takes no lock. *)

type errno = [ `Enospc | `Emfile | `Eio ]

type phase = Before | Torn | After

type fault =
  | Load of { fail : int; latency_ms : float; only : string option }
  | Open of { fail : int; errno : errno; only : string option }
  | Write of { fail : int; errno : errno; only : string option }
  | Rename of { fail : int; errno : errno; only : string option }
  | Sidecar_tear of { seed : int; only : string option }
  | State_publish of { name : string; at : int; phase : phase }
  | Jit_compile of { fail : int }

type plan = fault list

type point =
  [ `Load | `Open | `Write | `Rename | `Sidecar_tear | `State_publish | `Jit_compile ]

(* splitmix64: one seeded stream, so a seed replays the same faults *)
let splitmix state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* An armed plan with its counts. Hits are keyed by point and by what the
   trigger counts per: the source for a load, the publish point's name
   for a state publish, nothing for the others. *)
type state = {
  plan : plan;
  hits : (point * string, int) Hashtbl.t;
  injected : (point, int) Hashtbl.t;
  rng : int64 ref;
}

let fresh plan =
  let seed =
    List.fold_left
      (fun acc f -> match f with Sidecar_tear { seed; _ } -> seed | _ -> acc)
      0 plan
  in
  { plan; hits = Hashtbl.create 8; injected = Hashtbl.create 8; rng = ref (Int64.of_int seed) }

let current : state option Atomic.t = Atomic.make None
let lock = Vida_sync.Lock.create ~rank:97 ~name:"raw.fault-plan" ()
let cell = "raw.fault-plan"
let () = Vida_sync.Cell.register ~name:cell

let install st = Atomic.set current (if st.plan = [] then None else Some st)

let with_plan plan f =
  let saved =
    Vida_sync.Lock.protect lock (fun () ->
        let saved = Atomic.get current in
        install (fresh plan);
        saved)
  in
  Fun.protect
    ~finally:(fun () -> Vida_sync.Lock.protect lock (fun () -> Atomic.set current saved))
    f

let injected point =
  match Atomic.get current with
  | None -> 0
  | Some st ->
    Vida_sync.Lock.protect lock (fun () ->
        Vida_sync.Cell.read ~name:cell ~site:"fault-plan.injected";
        Option.value ~default:0 (Hashtbl.find_opt st.injected point))

(* Counts one hit at [key] of [counts] and returns its 0-based index.
   Called with [lock] held. *)
let bump counts key =
  Vida_sync.Cell.write ~name:cell ~site:"fault-plan.hit";
  let k = Option.value ~default:0 (Hashtbl.find_opt counts key) in
  Hashtbl.replace counts key (k + 1);
  k

(* The first-[fail] trigger: counts one hit at [key], and [Some k] (its
   0-based index) when it is one of the first [fail], counted injected. *)
let first st ((point, _) as key) ~fail =
  Vida_sync.Lock.protect lock (fun () ->
      let k = bump st.hits key in
      if k < fail then (
        ignore (bump st.injected point);
        Some k)
      else None)

(* Selector matching is exact on the normalized path or its basename, never
   a substring scan: [only = "a.csv"] must not fault "data.csv". *)
let normalize path =
  let path =
    let n = String.length path in
    if n > 1 && path.[n - 1] = '/' then String.sub path 0 (n - 1) else path
  in
  if Filename.is_relative path then Filename.concat Filename.current_dir_name path
  else path

let matches only path =
  match only with
  | None -> true
  | Some sel ->
    String.equal sel path
    || String.equal (normalize sel) (normalize path)
    || String.equal (Filename.basename sel) (Filename.basename path)

(* The armed state and the first fault [pick] accepts, if any. *)
let armed pick =
  match Atomic.get current with
  | None -> None
  | Some st -> Option.map (fun f -> (st, f)) (List.find_map pick st.plan)

(* --- hooks ------------------------------------------------------------ *)

(* Before each load attempt: sleeps (to make deadlines deterministically
   reachable), then fails the first [fail] attempts per source with a
   transient [Io_failure] (to exercise the retry/backoff path). *)
let on_load ~source =
  match
    armed (function
      | Load { fail; latency_ms; only } when matches only source -> Some (fail, latency_ms)
      | _ -> None)
  with
  | None -> ()
  | Some (st, (fail, latency_ms)) ->
    Vida_governor.Governor.sleep_ms latency_ms;
    Option.iter
      (fun k -> Vida_error.io_failure ~source "injected transient IO failure (attempt %d)" (k + 1))
      (first st (`Load, source) ~fail)

(* Before each open/write/rename of a durable-state writer: the first
   [fail] matching calls raise [Unix_error] with the plan's errno. *)
let on_os op ~path =
  match
    armed (fun f ->
        match (op, f) with
        | `Open, Open { fail; errno; only }
        | `Write, Write { fail; errno; only }
        | `Rename, Rename { fail; errno; only }
          when matches only path ->
          Some (fail, errno)
        | _ -> None)
  with
  | None -> ()
  | Some (st, (fail, errno)) ->
    if first st ((op :> point), "") ~fail <> None then
      let err = match errno with `Enospc -> Unix.ENOSPC | `Emfile -> Unix.EMFILE | `Eio -> Unix.EIO in
      let name = match op with `Open -> "open" | `Write -> "write" | `Rename -> "rename" in
      raise (Unix.Unix_error (err, name, path))

(* [Some offset] when this sidecar publish should be torn at [offset]:
   roughly half of the matching publishes, at a uniform offset in
   [0, len). *)
let tear ~path ~len =
  match armed (function Sidecar_tear { only; _ } when matches only path -> Some () | _ -> None) with
  | None -> None
  | Some (st, ()) ->
    Vida_sync.Lock.protect lock (fun () ->
        Vida_sync.Cell.write ~name:cell ~site:"fault-plan.tear";
        let bits = Int64.to_int (Int64.logand (splitmix st.rng) 0x3FFFFFFFFFFFFFFFL) in
        if bits land 1 = 0 || len = 0 then None
        else (
          ignore (bump st.injected `Sidecar_tear);
          Some (bits lsr 1 mod len)))

let die () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* Called by the state directory's publish sequence at each phase. On the
   armed occurrence: [Before] kills before any write; [Torn] truncates the
   just-published file at a seeded offset (the unflushed-writeback failure
   mode rename cannot protect against) and kills; [After] kills between
   the artifact publish and the manifest update. The count advances on
   [Before], so [at = 2] means the second publish of that point. *)
let on_publish phase ~name ~path =
  match
    armed (function
      | State_publish { name = n; at; phase = p } when String.equal n name -> Some (at, p)
      | _ -> None)
  with
  | None -> ()
  | Some (st, (at, armed_phase)) ->
    let due =
      Vida_sync.Lock.protect lock (fun () ->
          let n =
            if phase = Before then 1 + bump st.hits (`State_publish, name)
            else Option.value ~default:0 (Hashtbl.find_opt st.hits (`State_publish, name))
          in
          let due = n = at && armed_phase = phase in
          if due then ignore (bump st.injected `State_publish);
          due)
    in
    if due then (
      (if phase = Torn then
         match
           let ic = open_in_bin path in
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         with
         | contents ->
           let len = String.length contents in
           let keep = if len = 0 then 0 else Hashtbl.hash (name, at) land max_int mod len in
           let oc = open_out_bin path in
           output_string oc (String.sub contents 0 keep);
           close_out oc
         | exception (Sys_error _ | End_of_file) -> ());
      die ())

(* [Some reason] when this JIT compile should fail. *)
let jit_failure () =
  match armed (function Jit_compile { fail } -> Some fail | _ -> None) with
  | None -> None
  | Some (st, fail) ->
    Option.map (fun _ -> "injected JIT compile failure") (first st (`Jit_compile, "") ~fail)

(* VIDA_STATE_CRASH="<point>:<n>[:<phase>]", e.g. "plans:2:torn": kill -9
   self at the 2nd plans publish, after tearing the published file. *)
let arm_from_env () =
  let parts =
    String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "VIDA_STATE_CRASH"))
  in
  let phase =
    match parts with
    | [ _; _ ] | [ _; _; ("" | "post") ] -> Some After
    | [ _; _; "pre" ] -> Some Before
    | [ _; _; "torn" ] -> Some Torn
    | _ -> None
  in
  match (parts, phase) with
  | name :: n :: _, Some phase -> (
    match int_of_string_opt n with
    | Some at when at >= 1 ->
      Vida_sync.Lock.protect lock (fun () ->
          install (fresh [ State_publish { name; at; phase } ]))
    | _ -> ())
  | _ -> ()
