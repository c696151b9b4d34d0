(** The one registry of in-process fault injection.

    A {!plan} is a list of faults at named points. {!with_plan} arms it
    for the extent of a function, and {!injected} reports what it
    injected. Every trigger is deterministic (counted or seeded), so each
    degradation path it exercises is exactly testable:

    - [load]: the first [fail] load attempts of each matching source
      raise a transient [Io_failure], each after sleeping [latency_ms]
      (NFS hiccups, racing writers, cold object stores);
    - [open], [write], [rename]: the first [fail] matching calls of the
      durable-state writers ({!Atomic_sidecar}, {!State_dir}) raise
      [Unix_error] with [errno] (disk full, fd exhaustion, device
      errors), which must surface as a typed [State_failure];
    - [sidecar-tear]: roughly half of the matching sidecar publishes are
      torn at a seeded offset, as if the process died before writeback;
      the loader must detect, quarantine and rebuild;
    - [state-publish]: the process SIGKILLs itself at the [at]-th
      (1-based) publish of a state-directory point, in a given phase,
      for the recovery harness;
    - [jit-compile]: the first [fail] JIT compilations fail, so queries
      degrade to the Generic engine.

    [only] restricts a fault to the file whose path, or basename, equals
    it after normalization, never by substring: ["a.csv"] cannot select
    ["data.csv"].

    State lives behind one ranked lock. Unarmed, every hook is one
    [Atomic.get] and a branch. *)

type errno = [ `Enospc | `Emfile | `Eio ]

(** The instant within an armed state publish. *)
type phase =
  | Before  (** kill before any byte is written *)
  | Torn  (** tear the just-published file at a seeded offset, then
              kill: the unflushed-writeback failure mode *)
  | After  (** kill between the artifact publish and the manifest
               update, leaving a generation skew *)

type fault =
  | Load of { fail : int; latency_ms : float; only : string option }
  | Open of { fail : int; errno : errno; only : string option }
  | Write of { fail : int; errno : errno; only : string option }
  | Rename of { fail : int; errno : errno; only : string option }
  | Sidecar_tear of { seed : int; only : string option }
  | State_publish of { name : string; at : int; phase : phase }
      (** [name] is an artifact (["plans"], ["breakers"], ["ledger"]) or
          ["manifest"] *)
  | Jit_compile of { fail : int }

type plan = fault list

type point =
  [ `Load | `Open | `Write | `Rename | `Sidecar_tear | `State_publish | `Jit_compile ]

(** [with_plan p f] runs [f] with [p] armed, then restores the previous
    plan and its counts, whether [f] returns or raises. *)
val with_plan : plan -> (unit -> 'a) -> 'a

(** Faults injected at [point] since the current plan was armed; 0 when
    none is. *)
val injected : point -> int

(** {1 Hooks}

    Called by the code paths that can fail; no-ops when nothing matching
    is armed. *)

(** Before each raw load attempt ({!Raw_buffer}). *)
val on_load : source:string -> unit

(** Before each open, write or rename of a durable-state writer. *)
val on_os : [ `Open | `Write | `Rename ] -> path:string -> unit

(** [tear ~path ~len] is [Some offset] when the sidecar publish of [len]
    bytes to [path] is to be torn at [offset]. *)
val tear : path:string -> len:int -> int option

(** At each phase of a state-directory publish of [name] to [path]. *)
val on_publish : phase -> name:string -> path:string -> unit

(** [Some reason] when this JIT compile is to fail. *)
val jit_failure : unit -> string option

(** Arms, in place of any plan, the [state-publish] fault that
    [VIDA_STATE_CRASH="<point>:<n>[:<phase>]"] describes (phase one of
    [pre|torn|post], default [post]); leaves the plan alone when the
    variable is unset or malformed. {!State_dir.open_dir} calls it, so a
    forked [vida serve] joins the crash harness with no code path of its
    own. *)
val arm_from_env : unit -> unit

(** One step of the seeded splitmix64 stream the registry and the byte
    corruptions of {!Fault_inject} share. *)
val splitmix : int64 ref -> int64
