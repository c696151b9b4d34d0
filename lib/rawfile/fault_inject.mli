(** Deterministic fault injection for raw-data robustness tests.

    Produces corrupted variants of raw bytes — seeded, so every failure a
    test finds is replayable — and wraps them as {!Raw_buffer}-compatible
    views. The fault model covers what hostile user files actually exhibit:
    truncation (a writer died mid-file), bit flips (storage corruption),
    short reads (bytes silently missing mid-stream), and trailing garbage
    (a partially overwritten file). Faults in how reading, writing and
    publishing behave are armed through {!Fault_plan}. *)

type fault =
  | Truncate_at of int  (** keep only the first [n] bytes *)
  | Truncate_tail of int  (** drop the last [n] bytes *)
  | Bit_flip of { offset : int; bit : int }
      (** flip one bit ([offset] taken modulo the length) *)
  | Random_bit_flips of int  (** [n] seeded random single-bit flips *)
  | Short_read of { offset : int; dropped : int }
      (** [dropped] bytes silently missing starting at [offset] *)
  | Garbage_append of int  (** [n] seeded random bytes appended *)
  | Overwrite of { offset : int; bytes : string }
      (** splat literal bytes over the contents at [offset] *)

(** [apply ~seed faults s] applies each fault in order. Deterministic in
    [seed] (default 0). *)
val apply : ?seed:int -> fault list -> string -> string

(** [buffer ~source ~seed faults s] is [apply] wrapped as an in-memory
    {!Raw_buffer.t} named [source]. *)
val buffer : source:string -> ?seed:int -> fault list -> string -> Raw_buffer.t

(** [corrupt_file ~seed faults ~path] rewrites a file in place with the
    faults applied — for end-to-end tests over registered sources. *)
val corrupt_file : ?seed:int -> fault list -> path:string -> unit
