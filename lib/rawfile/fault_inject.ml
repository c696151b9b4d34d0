type fault =
  | Truncate_at of int
  | Truncate_tail of int
  | Bit_flip of { offset : int; bit : int }
  | Random_bit_flips of int
  | Short_read of { offset : int; dropped : int }
  | Garbage_append of int
  | Overwrite of { offset : int; bytes : string }

(* a seeded stream, so a seed reproduces the exact same corruption
   everywhere *)
let rand_int state bound =
  if bound <= 0 then 0
  else
    Int64.to_int
      (Int64.rem (Int64.logand (Fault_plan.splitmix state) Int64.max_int) (Int64.of_int bound))

let apply_one state s fault =
  let n = String.length s in
  match fault with
  | Truncate_at keep -> String.sub s 0 (max 0 (min n keep))
  | Truncate_tail drop -> String.sub s 0 (max 0 (n - drop))
  | Bit_flip { offset; bit } ->
    if n = 0 then s
    else (
      let b = Bytes.of_string s in
      let i = ((offset mod n) + n) mod n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit land 7))));
      Bytes.to_string b)
  | Random_bit_flips count ->
    if n = 0 then s
    else (
      let b = Bytes.of_string s in
      for _ = 1 to count do
        let i = rand_int state n in
        let bit = rand_int state 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
      done;
      Bytes.to_string b)
  | Short_read { offset; dropped } ->
    let offset = max 0 (min n offset) in
    let stop = min n (offset + max 0 dropped) in
    String.sub s 0 offset ^ String.sub s stop (n - stop)
  | Garbage_append count ->
    let b = Buffer.create (n + count) in
    Buffer.add_string b s;
    for _ = 1 to count do
      Buffer.add_char b (Char.chr (rand_int state 256))
    done;
    Buffer.contents b
  | Overwrite { offset; bytes } ->
    if offset < 0 || offset >= n then s
    else (
      let b = Bytes.of_string s in
      String.iteri
        (fun i c -> if offset + i < n then Bytes.set b (offset + i) c)
        bytes;
      Bytes.to_string b)

let apply ?(seed = 0) faults s =
  let state = ref (Int64.of_int seed) in
  List.fold_left (apply_one state) s faults

let buffer ~source ?seed faults s = Raw_buffer.of_string ~source (apply ?seed faults s)

let corrupt_file ?seed faults ~path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let corrupted = apply ?seed faults contents in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc corrupted)
