(* The one place the suite turns samples into reported numbers. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. [None] unless at least ten samples lie above
   that rank, so a tail is never read off a handful of points (p99 needs
   n >= 1000, p50 needs n >= 20). *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  if n = 0 || rank < 1 || n - rank < 10 then None else Some a.(rank - 1)

(* Median of a handful of per-pass or per-setup values: the middle sample,
   or the mean of the two middle ones. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
