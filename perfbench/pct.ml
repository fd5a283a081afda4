(* Order statistics for the benchmark's timings.  Quantiles are
   nearest-rank over a sorted copy, so every reported figure is a
   sample that was actually measured. *)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Nearest-rank [p]-th percentile of an already sorted array. *)
let quantile s p =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let median s = quantile s 50.

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else Array.fold_left ( +. ) 0. a /. float_of_int n

(* The highest percentile that keeps at least [beyond] samples above
   it, with its value: for n samples that is 100 (n - beyond) / n, the
   sample at rank n - beyond.  [None] when there are too few samples
   for any tail at all. *)
let tail ?(beyond = 10) s =
  let n = Array.length s in
  if n <= beyond then None
  else
    Some
      ( 100. *. float_of_int (n - beyond) /. float_of_int n,
        s.(n - beyond - 1) )

(* The percentile reported as "p99": p99 itself when at least ten
   samples lie beyond it, otherwise the highest percentile that does. *)
let p99 s =
  match tail s with
  | Some (p, v) when p < 99. -> (p, v)
  | Some _ -> (99., quantile s 99.)
  | None -> (100., quantile s 100.)
