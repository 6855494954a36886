(* Growable int samples (latencies in ns) and order statistics. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 4096 0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let percentile_of_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (float_of_int a.(lo) *. (1.0 -. frac)) +. (float_of_int a.(hi) *. frac)

let percentile t q = percentile_of_sorted (sorted t) q

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Rates over [windows] consecutive, equal slices of the samples (each
   a duration in ns): ops per second of summed duration. *)
let window_rates t ~windows =
  let per = max 1 (t.len / windows) in
  let rates = ref [] in
  let i = ref 0 in
  while !i + per <= t.len do
    let s = ref 0 in
    for j = !i to !i + per - 1 do
      s := !s + t.data.(j)
    done;
    rates := (float_of_int per /. (float_of_int !s /. 1e9)) :: !rates;
    i := !i + per
  done;
  !rates

(* Upper quartile of [rates]: the rate a quarter of them beat.  On a
   shared host, load from outside the program (a neighbour thrashing
   the shared caches) slows it in stretches of seconds to minutes and
   never speeds it up, so the fast slices show the program's own speed
   and repeat from run to run; a run's mean, median or slowest slices
   follow the neighbours instead. *)
let upper_quartile rates =
  let r = Array.of_list rates in
  Array.sort compare r;
  r.(3 * Array.length r / 4)
