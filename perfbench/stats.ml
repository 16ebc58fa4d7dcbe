(* The benchmark's one timing helper: wall-clock a call, and summarize
   repeated measurements by median, quartiles, tail and sample count. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type summary = { n : int; median : float; q1 : float; q3 : float; p95 : float }

(* Linear interpolation between closest ranks. *)
let quantile sorted p =
  let n = Array.length sorted in
  let h = p *. float_of_int (n - 1) in
  let i = int_of_float h in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((h -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let summarize xs =
  if xs = [] then invalid_arg "Stats.summarize: empty sample";
  let a = Array.of_list xs in
  Array.sort compare a;
  {
    n = Array.length a;
    median = quantile a 0.5;
    q1 = quantile a 0.25;
    q3 = quantile a 0.75;
    p95 = quantile a 0.95;
  }
