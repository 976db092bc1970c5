(* Order statistics for the benchmark's reports. *)

(* Python's [statistics.quantiles xs ~n:4] (method "exclusive"), operation
   for operation, so the spreads printed here are the ones an external
   check computes from the same values. *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stat.quartiles: empty sample";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = i * m - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median: the noise measure every
   bound in BENCHMARK.json is compared against. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = Rn_util.Stats.median xs in
  if Float.equal m 0. then 0. else (q3 -. q1) /. Float.abs m

(* The highest reported tail percentile that still has at least ten
   samples beyond it; below 40 samples only the median is reported. *)
let tail_percentile n =
  (* in tenths of a percent, so the count test is exact *)
  List.find_opt (fun q -> n * (1000 - q) >= 10_000) [ 999; 990; 900; 750 ]
  |> Option.map (fun q -> float_of_int q /. 10.)
