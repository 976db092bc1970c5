type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  (* Float.compare orders exactly like the polymorphic compare it replaces
     (NaN equal to itself and below every number), so percentile output is
     byte-identical. *)
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let median xs = percentile xs 50.0

(* Min/max folds ordered by Float.compare, matching the percentile sort
   above: NaN is equal to itself and below every number, so [fmin] of a
   sample containing NaN is NaN (= percentile 0) and [fmax] ignores NaN
   unless the sample is all-NaN.  [Stdlib.min]/[max] use the polymorphic
   [<=], for which NaN comparisons are all false — the result then depends
   on operand order and disagrees with the percentiles in the same
   summary. *)
let fmin (a : float) (x : float) = if Float.compare x a < 0 then x else a
let fmax (a : float) (x : float) = if Float.compare x a > 0 then x else a

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize";
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left fmin xs.(0) xs;
    p25 = percentile xs 25.0;
    median = median xs;
    p75 = percentile xs 75.0;
    max = Array.fold_left fmax xs.(0) xs;
  }

type fit = { slope : float; intercept : float; r2 : float }

let linear_fit pts =
  let n = List.length pts in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if abs_float denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x";
  let slope = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. fn in
  let ybar = sy /. fn in
  let ss_tot = List.fold_left (fun a (_, y) -> a +. ((y -. ybar) ** 2.0)) 0.0 pts in
  let ss_res =
    List.fold_left
      (fun a (x, y) -> a +. ((y -. (slope *. x) -. intercept) ** 2.0))
      0.0 pts
  in
  let r2 = if ss_tot < 1e-12 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { slope; intercept; r2 }

type fit2 = { a : float; b : float; c : float; r2_2 : float }

(* Solve the 3x3 normal equations with Gaussian elimination. *)
let solve3 m v =
  let m = Array.map Array.copy m and v = Array.copy v in
  for col = 0 to 2 do
    (* Partial pivot. *)
    let piv = ref col in
    for r = col + 1 to 2 do
      if abs_float m.(r).(col) > abs_float m.(!piv).(col) then piv := r
    done;
    if abs_float m.(!piv).(col) < 1e-9 then
      invalid_arg "Stats.two_predictor_fit: singular normal equations";
    if !piv <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!piv);
      m.(!piv) <- tmp;
      let tv = v.(col) in
      v.(col) <- v.(!piv);
      v.(!piv) <- tv
    end;
    for r = 0 to 2 do
      if r <> col then begin
        let f = m.(r).(col) /. m.(col).(col) in
        for c = col to 2 do
          m.(r).(c) <- m.(r).(c) -. (f *. m.(col).(c))
        done;
        v.(r) <- v.(r) -. (f *. v.(col))
      end
    done
  done;
  Array.init 3 (fun i -> v.(i) /. m.(i).(i))

let two_predictor_fit pts =
  if List.length pts < 3 then
    invalid_arg "Stats.two_predictor_fit: need at least three points";
  let s f = List.fold_left (fun acc p -> acc +. f p) 0.0 pts in
  let n = float_of_int (List.length pts) in
  let sx1 = s (fun (x, _, _) -> x)
  and sx2 = s (fun (_, x, _) -> x)
  and sy = s (fun (_, _, y) -> y) in
  let sx11 = s (fun (x, _, _) -> x *. x)
  and sx22 = s (fun (_, x, _) -> x *. x)
  and sx12 = s (fun (x1, x2, _) -> x1 *. x2)
  and sx1y = s (fun (x1, _, y) -> x1 *. y)
  and sx2y = s (fun (_, x2, y) -> x2 *. y) in
  let sol =
    solve3
      [| [| sx11; sx12; sx1 |]; [| sx12; sx22; sx2 |]; [| sx1; sx2; n |] |]
      [| sx1y; sx2y; sy |]
  in
  let a = sol.(0) and b = sol.(1) and c = sol.(2) in
  let ybar = sy /. n in
  let ss_tot = s (fun (_, _, y) -> (y -. ybar) ** 2.0) in
  let ss_res =
    s (fun (x1, x2, y) -> (y -. (a *. x1) -. (b *. x2) -. c) ** 2.0)
  in
  let r2_2 = if ss_tot < 1e-12 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { a; b; c; r2_2 }

let ratio_spread pts =
  let ratios =
    List.filter_map (fun (x, y) -> if x = 0.0 then None else Some (y /. x)) pts
  in
  match ratios with
  | [] -> invalid_arg "Stats.ratio_spread: no usable points"
  | r0 :: _ ->
      let arr = Array.of_list ratios in
      let mn = Array.fold_left fmin r0 arr
      and mx = Array.fold_left fmax r0 arr in
      (mean arr, if mn = 0.0 then infinity else mx /. mn)
