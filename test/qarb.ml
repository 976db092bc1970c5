(* Shared QCheck arbitraries for the test executables. *)

(* [int_range lo hi] draws what [QCheck.int_range lo hi] draws for
   [0 <= lo <= hi] ([lo] plus a uniform [0 .. hi - lo]), but shrinks
   toward [lo].  QCheck's own shrinks toward 0, out of the range, so a
   failing property whose range feeds a size (a depth or width of at
   least 1) would report the generator's [Invalid_argument] instead of
   its own counterexample. *)
let int_range lo hi =
  QCheck.int_bound (hi - lo)
  |> QCheck.map ~rev:(fun x -> x - lo) (fun x -> x + lo)
  |> QCheck.set_print string_of_int
