(** Descriptive statistics and least-squares fitting for experiment tables.

    The benchmark harness reports medians and dispersion over seeded runs,
    and fits simple linear models to validate the paper's asymptotic shapes
    (e.g. that measured rounds grow like [a·D + b] with [a] constant). *)

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

val summarize : float array -> summary
(** Descriptive summary of a non-empty sample.  @raise Invalid_argument on
    an empty array. *)

val mean : float array -> float
val stddev : float array -> float

val median : float array -> float
(** Median (average of the two central order statistics for even sizes). *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], linear interpolation. *)

type fit = { slope : float; intercept : float; r2 : float }

val linear_fit : (float * float) list -> fit
(** Ordinary least squares [y = slope·x + intercept] with the coefficient of
    determination [r2].  Needs at least two distinct x values. *)

type fit2 = { a : float; b : float; c : float; r2_2 : float }

val two_predictor_fit : (float * float * float) list -> fit2
(** Ordinary least squares [y = a·x1 + b·x2 + c] over points
    [(x1, x2, y)], with its coefficient of determination.  Used to check
    composite complexity shapes such as [rounds ≈ a·(D·log n) + b·log² n].
    Needs at least three points with non-degenerate predictors.
    @raise Invalid_argument when the normal equations are singular. *)

val ratio_spread : (float * float) list -> float * float
(** [ratio_spread pts] returns [(mean, max/min)] of the per-point ratios
    [y/x]; a small spread indicates y ∝ x.  Points with [x = 0] are
    skipped. *)
