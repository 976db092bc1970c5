(** Explicit constants behind the paper's Θ(·) round budgets.

    Every schedule length in the paper is "Θ(log n)" phases, "Θ(log² n)"
    iterations, and so on.  For finite simulations the hidden constants
    matter: they trade failure probability against round count.  This
    record makes each constant an explicit, documented parameter;
    [default] is tuned so that all with-high-probability events succeed in
    practice at the network sizes used by the test-suite and benchmarks
    (n ≤ 2¹⁰) while keeping simulations fast.  The budgets look generous
    (e.g. [c_recruit = 12]) because a Θ(log n)-firing schedule with
    constant per-firing success needs a large constant before its failure
    probability is negligible at n ≈ 2⁶; adaptive early exit means the
    typical cost is far below these caps.

    [adaptive = true] lets multi-phase constructions stop a sub-protocol as
    soon as its goal is (observably, via the simulator's global view)
    achieved instead of always running the full worst-case budget.  This is
    a simulation-level device: it only shortens schedules whose remaining
    rounds would be no-ops, so the protocol outcome distribution for the
    achieved goal is unchanged; fixed-budget runs ([adaptive = false])
    reproduce the paper's exact round structure.  For the distributed GST
    construction this is checked, not assumed: from the same stream both
    settings build the same forest, ranks, overrides and virtual
    distances (test/test_extras.ml, "oracle exits = fixed budgets"). *)

type t = {
  c_whp : int;
      (** Decay phases for a w.h.p. delivery: [c_whp · ⌈log n⌉] phases
          (paper: Θ(log n), Lemma 2.2). *)
  c_recruit : int;
      (** Recruiting iterations: [c_recruit · ⌈log n⌉²] (paper: Θ(log² n),
          Lemma 2.3). *)
  c_epochs : int;
      (** Assignment epochs per rank: [c_epochs · ⌈log n⌉] (paper:
          Θ(log n), §2.2.3). *)
  adaptive : bool;  (** allow early exit of already-achieved phases *)
  max_round_factor : int;
      (** global simulation budget: [max_round_factor] × the predicted
          asymptotic round count; exceeded budgets are reported as
          failures rather than looping forever *)
}

val default : t

val phase_len : n:int -> int
(** Length of one Decay phase: the paper's [⌈log n⌉] (at least 1). *)

val whp_phases : t -> n:int -> int
val recruit_iterations : t -> n:int -> int
val max_epochs : t -> n:int -> int
