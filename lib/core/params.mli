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
    pay every stage's full budget, as the paper's nodes would (the
    completion stops named under "Stage exits" below still read the
    global view).  For the distributed GST
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
  adaptive : bool;
      (** allow early exit of already-achieved stages; read only through
          {!stage_over} and {!skip_stage} *)
  max_round_factor : int;
      (** global simulation budget: [max_round_factor] × the predicted
          asymptotic round count; exceeded budgets are reported as
          failures rather than looping forever *)
}

val default : t

val phase_len : n:int -> int
(** Length of one Decay phase: the paper's [⌈log n⌉] (at least 1).  It is
    the [ladder] of every Decay coin ({!Decay.exponent},
    {!Decay.mmv_exponent}) and the length of recruiting's claim window. *)

val whp_rounds : t -> n:int -> int
(** Length of one w.h.p. Decay stage: [c_whp] phases of {!phase_len}
    rounds, [c_whp · L · L] with [L = phase_len ~n].  It is the fixed
    budget of the assignment's Identify, Loner_inform and Stage III
    stages, of the virtual-distance relaxation, and of one Decay-BFS
    epoch; the ring handoffs cap their run at a multiple of it. *)

val recruit_iterations : t -> n:int -> int
val max_epochs : t -> n:int -> int

(** {1 Stage exits}

    The one rule by which a budgeted construction stage ends.  It governs
    seven stages: recruiting ([Recruiting.advance]); the assignment's
    Identify, Loner_inform and Stage III Decay stages and its Loner_probe
    skip of Loner_inform ([Bipartite_assignment]); and the virtual-distance
    stretch sweeps and Decay relaxation ([Gst_distributed], with
    [~learn_vd:true]).

    It does not govern the global-view stops that end a run at completion
    whatever [adaptive] says: the GST spread's [missing = 0], the ring
    handoffs, Decay-BFS's [labeled = n] and the collision wave. *)

val stage_over :
  t -> round:int -> budget:int -> period:int -> ('a -> bool) -> 'a -> bool
(** [stage_over t ~round ~budget ~period goal x]: the stage that has run
    [round] rounds is over.  True when [round >= budget], whatever
    [adaptive] says; otherwise, under [adaptive], when [round] is a
    multiple of [period] and [goal x] holds.  [goal] is never called under
    fixed budgets.  Pass a top-level function and its argument, or a closed
    lambda, so that a per-round check allocates nothing. *)

val skip_stage : t -> ('a -> bool) -> 'a -> bool
(** [skip_stage t goal x]: a stage whose goal already holds is skipped
    outright.  True only when [adaptive] and [goal x]; fixed budgets run
    every stage and never call [goal]. *)
