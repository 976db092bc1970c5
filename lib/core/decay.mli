(** The Decay protocol of Bar-Yehuda, Goldreich and Itai (BGI) [2].

    Decay is the standard randomized technique for coping with collisions:
    rounds are grouped into phases of [⌈log n⌉] rounds and in the i-th
    round of a phase every participating node transmits independently with
    probability 2^{-i}.  Lemma 2.2: whichever the set of participating
    neighbors, a listener receives something in a phase with probability
    ≥ 1/8, hence Θ(log n) phases deliver w.h.p.

    This module provides
    - the Decay ladder that every construction in the paper draws on, in
      one place: {!exponent} (exponents 1 … L) and {!mmv_exponent} (the
      level-keyed exponents 0 … L−1 of §3.1).  The ladder length L is
      {!Params.phase_len} and a w.h.p. stage lasts {!Params.whp_rounds},
    - the single-message Decay broadcast: classic
      (the [O(D log n + log² n)] baseline of §1.3), or, given a diameter
      estimate, on the truncated-ladder schedule that serves as the
      Czumaj–Rytter / Kowalski–Pelc [O(D log(n/D) + log² n)] stand-in
      (see DESIGN.md §4),
    - the multi-message-viable Decay schedule of §3.1 (Lemma 3.2), in which
      prompted nodes that do not yet have the message transmit noise. *)

open Rn_util
open Rn_radio

val exponent : ladder:int -> int -> int
(** [exponent ~ladder r] is the exponent of round [r] of a Decay schedule
    whose phase cycles through 1 … [ladder] ([ladder ≥ 1]):
    [(r mod ladder) + 1].  A participant transmits on
    [Rng.coin_pow2 rng (exponent ~ladder r)], i.e. with probability
    [2^{-exponent ~ladder r}], drawing exactly as [Rng.bernoulli] on that
    float does.  Every 1-based Decay coin is drawn on it:
    {!broadcast} (classic and the CR cycle), Decay-BFS layering
    ([Layering.decay_bfs]), recruiting's announce coin
    ([Recruiting], on the iteration index over [ladder]), the assignment's
    Identify, Loner_inform and Stage III coins ([Bipartite_assignment]),
    the virtual-distance relaxation ([Gst_distributed]), the ring handoffs
    ([Rings]) and the routing baseline ([Baselines.routing_multi]). *)

val mmv_exponent : ladder:int -> int -> int
(** [mmv_exponent ~ladder step] is the exponent of step [step] of a
    level-keyed ladder of §3.1: [step mod ladder] taken in 0 … [ladder − 1],
    so a negative step wraps to [ladder + (step mod ladder)].  The step is
    the round counted from the node's own slot, divided by the slot
    spacing.  Exponent 0 transmits with probability 1.  Drawn on by
    {!mmv_broadcast} (step [(r − l − 1)/3]) and the slow rounds of
    [Gst_broadcast] (step [(t − 1 − 2d)/6]). *)

type result = {
  outcome : Engine.outcome;
  received_round : int array;
      (** first round in which each node held the message; [-1] = never,
          [0] = source *)
  stats : Engine.stats;
}

val cr_ladder : n:int -> diameter:int -> int
(** The truncated ladder [⌈log(n/D)⌉ + 1] of the Czumaj–Rytter-style
    schedule. *)

val broadcast :
  ?params:Params.t ->
  ?diameter:int ->
  ?faults:Faults.spec ->
  ?metrics:Rn_obs.Metrics.t ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  unit ->
  result
(** Decay broadcast: every node holding the message participates in every
    round, drawing its coin on the round's exponent.  Collision detection
    is irrelevant to Decay; the run uses [No_collision_detection] as in
    [2].

    Without [diameter] this is classic Decay: phases of [⌈log n⌉] rounds
    with exponents 1 … [⌈log n⌉], delivering to all nodes w.h.p. in
    [O(D log n + log² n)] rounds.  [diameter] is the constant-factor
    estimate of [D] the model grants every node (§1.1); with it the run
    is the Czumaj–Rytter / Kowalski–Pelc-shaped baseline.  The original
    algorithms build on selective families; per DESIGN.md §4 we use the
    standard truncated-ladder stand-in: a cycle of three truncated phases
    with exponents 1 … [min ⌈log n⌉ (cr_ladder ~n ~diameter)] (progress
    [O(log(n/D))] per hop when layer degrees are ≤ n/D), then one full
    phase so dense neighborhoods still resolve.

    [metrics], when given, records every round into the registry with the
    phase annotation [round / cycle], where the cycle is one classic phase
    of [⌈log n⌉] rounds (Lemma 2.2's unit) or one whole truncated³+full
    schedule cycle (set from [after_round], never from the parallel
    deliver phase), and, after the run, folds each non-source node's
    first-receive round into the registry's histogram — create the
    registry with [~hist_width:⌈log n⌉] to make a classic run's histogram
    a per-phase first-receive count.  Identical registry contents under
    both engine modes. *)

val mmv_broadcast :
  ?params:Params.t ->
  ?noising:bool ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  levels:int array ->
  source:int ->
  unit ->
  result
(** The level-keyed Decay schedule of Lemma 3.2: a node at BFS level [l] is
    prompted only in rounds [r ≡ l + 1 (mod 3)], with probability
    [2^{-mmv_exponent ~ladder:⌈log n⌉ ((r - l - 1)/3)}].  With
    [noising = true] (default) prompted nodes without the message send
    noise — the MMV framework of
    Definition 3.1; with [noising = false] they stay silent (classic
    behaviour), the comparison point for experiment E7. *)
