(** The Decay protocol of Bar-Yehuda, Goldreich and Itai (BGI) [2].

    Decay is the standard randomized technique for coping with collisions:
    rounds are grouped into phases of [⌈log n⌉] rounds and in the i-th
    round of a phase every participating node transmits independently with
    probability 2^{-i}.  Lemma 2.2: whichever the set of participating
    neighbors, a listener receives something in a phase with probability
    ≥ 1/8, hence Θ(log n) phases deliver w.h.p.

    This module provides
    - the probability ladder used as a building block by every construction
      in the paper,
    - the single-message Decay broadcast: classic
      (the [O(D log n + log² n)] baseline of §1.3), or, given a diameter
      estimate, on the truncated-ladder schedule that serves as the
      Czumaj–Rytter / Kowalski–Pelc [O(D log(n/D) + log² n)] stand-in
      (see DESIGN.md §4),
    - the multi-message-viable Decay schedule of §3.1 (Lemma 3.2), in which
      prompted nodes that do not yet have the message transmit noise. *)

open Rn_util
open Rn_radio

val probability : ladder:int -> int -> float
(** [probability ~ladder r] is the transmit probability in round [r] of a
    Decay schedule whose phase cycles through exponents 1 … [ladder]:
    [2^{-((r mod ladder) + 1)}].  The protocols draw this ladder as
    [Rng.coin_pow2 rng ((r mod ladder) + 1)], which decides exactly as
    [Rng.bernoulli rng (probability ~ladder r)] without allocating; this
    float form is the documented reference and the tests' oracle. *)

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
  ?engine:Engine.mode ->
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

    [engine] (default [Sparse]) picks the round path via {!Drive.run}:
    [Sparse] runs {!Engine_sparse.run}, eliding the per-round silence
    deliveries (Decay ignores them), and [Dense] is the {!Engine.run}
    reference.  Identical results under both modes; no skip hint is
    offered because informed nodes draw a coin every round.

    [metrics], when given, records every round into the registry with the
    phase annotation [round / cycle], where the cycle is one classic phase
    of [⌈log n⌉] rounds (Lemma 2.2's unit) or one whole truncated³+full
    schedule cycle (set from [after_round], never from the parallel
    deliver phase), and, after the run, folds each non-source node's
    first-receive round into the registry's histogram — create the
    registry with [~hist_width:⌈log n⌉] to make a classic run's histogram
    a per-phase first-receive count.  Identical registry contents under
    every [engine]. *)

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
    [2^{-((r - l - 1)/3 mod ⌈log n⌉)}].  With [noising = true] (default)
    prompted nodes without the message send noise — the MMV framework of
    Definition 3.1; with [noising = false] they stay silent (classic
    behaviour), the comparison point for experiment E7. *)
