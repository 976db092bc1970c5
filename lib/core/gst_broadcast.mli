(** Broadcast schedules atop a GST: the multi-message-viable schedule of
    §3.2 combined with random linear network coding (§3.3).

    In round [t], a node at BFS level [l], with GST rank [r] and virtual
    distance [d] in G′:

    - {e fast} (even rounds): if [t ≡ 2(l + 3r) (mod 6⌈log n⌉)] it
      transmits — a fresh coded packet if it heads a fast stretch, else a
      relay of the packet received in the previous fast round (the
      pipelined wave; Lemma 3.5 keeps these collision-free);
    - {e slow} (odd rounds): if [t ≡ 1 + 2d (mod 6)] it transmits a fresh
      coded packet with probability [2^{-e}], where
      [e = Decay.mmv_exponent ~ladder:⌈log n⌉ ((t-1-2d)/6)] runs
      0 … [⌈log n⌉ − 1] (and wraps for [t < 1 + 2d]) — Decay-style steps
      that push packets toward entry points of fast stretches (Lemma 3.7).

    Keying the slow transmissions by virtual distance rather than by level
    is the paper's crucial change versus [7,19]; the [slow_key] parameter
    exposes the level-keyed variant for the ablation experiment E8.

    A single-message broadcast is the [k = 1] case.  A prompted node with
    an empty buffer transmits a vacuous packet — the "noise" of the MMV
    framework (Definition 3.1).  The schedule needs no collision
    detection. *)

open Rn_util
open Rn_coding
open Rn_radio

type slow_key = By_virtual_distance  (** the paper's schedule *)
              | By_level  (** the [7,19]-style ablation *)

type result = {
  outcome : Engine.outcome;
  decode_round : int array;
      (** first round after which the node could decode all [k] messages;
          [-1] if it never could, [0] for initial holders *)
  rounds : int;
  stats : Engine.stats;
  payloads_ok : bool;
      (** every forest node that could decode recovered exactly the
          original messages *)
}

val run :
  ?slow_key:slow_key ->
  ?step_reset:int ->
  ?faults:Faults.spec ->
  ?params:Params.t ->
  ?metrics:Rn_obs.Metrics.t ->
  rng:Rng.t ->
  gst:Gst.t ->
  vd:int array ->
  msgs:Bitvec.t array ->
  sources:int array ->
  unit ->
  result
(** Broadcast the [k = Array.length msgs] messages from [sources] (each
    source starts with all of them) to every node of the GST forest.
    [vd] must give virtual distances for all forest nodes (from
    {!Gst.virtual_distances} or the distributed learning of Lemma 3.10).
    Completion = every forest node can decode all [k] messages.
    Default: [slow_key = By_virtual_distance].

    [metrics], when given, records every round into the registry with the
    phase annotation [round / (6·⌈log n⌉)] — one sweep of the slow-wave
    exponent ladder, the natural GST epoch (annotated from [after_round],
    composed before any [step_reset] action).

    [step_reset] enables the bounded-memory discipline from the strips
    argument at the end of §3.4: time is cut into steps of the given
    length (the paper uses Θ(log² n)) and a node that cannot decode the
    batch at a step boundary empties its packet buffer and restarts.  The
    paper shows a batch still advances one Θ(log² n)-height strip per
    step w.h.p., so completion survives with buffers bounded by one step's
    receptions; sources (who hold the originals) never reset.

    Under the [Sparse] engine ({!Drive.run}) each round's awake set is its
    slot bucket: the forest nodes whose fast slot (mod [6·⌈log n⌉]) or
    slow slot (mod 6) falls on the round.  A round whose bucket is empty is
    all-Listen with no RNG draw, so {!Engine_sparse.run} fast-forwards it
    and results are identical to [Dense].  Fault injection wakes the forest
    and the jammers every round (jammers transmit in arbitrary rounds) but
    keeps the sparse delivery path. *)

val fast_slot : clogn:int -> level:int -> rank:int -> round:int -> bool
(** Exposed for tests: the deterministic fast-slot predicate. *)

val slow_slot : level_or_vd:int -> round:int -> bool
(** Exposed for tests: the slow-slot predicate (before the coin flip). *)
