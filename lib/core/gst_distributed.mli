(** Distributed GST construction (Theorem 2.1, §2.2, and Lemma 3.10).

    Builds a gathering spanning tree (or forest, for ring bands) with only
    node-local knowledge and radio communication, in four phases:

    + {b Layering} — BFS levels via {!Layering} (Decay-based without
      collision detection, or the [D]-round collision wave with it), or a
      caller-provided layering (ring decompositions reuse one global
      layering).
    + {b Assignment} — one {!Bipartite_assignment} instance per level pair.
      [`Sequential] runs them one at a time, deepest first —
      [O(D log⁵ n)] rounds; [`Pipelined] (§2.2.4) interleaves all pairs,
      granting pair [l] the rounds [≡ l (mod 3)] and gating its rank-[i]
      phase on pair [l+1] having finished rank [i−1] — [O((D + log n)
      log⁴ n)] rounds.  (The paper interleaves two adjacent pairs in even /
      odd rounds; with every pair live at once, transmissions reach two
      levels away, so three round classes are needed — a constant-factor
      correction, see DESIGN.md.)
    + {b Wave-safety self-test} — 3·[⌈log n⌉] deterministic rounds in which
      all nodes of rank [r] in layer class [c] transmit their id; a node
      whose parent shares its rank but that does not hear {e exactly its
      parent} flags itself [head_override] (it knows its parent must have
      transmitted, so a silent round implies a collision even without
      collision detection).  This is the distributed form of
      {!Gst.repair_wave_safety}.
    + {b Virtual distances} (optional, Lemma 3.10) — nodes learn their
      distance in the virtual graph G′ by [2⌈log n⌉] rounds of alternating
      stretch sweeps and Decay relaxation, [O(D log² n + log³ n)] rounds.

    The returned {!Gst.t} is assembled from what nodes learned locally;
    {!Gst.validate} holds w.h.p. *)

open Rn_util
open Rn_radio

type mode = Sequential | Pipelined

type layering_spec =
  | Decay_layering
  | Collision_wave_layering
  | Given_layering of int array

type result = {
  gst : Gst.t;
  parent_rank : int array;
      (** each node's knowledge of its parent's rank ([-1] for roots) *)
  vd : int array;
      (** learned virtual distances ([-1] everywhere unless [learn_vd]) *)
  layering_rounds : int;
  assignment_rounds : int;
  selftest_rounds : int;
  vd_rounds : int;
  total_rounds : int;
  class_fixups : int;
  fallback_reactivations : int;
}

val construct :
  ?mode:mode ->
  ?layering:layering_spec ->
  ?learn_vd:bool ->
  ?params:Params.t ->
  ?detection:Engine.detection ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  roots:int array ->
  unit ->
  result
(** Defaults: [mode = Pipelined], [layering = Decay_layering],
    [learn_vd = false], [detection = No_collision_detection] (the
    construction never needs CD; pass [Collision_wave_layering] together
    with [Collision_detection] for the Theorem 1.1 pipeline).

    Under the [Sparse] engine ({!Drive.run}) the assignment phase wakes only
    the current stage's actors in live bipartite blocks
    ({!Bipartite_assignment.awake}; a dormant — [Waiting] or finished —
    block's nodes all sleep); its per-round control costs the live blocks
    of the round's slot, not the depth; the self-test wakes one rank group
    per round and nobody in an empty (rank, layer-class) slice;
    vd-learning wakes the sweeping level pair (stage 1, nobody at a level
    with no potential transmitter) or the relaxation candidates (stage 2).
    A round whose awake set is empty is fast-forwarded.  Results are
    identical to [Dense]: every excluded node's decide is a
    side-effect-free [Sleep], or, in a recruiting part, a side-effect-free
    [Listen] whose deliver is a no-op that round — per-node RNG streams
    advance exactly as under the full scan (DESIGN.md §12).
    @raise Failure if a phase exhausts its round budget. *)
