(** Gathering Spanning Trees (§2.1) and their centralized construction.

    A GST is a ranked BFS tree (or forest, for ring decompositions whose
    whole inner boundary acts as the source) satisfying the
    collision-freeness property: whenever two blue nodes u₁, u₂ of rank r
    have distinct parents v₁, v₂ that also have rank r, there is no edge
    v₁–u₂ or v₂–u₁ (Figure 3).  Maximal same-rank root-ward chains are
    {e fast stretches}; the broadcast schedules pipeline packets along them
    collision-free while Decay-style randomized steps cross between
    stretches.

    {b Wave-safety repair.}  The collision-freeness property above (the one
    Lemma 2.5 actually establishes) leaves one corner open: a node [x] can
    acquire rank r purely from two rank-(r−1) children while also being
    adjacent to a stretch-{e interior} node u₂ whose parent has rank r; the
    fast transmissions of [x] and of u₂'s parent then share a slot and
    collide at u₂, breaking the pipelined wave.  We close the gap with a
    local repair: such a u₂ is flagged [head_override], making it the head
    of its own (shorter) stretch, served by slow transmissions.  This only
    shortens stretches; ranks and levels are untouched, and the number of
    stretches along a root path grows by the (empirically near-zero, see
    experiment E9) number of overrides.  DESIGN.md §4 records this
    deviation. *)

open Rn_graph

type t = private {
  graph : Graph.t;
  levels : int array;  (** [-1] = outside the forest *)
  parents : int array;  (** [-1] = root or outside *)
  ranks : int array;  (** [0] = outside; in-forest ranks are ≥ 1 *)
  head_override : bool array;  (** wave-safety repairs, see above *)
}

val make :
  graph:Graph.t ->
  levels:int array ->
  parents:int array ->
  ranks:int array ->
  ?head_override:bool array ->
  unit ->
  t
(** Bundle the parts; array lengths must equal [Graph.n graph]. *)

val in_forest : t -> int -> bool
val roots : t -> int array
val size : t -> int
(** Number of in-forest nodes. *)

val is_stretch_head : t -> int -> bool
(** True when the node starts a fast stretch: it is a root, its parent has
    a different rank, or it is wave-safety overridden. *)

val stretch_head_of : t -> int array
(** For each in-forest node, the head of its stretch ([-1] outside). *)

val stretch_members : t -> int -> int list
(** All nodes of the stretch headed at the given node (including the head);
    empty if the node is not a head. *)

val virtual_distances : t -> int array
(** Distances from the roots in the virtual graph G′ of §3.2.1: all edges
    of G (between in-forest nodes, both directions) plus a directed fast
    edge from every stretch head to every other node of its stretch.
    Lemma 3.4 bounds these by [2⌈log n⌉] (+ overrides). *)

(** {1 Validity checkers} *)

val collision_violations : t -> (int * int * int * int) list
(** Quadruples [(u1, v1, u2, v2)] violating collision-freeness (the
    property Lemma 2.5 proves w.h.p. for the distributed construction). *)

val wave_unsafe : t -> (int * int) list
(** Pairs [(u, x)] where [u] is a stretch-interior node and [x ≠ parent u]
    is a same-rank neighbor one level up — exactly the configurations whose
    fast transmissions would collide at [u].  Empty after
    {!repair_wave_safety}. *)

val validate : t -> (unit, string) result
(** Parents are graph neighbors one level up; roots sit at level 0; ranks
    are positive exactly on forest nodes; every non-root level is
    reachable; the inductive ranking rule (§2.1) holds at every node, with
    maximum rank at most [⌈log₂ n⌉]; no collision violations; no wave
    hazards. *)

(** {1 Centralized construction} *)

val assign_level_pair :
  graph:Graph.t ->
  reds:int array ->
  blues:int array ->
  blue_rank:(int -> int) ->
  parents:int array ->
  ranks:int array ->
  unit
(** Solve one Bipartite Assignment Problem (§2.2.2) sequentially: give every
    blue a red parent, rank adopting reds by the GST rule, keep the
    assignment collision-free.  Greedy: process blue ranks descending;
    repeatedly let one red — preferring parents of {e loner} blues, else a
    red with the most unassigned same-rank blue neighbors — adopt {e all}
    its unassigned blues of the current rank (plus any unassigned
    lower-rank blues, mirroring Stage III).  Writes [parents.(blue)] and
    [ranks.(red)] in place.  Used by {!build_centralized} and as the
    reference the distributed construction is tested against. *)

val build_centralized :
  graph:Graph.t -> ?levels:int array -> roots:int array -> unit -> t
(** Build a GST forest level by level from the deepest level upward, as in
    Gasieniec–Peleg–Xin [7] (known-topology setting, Theorem 1.2).
    [levels] defaults to the multi-source BFS layering from [roots];
    passing ring-relative levels builds a ring GST.  The result is
    wave-safety repaired and satisfies {!validate}. *)

val repair_wave_safety : t -> t
(** Flag every stretch-interior node with an ambiguous same-rank upstream
    as a stretch head (see module preamble). *)

val override_count : t -> int
