(** Distributed BFS layerings.

    Two ways for every node to learn its BFS level (distance to the
    source(s)):

    - {!decay_bfs} (§2.2.2, no collision detection): [D] epochs of
      [Θ(log n)] Decay phases; the epoch in which a node first receives a
      probe is its level.  [O(D log² n)] rounds.
    - {!collision_wave} (§2.3, requires collision detection): the sources
      beep in round 0 and every node beeps once, in the round after it
      first hears {e anything} — a message or the collision symbol ⊤.
      The wavefront advances one hop per round, so the layering takes
      exactly [D] rounds.  This [Θ(log² n)]-factor gap is what makes the
      collision-detection model faster here.

    Both wake only their front on the default engine, so a round costs
    the front's size, not [n]: the collision wave the nodes that beep and
    their unlabeled neighbours, Decay-BFS the relays and the unlabeled
    nodes next to a labeled one.  A Decay-BFS relay retires once it has
    no unlabeled neighbour (its probes could only reach labeled nodes);
    the levels and rounds are those of every labeled node relaying to
    the end.  Repeated ids in [sources] count once. *)

open Rn_util
open Rn_radio

type result = {
  levels : int array;  (** [-1] if the node was never reached *)
  rounds : int;
}

val decay_bfs :
  ?params:Params.t ->
  ?max_rounds:int ->
  ?engine:Engine.mode ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  sources:int array ->
  unit ->
  result

val collision_wave :
  ?max_rounds:int ->
  graph:Rn_graph.Graph.t ->
  sources:int array ->
  unit ->
  result
(** Deterministic; needs no randomness.  Runs under
    [Collision_detection]. *)

(** {1 Wave fronts}

    The awake set of a collision-detection wave that advances one hop per
    round, for drivers that run such a wave inside a longer schedule
    ({!Diameter_estimate}). *)

type wave

val wave :
  graph:Rn_graph.Graph.t -> levels:int array -> sources:int array -> wave
(** [wave ~graph ~levels ~sources] sets [levels.(s) <- 0] for each
    distinct source still at [-1] and returns the front of round 0: the
    sources and their unlabeled neighbours.  The wave's protocol must give
    level [r + 1] to exactly the unlabeled nodes that hear a level-[r]
    node's round-[r] beep, as under collision detection. *)

val wave_labeled : wave -> int
(** The nodes labeled before the current round. *)

val wave_awake : wave -> int array -> int
(** [wave_awake w buf] writes the current round's front and its
    unlabeled neighbours into [buf] and returns their count: a
    [decide_active] body. *)

val wave_advance : wave -> unit
(** Moves to the next round's front; call it from [after_round]. *)
