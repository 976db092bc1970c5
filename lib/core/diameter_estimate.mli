(** Distributed 2-approximation of the diameter (footnote 2, via the beep
    waves of [10]).

    The paper assumes nodes know [D] up to a constant factor and notes the
    assumption is removable in [O(D)] rounds with collision detection.
    This module implements that tool with a doubling protocol; each guess
    [T] costs [2T + 2] rounds:

    + {e forward wave}, rounds [0..T-1] of the guess: the source beeps in
      round 0; a node that first hears {e anything} (message or ⊤) in
      round [r] learns level [r + 1] and beeps once in round [r + 1] —
      a single-shot collision wave covering all levels [≤ T];
    + {e coverage probe}, round [T]: every still-unreached node beeps;
      reached nodes listen, so exactly the nodes on the boundary of the
      covered region hear that the guess was too small;
    + {e aligned echo}, rounds [T+1 .. 2T+1]: a reached node at level [l]
      beeps in the slot [2T + 1 - l] if the probe told it the wave was
      unfinished or if it heard an echo beep in the previous slot.  Each
      level owns one slot, deeper levels first, so the OR of all "too
      small" bits flows to the source in exactly [T + 1] rounds (collisions
      only reinforce the bit — this is what collision detection buys).

    The source doubles [T] until no echo arrives; then
    [ecc(source) ≤ T < 2·ecc(source)] (unless the true eccentricity was
    hit exactly, in which case [T] may equal it), and [ecc ≤ D ≤ 2·ecc]
    gives the 2-approximation of [D].  Total cost [O(D)] rounds. *)


type result = {
  estimate : int;  (** the final guess [T]: [ecc ≤ T ≤ 2·ecc] *)
  eccentricity : int;  (** true eccentricity, for reference *)
  rounds : int;  (** total rounds over all guesses *)
  levels : int array;  (** BFS levels learned as a side effect *)
}

val run : graph:Rn_graph.Graph.t -> source:int -> unit -> result
(** Requires a connected graph and collision detection.  On a connected
    graph the doubling always stops, at the first guess [T ≥ ecc].
    @raise Invalid_argument on an empty graph, or on a disconnected one
    (from the reference {!Rn_graph.Bfs.eccentricity}, before any guess
    runs). *)
