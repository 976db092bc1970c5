(** The distributed Bipartite Assignment algorithm (§2.2.3).

    One instance solves the assignment problem between a {e red} level
    [l−1] and a {e blue} level [l] of the BFS layering: every blue obtains
    a red parent, adopting reds obtain GST ranks, and the assignment is
    collision-free w.h.p. (Lemma 2.5).  Ranks are processed from
    [⌈log n⌉] down to 1; each rank runs epochs of

    - Stage I — loner detection: one all-active-reds beacon round (a blue
      that receives cleanly has exactly one active red neighbor), then a
      Decay stage in which loners inform their reds;
    - Stage II — three recruiting parts: loner-parents (permanent),
      {e brisk} reds (coin = heads), {e lazy} reds (coin = tails); a blue
      recruited by a many-recruit red is permanently assigned, a single
      recruit is temporary and is released at the epoch end;
    - Stage III — freshly marked reds are ranked ([i] for one rank-[i]
      child, [i+1] for several) and announce [(id, rank)] through Decay so
      unassigned blues of lower ranks can permanently attach to them.

    Reds marked with zero recruits leave the current rank phase unranked
    and become eligible again at lower ranks (see the wave-safety
    discussion in {!Gst}); a red that never adopts ends as a leaf.

    Like {!Recruiting}, the instance is an embeddable state machine driven
    by a scheduler, so the pipelined construction (§2.2.4) can interleave
    many instances.  The [ready] callback gates each rank phase on its
    pipeline dependency (rank [i] here needs rank [i−1] finished one level
    deeper); the sequential construction passes [fun ~rank:_ -> true]. *)

open Rn_util
open Rn_radio

type t

val create :
  rng:Rng.t ->
  params:Params.t ->
  scale_n:int ->
  graph:Rn_graph.Graph.t ->
  reds:int array ->
  blues:int array ->
  pos:int array ->
  parents:int array ->
  ranks:int array ->
  parent_rank:int array ->
  ready:(rank:int -> bool) ->
  unit ->
  t
(** [parents], [ranks] and [parent_rank] are shared result arrays indexed
    by node id, written in place ([-1] / [0] / [-1] when unknown): the
    orchestrator passes the same arrays to every level's instance so that
    blue ranks are visible to the pair below as soon as they are final.

    [pos] maps a node id to its index in [reds] (for a red) or in
    [blues] (for a blue); its other entries may hold anything.  [reds]
    and [blues] must be disjoint.  A layering's level-index map serves
    every level pair at once, so an instance allocates O(|reds| + |blues|)
    words of its own, whatever [n] is.  Each member's coin stream is
    split off [rng] in [reds] order, then [blues] order. *)

(** {1 Scheduler interface} *)

val decide : t -> node:int -> Cmsg.t Engine.action
val deliver : t -> node:int -> Cmsg.t Engine.reception -> unit
val advance : t -> unit
val finished : t -> bool

val current_rank : t -> int
(** Rank phase currently being processed (0 once finished). *)

val waiting : t -> bool
(** True while the instance idles on its [ready] dependency. *)

val awake : t -> int array -> int -> int
(** [awake t buf k] writes the current round's actors into [buf] from
    position [k] and returns the new fill, reds before blues, each in its
    {!create} order.  In a recruiting part these are
    {!Recruiting.awake}'s; in every other stage, exactly the members whose
    {!decide} is not [Sleep]; nobody while [Waiting] or finished.  A node
    left out gets a side-effect-free [Sleep] from {!decide}, or (in a
    recruiting part) a side-effect-free [Listen] whose {!deliver} is a
    no-op for every reception possible that round — see
    {!Recruiting.awake} for what that costs a driver.  Allocates
    nothing. *)

(** {1 Instrumentation} *)

val class_fixups : t -> int
(** Number of recruit-class inconsistencies that had to be oracle-repaired
    after a recruiting part exhausted its budget (expected 0). *)

val fallback_reactivations : t -> int
(** Number of times a stranded blue forced re-identification of active
    reds (expected 0; counts robustness-fallback activations). *)

(** {1 Standalone run (tests, experiment E4)} *)

type outcome = {
  rounds : int;
  parents : int array;
  ranks : int array;
  parent_rank : int array;
  epoch_history : (int * int) list;
}

val run_standalone :
  rng:Rng.t ->
  params:Params.t ->
  graph:Rn_graph.Graph.t ->
  reds:int array ->
  blues:int array ->
  blue_ranks:int array ->
  unit ->
  outcome
(** Solve a single level pair on [graph] where [blue_ranks] gives each
    blue's (already final) rank; node ids index [blue_ranks] directly.
    Runs without collision detection; the per-epoch survivor counts
    (Lemma 2.4's shrinkage unit) are in [epoch_history]. *)
