(** The Recruiting protocol (§2.2.1, Lemma 2.3).

    On a bipartite graph between {e red} and {e blue} nodes, recruiting
    assigns to (w.h.p.) every blue node an adjacent red parent in
    Θ(log³ n) rounds, such that

    - (a) every blue with at least one participating red neighbor is
      recruited,
    - (b) every red knows whether it recruited zero, one, or ≥ 2 blues,
    - (c) every recruited blue knows whether its parent recruited one or
      ≥ 2 blues (the blue derives its parent's rank from this, footnote 3).

    Each recruiting iteration has [2 + ⌈log n⌉] rounds: reds announce their
    id with a probability that halves every [⌈log n⌉] iterations (exponent
    [Decay.exponent ~ladder:⌈log n⌉ (j / ⌈log n⌉)] in iteration [j]); blues
    that heard a red cleanly echo a claim through one Decay phase, whose
    [⌈log n⌉] claim slots are numbered 1 … [⌈log n⌉] and a claim in slot [i]
    is sent with probability [2^{-i}] (a claim's exponent is its slot
    index); reds then repeat their announce-round coin with a verdict —
    [Confirm] for exactly one claim, [Sigma] for ≥ 2 (all clean round-1
    receivers of a [Sigma] red are recruited).

    {b Class-consistency echoes} (implementation note): the paper's verdict
    rule alone lets a red's recruit class silently upgrade from one to many
    in a later iteration, leaving its first child with a stale class.  Our
    reds therefore re-announce their standing verdict ([Confirm] of the
    single child, or [Sigma]) in every confirm round they transmit in, so
    children converge to the true class w.h.p. within the iteration budget;
    the run is not considered complete until classes agree.  This repairs
    property (c) without changing the round structure.

    The module is an embeddable state machine: an enclosing protocol (the
    bipartite assignment of §2.2.3) grants it rounds by calling [decide] /
    [deliver] / [advance]; {!run_standalone} wraps it in an engine run for
    direct use and tests. *)

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
  unit ->
  t
(** [scale_n] sets the [log n] in every schedule length (the network size,
    which in the paper all nodes know up to a polynomial).  [graph] is used
    only by the oracle stage exit ({!Params.stage_over}'s goal: deciding
    which blues are coverable); node behaviour is purely local. *)

(** {1 Scheduler interface} *)

val decide : t -> node:int -> Cmsg.t Engine.action
(** Action for one of the protocol's nodes in the current granted round;
    [Sleep], with no side effect, for a node not in [reds ∪ blues]. *)

val deliver : t -> node:int -> Cmsg.t Engine.reception -> unit

val advance : t -> unit
(** Advance the internal round counter; call exactly once per granted
    round, after all deliveries. *)

val finished : t -> bool
(** True once {!Params.stage_over} ends the stage: the iteration budget is
    exhausted or, under oracle exits, an iteration boundary finds every
    coverable blue recruited with consistent classes. *)

val awake : t -> int array -> int -> int
(** [awake t buf k] writes the current round's {e actors} into [buf]
    from position [k] and returns the new fill: the nodes that may
    transmit this round or act on what they hear, reds before blues, each
    in its {!create} order.  An announce round wakes every member; a claim
    round the reds that announced and the blues that may claim; a verdict
    round the reds that announced and the blues that heard a red or have
    a parent; a slot in which nobody would transmit wakes nobody, as does
    a finished instance.

    Every node left out gets from {!decide} either a side-effect-free
    [Sleep] (non-members) or a side-effect-free [Listen] whose {!deliver}
    is a no-op for every reception possible in that round, so an
    enclosing driver may pass these ids as its [decide_active] set as
    long as it forwards no [?stats]/[?metrics]: the skipped listeners'
    deliveries and collisions would be missing from the engine's tallies.
    Requires [reds] and [blues] to be duplicate-free and disjoint.  The
    claim and verdict sets are computed once per slot in {!advance}, so a
    call allocates nothing. *)

(** {1 Results} *)

type red_class = Zero | One of int | Many
(** What a red recruited: nothing, exactly the given blue, or ≥ 2 blues. *)

val parent_of : t -> int -> int option
(** Recruited parent of a blue, if any. *)

val red_class : t -> int -> red_class

val blue_sees_many : t -> int -> bool option
(** Property (c): the recruited blue's belief about its parent's class
    ([Some true] = many, [Some false] = only child); [None] if not
    recruited. *)

(** {1 Standalone run} *)

type outcome = {
  recruited : (int * int) list;  (** (blue, red) pairs *)
  rounds : int;
  all_covered : bool;  (** every blue with a red neighbor was recruited *)
  classes_consistent : bool;  (** beliefs of blues match red classes *)
}

val run_standalone :
  rng:Rng.t ->
  params:Params.t ->
  graph:Rn_graph.Graph.t ->
  reds:int array ->
  blues:int array ->
  unit ->
  outcome
(** Run recruiting alone on [graph] (e.g. a random bipartite graph) until
    [finished], without collision detection; used by experiment E3 and the
    test-suite. *)
