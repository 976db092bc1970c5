(** The one engine entry point: every pipeline in [lib/core] runs its
    rounds through {!run}, and {!with_engine} is the one place a mode is
    chosen.  It lives above the two engines because {!Engine} cannot call
    {!Engine_sparse} without a dependency cycle.

    Routing rule — each engine has one role, and only [Sparse] consumes the
    protocol fast paths (every other hook reaches every engine unchanged):

    {v
    mode        decide_active  passive  engine
    Dense       ignored        ignored  Engine.run (full-scan oracle)
    Sparse      used           used     Engine_sparse.run
    v}

    [Dense] is the reference the fast paths are checked against.  A node
    outside the active set must [Sleep] without side effects, or [Listen]
    without side effects to a [deliver] that is a no-op for every
    reception possible that round (or affect only state nothing reads
    again, {!Engine_sparse.run}), hence dropping the set never changes a
    protocol result; a round whose set is empty is fast-forwarded.  The
    [Listen] case leaves those listeners' deliveries and collisions out
    of [stats]/[metrics], so a caller that forwards either must not use
    it ({!Engine_sparse.run}).  A [passive] node left out of the set
    must [Listen] without side effects; the engine then wakes it when a
    neighbour transmits, so the tallies stay the full scan's.  Tracing
    ([on_round]) is not routed: it exists only on {!Engine.run}, which
    tracing callers invoke directly.  The transmit-buffer check
    ([?validate]) is not routed either: it exists only on
    {!Engine_sparse.run}. *)

val with_engine : Engine.mode -> (unit -> 'a) -> 'a
(** [with_engine mode f] runs [f ()] with every {!run} inside it routed by
    [mode], then restores the previous mode, also when [f] raises.  The
    setting is process-wide (default [Sparse]), so a {!Runner.map}
    started inside [f] runs every lane in [mode].  A test and bench input
    probe, like {!Engine.inject_silence}: both modes return the same
    results, and [rbcast] never sets it. *)

val run :
  ?stats:Engine.stats ->
  ?metrics:Rn_obs.Metrics.t ->
  ?after_round:(round:int -> unit) ->
  ?decide_active:(round:int -> int array -> int) ->
  ?passive:bool array ->
  graph:Rn_graph.Graph.t ->
  detection:Engine.detection ->
  protocol:'msg Engine.protocol ->
  stop:(round:int -> bool) ->
  max_rounds:int ->
  unit ->
  Engine.outcome
(** Runs on the mode set by {!with_engine} (read once per run) by the
    rule above; every other argument is as documented at {!Engine.run}
    and {!Engine_sparse.run}. *)

val static_active :
  n:int -> int array list -> (round:int -> int array -> int) option
(** [static_active ~n groups] is the [decide_active] of an awake set that
    never changes: the distinct ids in [groups], ascending (the full
    scan's call order).  [None] when they cover all [n] nodes — such a set
    saves nothing over the scan.  Built by sorting the listed ids, so it
    costs O(k log k) for [k] of them and nothing per node of the graph.
    @raise Invalid_argument if an id is outside [\[0, n)]. *)
