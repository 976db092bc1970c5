(** The one engine entry point: every pipeline in [lib/core] runs its
    rounds through {!run}.  It lives above the two engines because
    {!Engine} cannot call {!Engine_sparse} without a dependency cycle.

    Routing rule — each engine has one role, and only [Sparse] consumes the
    protocol fast paths (every other hook reaches every engine unchanged):

    {v
    mode        decide_active  next_busy_round  validate  engine
    Dense       ignored        ignored          ignored   Engine.run (full-scan oracle)
    Sparse      used           used             used      Engine_sparse.run ~domains:1
    Sharded d   ignored        ignored          ignored   Engine_sparse.run ~domains:d
    v}

    [Dense] is the reference the fast paths are checked against, and
    [Sharded] runs the fast kernel of [Sparse] on [d] lanes.  A node
    outside the active set must [Sleep] without side effects, or [Listen]
    without side effects to a [deliver] that is a no-op for every
    reception possible that round (or affect only state nothing reads
    again, {!Engine_sparse.run}), and a skipped round must be silent,
    hence dropping either never changes a protocol result.  The
    [Listen] case leaves those listeners' deliveries and collisions out
    of [stats]/[metrics], so a caller that forwards either must not use
    it ({!Engine_sparse.run}).  Tracing
    ([on_round]) is not routed: it exists only on {!Engine.run}, which
    tracing callers invoke directly. *)

val run :
  ?engine:Engine.mode ->
  ?stats:Engine.stats ->
  ?metrics:Rn_obs.Metrics.t ->
  ?after_round:(round:int -> unit) ->
  ?decide_active:(round:int -> int array -> int) ->
  ?next_busy_round:(round:int -> int) ->
  ?validate:bool ->
  graph:Rn_graph.Graph.t ->
  detection:Engine.detection ->
  protocol:'msg Engine.protocol ->
  stop:(round:int -> bool) ->
  max_rounds:int ->
  unit ->
  Engine.outcome
(** Runs on [engine] (default [Sparse]) by the rule above; every other
    argument is as documented at {!Engine.run} and {!Engine_sparse.run}. *)

val serial : Engine.mode -> Engine.mode
(** Maps [Sharded _] to [Sparse], for drivers whose callbacks write across
    nodes (the Recruiting subroutine, DESIGN.md §13). *)

val static_active :
  n:int -> int array list -> (round:int -> int array -> int) option
(** [static_active ~n groups] is the [decide_active] of an awake set that
    never changes: the distinct ids in [groups], ascending (the full
    scan's call order).  [None] when they cover all [n] nodes — such a set
    saves nothing over the scan. *)
