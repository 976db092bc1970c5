(** Deterministic sharded (multi-domain) round engine.

    [run ~domains] simulates the same synchronous round structure as
    {!Engine.run}, but cuts the node range into [domains] contiguous
    shards (balanced by CSR edge count, cut points from
    {!Rn_graph.Graph.shard_cuts}) and runs each round's phases on a pool
    of worker domains separated by barriers:

    + {e decide} — each lane scans its own node range (or its contiguous
      slice of the active buffer) and records actions lane-locally;
    + {e spray + deliver} — in full-scan mode, owner-filtered push: each
      lane walks every transmitter stack but binary-searches the sorted
      CSR neighbor slice for its own [lo, hi) node range and sprays only
      that sub-slice, accumulating receptions in a saturating per-node
      byte (not-listening / silent / one packet / collided) — so the work
      scales with the transmitter set exactly as in the serial engine,
      every edge is visited by one lane, and all writes are owner-local.  In active-set mode, pull:
      each lane scans the in-edges (the CSC view — for an undirected
      graph, the CSR arrays themselves) of its own listeners, whose count
      the protocol already pruned.  Either way no lane ever writes another
      lane's state, so the round needs zero atomics; listeners are then
      delivered in the serial engine's descending order within the shard;
    + {e reset} — transmit marks are re-Slept by the lane that wrote them
      (folded into the next decide in full-scan mode).

    {b Determinism contract.}  For any protocol whose [decide]/[deliver]
    callbacks touch only per-node state — every protocol in this tree —
    the outcome, stats, trace events, and each [on_round]/[after_round]
    observation are byte-identical to {!Engine.run}, for every [domains]
    value (enforced by the QCheck equivalence suite in
    [test/test_engine_sharded.ml]).  The schedule depends only on the
    shard count: when the worker pool is busy (e.g. a sharded run inside a
    {!Runner.map} trial), lanes simply execute on fewer domains — possibly
    just the caller's — with unchanged results.

    Protocols whose callbacks share mutable state {e across} nodes (a
    common accumulator, a shared RNG drawn per-call) are outside the
    contract: their callbacks would race.  Per-node RNG streams
    ({!Rn_util.Rng.split_n}) and per-node arrays are safe; cross-node
    aggregates must be [Atomic.t] (see [Decay]'s missing-count) and their
    update order is unspecified within a round.

    [stop], [decide_active], [on_round], and [after_round] always run in
    the calling domain, between rounds, exactly as under the serial
    engine. *)

val run :
  ?stats:Engine.stats ->
  ?metrics:Rn_obs.Metrics.t ->
  ?on_round:(round:int -> 'msg Engine.trace_event list -> unit) ->
  ?after_round:(round:int -> unit) ->
  ?decide_active:(round:int -> int array -> int) ->
  ?validate:bool ->
  domains:int ->
  graph:Rn_graph.Graph.t ->
  detection:Engine.detection ->
  protocol:'msg Engine.protocol ->
  stop:(round:int -> bool) ->
  max_rounds:int ->
  unit ->
  Engine.outcome
(** Same surface as {!Engine.run} ([validate] and the
    {!Engine.inject_silence} probe included) plus [domains ≥ 1], the
    shard count.
    [metrics] follows the determinism contract: the coordinator records
    each round from the shard-order sums of the owner-local lane counters
    at the post-barrier merge, so the registry (and any export of it) is
    byte-identical to a serial run with the same registry configuration.
    [domains = 1] runs the sharded schedule inline in the calling domain
    (no pool, no barriers).  [domains] exceeding the node count leaves the
    extra shards empty, which is legal.
    @raise Invalid_argument if [domains < 1], or on a bad
    [decide_active] id/count (as {!Engine.run}; note the sharded engine
    validates the whole prefix before any [decide] call of the round). *)
