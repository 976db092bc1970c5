(** Deterministic sharded (multi-domain) round engine.

    [run ~domains] simulates the same synchronous round structure as
    {!Engine.run} — a full scan: every node decides every round — but
    cuts the node range into [domains] contiguous shards (balanced by CSR
    edge count, cut points from {!Rn_graph.Graph.shard_cuts}) and runs
    each round's two phases on a pool of worker domains separated by a
    barrier:

    + {e decide} — each lane scans its own node range and records actions
      lane-locally (re-Sleeping its previous round's transmit marks
      first);
    + {e spray + deliver} — owner-filtered push: each lane walks every
      transmitter stack but binary-searches the sorted CSR neighbor slice
      for its own [lo, hi) node range and sprays only that sub-slice,
      accumulating receptions in a saturating per-node byte
      (not-listening / silent / one packet / collided) — so the work
      scales with the transmitter set exactly as in the serial engine,
      every edge is visited by one lane, and all writes are owner-local.
      No lane ever writes another lane's state, so the round needs zero
      atomics; listeners are then delivered in the serial engine's
      descending order within the shard.

    {b Determinism contract.}  For any protocol whose [decide]/[deliver]
    callbacks touch only per-node state — every protocol in this tree —
    the outcome, stats, per-node deliveries, metrics and each
    [after_round] observation are byte-identical to {!Engine.run}, for
    every [domains] value (enforced by the QCheck equivalence suite in
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

    [stop] and [after_round] always run in the calling domain, between
    rounds, exactly as under the serial engine.  There is no tracing hook
    and no protocol fast path: tracing callers use {!Engine.run}, and
    {!Drive.run} drops [decide_active] and [next_busy_round] for this
    engine. *)

val run :
  ?stats:Engine.stats ->
  ?metrics:Rn_obs.Metrics.t ->
  ?after_round:(round:int -> unit) ->
  domains:int ->
  graph:Rn_graph.Graph.t ->
  detection:Engine.detection ->
  protocol:'msg Engine.protocol ->
  stop:(round:int -> bool) ->
  max_rounds:int ->
  unit ->
  Engine.outcome
(** [stats], [after_round] and the {!Engine.inject_silence} probe are as
    at {!Engine.run}; [domains ≥ 1] is the shard count.
    [metrics] follows the determinism contract: the coordinator records
    each round from the shard-order sums of the owner-local lane counters
    at the post-barrier merge, so the registry (and any export of it) is
    byte-identical to a serial run with the same registry configuration.
    [domains = 1] runs the sharded schedule inline in the calling domain
    (no pool, no barriers).  [domains] exceeding the node count leaves the
    extra shards empty, which is legal.
    @raise Invalid_argument if [domains < 1]. *)
