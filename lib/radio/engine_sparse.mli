(** The fast round path: one spray/deliver kernel, on one lane or on
    [domains] parallel lanes — the only engine that takes protocol fast
    paths.

    Same model, protocol interface, and observable behavior as
    {!Engine.run}.  Each round has two phases: every lane decides its own
    node range (a contiguous shard, balanced by CSR edge count), then
    sprays each transmitter's packet into the part of its neighbor list
    that the lane owns — one saturating byte per node records
    not-listening / silent / one packet / collided — and delivers its
    listeners in descending decide order.  On one lane that is
    {!Engine.run}'s order whenever the decide order is ascending (no
    active set, or an ascending one).  Three structural changes make long,
    mostly-quiet schedules (the Theorem 1.1 pipeline) cheap:

    - {b Active-set decides} (one lane only).  An optional
      [decide_active] lets the protocol enumerate the round's awake nodes;
      every other node implicitly [Sleep]s without a [decide] call, so
      schedules where only one layer or ring is awake — Decay waves, GST
      stretches — simulate a round in O(|active|) instead of O(n).

    - {b Silence elision.}  A listener with no transmitting neighbour
      receives no [deliver] call.  It would have heard [Silence]; the
      engine relies on the {b silence no-op contract} (R11 silence purity,
      DESIGN.md §13): delivering [Silence] must not change protocol state.
      Every registered protocol satisfies it.  A protocol that reacts to
      silence — e.g. counting quiet rounds inside [deliver] — must use
      {!Engine.run}, or move the reaction to [after_round].  Under
      [No_collision_detection] a collided listener hears [Silence] too;
      {e those} deliveries still happen, so the contract only concerns
      zero-transmitter silence.

    - {b Silent-round skip.}  An optional [next_busy_round] hint lets the
      protocol promise that no node transmits before a given round; the
      engine fast-forwards the stretch without calling [decide].  Each
      skipped round still checks [stop], increments [stats.rounds],
      records a zero metrics row, and fires [after_round] — the
      protocol-visible clock and the full metrics export are byte-identical
      to the dense engine executing those silent rounds.  Skipped rounds
      are credited to {!Engine.total_skipped_rounds}, not
      {!Engine.total_simulated_rounds}.

    {b Lanes.}  With [domains > 1] the lanes run on borrowed
    {!Runner.Pool} workers separated by a barrier; no lane writes another
    lane's state, so a round needs no atomics.  For protocols whose
    [decide]/[deliver] touch only per-node state, the outcome, stats,
    per-node deliveries, metrics and every [after_round] observation are
    byte-identical for every [domains] value, and the schedule depends only
    on [domains] — a busy pool runs the lanes on fewer domains (possibly
    just the caller's) with unchanged results.  Callbacks that share
    mutable state {e across} nodes would race; cross-node aggregates must be
    [Atomic.t] (see [Decay]'s missing-count).  [stop], [next_busy_round]
    and [after_round] always run in the calling domain, between rounds.

    The equivalence suites ([test/test_engine_sparse.ml],
    [test/test_engine_sharded.ml]) pin outcome, stats, per-node receive
    logs, metrics exports and the one-lane deliver sequence to the
    full-scan reference.  There is no tracing hook: a trace must contain
    the elided [Silence] events, so tracing callers use {!Engine.run}. *)

val run :
  ?stats:Engine.stats ->
  ?metrics:Rn_obs.Metrics.t ->
  ?after_round:(round:int -> unit) ->
  ?decide_active:(round:int -> int array -> int) ->
  ?next_busy_round:(round:int -> int) ->
  ?validate:bool ->
  ?domains:int ->
  graph:Rn_graph.Graph.t ->
  detection:Engine.detection ->
  protocol:'msg Engine.protocol ->
  stop:(round:int -> bool) ->
  max_rounds:int ->
  unit ->
  Engine.outcome
(** [stats], [metrics], [after_round] and the {!Engine.inject_silence}
    probe are as at {!Engine.run}; [metrics] and [stats] are fed from the
    shard-order sums of the lanes' counters.

    [decide_active], when given, replaces the every-node decide scan: each
    round the engine hands it a reusable buffer of length [n]; the protocol
    writes the ids of the awake nodes into a prefix and returns the prefix
    length, and [decide] is then called on exactly those nodes (in buffer
    order) — every other node implicitly [Sleep]s that round.  The ids of a
    round must be distinct and in [\[0, n)] (distinctness is the protocol's
    obligation; a duplicated id would act twice).  A node left out must be
    one whose [decide] would have been either
    - a side-effect-free [Sleep], or
    - a side-effect-free [Listen] whose [deliver] is a no-op for every
      reception possible that round,
    or one whose only effect would be on state nothing reads again and
    whose transmission no [deliver] would act on (a retired
    [Layering.decay_bfs] relay, DESIGN.md §12), so that dropping the set (as {!Drive.run} does under [Dense] and
    [Sharded]) changes no protocol state.  The second case has a cost:
    the left-out listeners' deliveries and collisions are missing from
    [stats] and [metrics], which then differ from the [Dense] scan's, so
    a driver that forwards [?stats]/[?metrics] must use only the first.

    [validate] (default [false]) additionally enforces the distinctness
    half of that contract, raising [Invalid_argument] naming the offending
    id and round.  The scan costs one array read/write per active id and
    one length-[n] allocation per run, so it is reserved for tests; the
    in-range check is always on.

    [next_busy_round ~round] returns the earliest round [>= round] in
    which some node {e may} transmit; every round strictly before it is
    fast-forwarded.  Returning [round] means "cannot promise silence now"
    and costs nothing.  The hint is re-queried every round (protocol state
    may change in [after_round]), so implementations should be O(1) —
    precompute residue tables rather than scanning.  The hint must be
    {e sound}: claiming silence for a round in which a node would have
    transmitted silently changes the simulation (the engine cannot detect
    a lie it was told precisely to avoid checking; see DESIGN.md §12 for
    the contract).  A hint that goes backwards ([r < round]) raises.
    Protocols whose transmissions are randomized every round (Decay,
    jammers) must not offer a hint — wrappers disable it when fault
    injection is active.

    [domains] (default [1]) is the lane count.  [domains = 1] runs inline
    in the calling domain (no pool, no barriers); [domains] exceeding the
    node count leaves the extra lanes empty, which is legal.  A callback's
    exception propagates at once on one lane; on [d > 1] lanes it
    resurfaces in the caller after the round's lanes finish, the
    lowest-numbered lane's first.

    @raise Invalid_argument if [domains < 1], if [decide_active] is given
    with [domains > 1], if [next_busy_round] returns [r < round], or on a
    bad [decide_active] id/count. *)
