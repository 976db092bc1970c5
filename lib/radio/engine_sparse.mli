(** Event-driven sparse round path — the only engine that takes protocol
    fast paths.

    Same model, protocol interface, and observable behavior as
    {!Engine.run}, with three structural changes that make long,
    mostly-quiet schedules (the Theorem 1.1 pipeline) cheap:

    - {b Active-set decides.}  An optional [decide_active] lets the
      protocol enumerate the round's awake nodes; every other node
      implicitly [Sleep]s without a [decide] call, so schedules where
      only one layer or ring is awake — Decay waves, GST stretches —
      simulate a round in O(|active|) instead of O(n).

    - {b Frontier delivery.}  Listeners are round-stamped instead of
      stacked; only listeners inside a transmitter's neighborhood (the
      {e touched} set) receive a [deliver] call.  An untouched listener
      would have heard [Silence]; the engine relies on the {b silence
      no-op contract}: delivering [Silence] must not change protocol
      state.  Every protocol in this repository satisfies it (silence
      arms are [()] or absent).  A protocol that reacts to silence — e.g.
      counting quiet rounds inside [deliver] — must use {!Engine.run}, or
      move the reaction to [after_round].  Note: under
      [No_collision_detection] a collided listener hears [Silence] too;
      {e those} deliveries still happen (the node is touched), so the
      contract only concerns zero-transmitter silence.

    - {b Silent-round skip.}  An optional [next_busy_round] hint lets the
      protocol promise that no node transmits before a given round; the
      engine fast-forwards the stretch without calling [decide].  Each
      skipped round still checks [stop], increments [stats.rounds],
      records a zero metrics row, and fires [after_round] — the
      protocol-visible clock and the full metrics export are byte-identical
      to the dense engine executing those silent rounds.  Skipped rounds
      are credited to {!Engine.total_skipped_rounds}, not
      {!Engine.total_simulated_rounds}.

    Deliveries within a round arrive in a different order than
    {!Engine.run} (descending touch order vs descending decide order).
    Each listener still receives at most one reception per round, so
    protocols with per-node state — all of them here — observe identical
    behavior; the equivalence suite ([test/test_engine_sparse.ml]) pins
    outcome, stats, per-node receive logs and metrics exports to the
    full-scan reference.  There is no tracing hook: a trace must contain
    the elided [Silence] events, so tracing callers use {!Engine.run}. *)

val run :
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
(** [stats], [metrics], [after_round] and the {!Engine.inject_silence}
    probe are as at {!Engine.run}.

    [decide_active], when given, replaces the every-node decide scan: each
    round the engine hands it a reusable buffer of length [n]; the protocol
    writes the ids of the awake nodes into a prefix and returns the prefix
    length, and [decide] is then called on exactly those nodes (in buffer
    order) — every other node implicitly [Sleep]s that round.  The ids of a
    round must be distinct and in [\[0, n)] (distinctness is the protocol's
    obligation; a duplicated id would act twice).  A node left out must be
    one whose [decide] would have been a side-effect-free [Sleep], so that
    dropping the set (as {!Drive.run} does under [Dense] and [Sharded])
    changes nothing.

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

    @raise Invalid_argument if [next_busy_round] returns [r < round], or
    on a bad [decide_active] id/count. *)
