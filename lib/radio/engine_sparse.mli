(** The fast round path: one spray/deliver kernel, in the calling domain
    — the only engine that takes protocol fast paths.

    Same model, protocol interface, and observable behavior as
    {!Engine.run}.  Each round decides the awake nodes, then sprays each
    transmitter's packet into its neighbor list and delivers the listeners
    in descending decide order — {!Engine.run}'s order whenever the decide
    order is ascending (no active set, or an ascending one).  One
    saturating byte per node records not-listening / silent / one packet /
    collided, and every sprayed edge stamps the transmitter's id into a
    per-node slot: when the byte ends at one packet, the last stamp is the
    only one, and it names the packet.  Three structural changes make long,
    mostly-quiet schedules (the Theorem 1.1 pipeline) cheap:

    - {b Active-set decides.}  An optional [decide_active] lets the
      protocol enumerate the round's awake nodes; every other node
      implicitly [Sleep]s without a [decide] call, so schedules where only
      one layer or ring is awake — Decay waves, GST stretches — simulate a
      round in O(|active|) instead of O(n).  With
      [passive], a flagged node left out of the set is a {e passive
      listener}: it gets no [decide] call, and the engine wakes it as a
      listener only in rounds where a neighbour transmits.

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

    - {b Empty awake sets.}  A round whose [decide_active] writes no id
      calls no [decide] and owes no spray or deliver.  It still checks
      [stop], increments [stats.rounds], records a zero metrics row, and
      fires [after_round] — the protocol-visible clock and the full
      metrics export are byte-identical to the dense engine executing
      that silent round.  Such rounds are credited to
      {!Engine.total_skipped_rounds}, not {!Engine.total_simulated_rounds}.

    - {b One workspace per domain.}  The monomorphic scratch — the
      reception bytes, the last-sprayer slots, the active-set buffer and
      the transmitter/listener stacks, each with room for at least [n]
      nodes — is cached in a one-slot per-domain store and reused by the
      next run, so a run's set-up costs the nodes it touches, not [n].
      The packets live apart, in a per-run array indexed by transmitter
      position, because their type is the protocol's.

    [stop] and [after_round] run between rounds.

    The workspace contract:
    - a run that completes or runs out of budget undoes its last round's
      marks (every reception byte back to 255) and returns the workspace
      to the slot, where the next run in the domain takes it if it is
      long enough, and replaces it otherwise;
    - a run that raises, whether from a callback or from a contract
      check, never returns its workspace: the slot stays empty and the
      next run builds fresh arrays;
    - a run nested in a callback of another (an [after_round] that
      drives a run of its own) finds the slot empty, since the outer run
      holds the workspace, and builds its own;
    - the workspace holds ints and bytes only, so no packet outlives the
      run that sent it.

    A transmitter's reception byte is the reserved value 254 for its
    round: the spray leaves it unchanged, as it does a deaf 255, so
    whether a node transmits is one byte test.

    The equivalence suite ([test/test_engine_sparse.ml]) pins outcome,
    stats, per-node receive logs, metrics exports and the deliver sequence
    to the full-scan reference.  There is no tracing hook: a trace must
    contain the elided [Silence] events, so tracing callers use
    {!Engine.run}. *)

val run :
  ?stats:Engine.stats ->
  ?metrics:Rn_obs.Metrics.t ->
  ?after_round:(round:int -> unit) ->
  ?decide_active:(round:int -> int array -> int) ->
  ?passive:bool array ->
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
    round the engine hands it a reusable buffer of length at least [n]
    (the domain's workspace may be longer); the protocol
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
    [Layering.decay_bfs] relay, DESIGN.md §12), so that dropping the set (as {!Drive.run} does under [Dense]) changes no protocol state.  The second case has a cost:
    the left-out listeners' deliveries and collisions are missing from
    [stats] and [metrics], which then differ from the [Dense] scan's, so
    a driver that forwards [?stats]/[?metrics] must use only the first.

    [passive], when given (it needs [decide_active]), flags the nodes
    [v] with [passive.(v)] as passive listeners.  A passive node left out
    of the round's active set listens without a [decide] call: after the
    decides, every passive neighbour of a transmitter that did not itself
    listen or transmit is woken as a listener, and gets the [deliver],
    [stats] and [metrics] row entries a [Listen] decide would have given
    it.  A passive node with no transmitting neighbour would have heard
    only the elided [Silence], so the tallies equal the full scan's.  The
    contract:
    - a passive node's [decide] must be a side-effect-free [Listen] in
      every round it is left out;
    - a passive node inside the active set must not return [Sleep] (it
      would be woken after all);
    - flags may change in [deliver] or [after_round] and are read in the
      next round's decides;
    - woken listeners are delivered before the decided ones, in a
      different order from the full scan's, so only a protocol whose
      [deliver] writes only its own node's state (R12) may pass it.
    {!Drive.run} drops [passive] under [Dense], where the passive node's
    decide returns its [Listen].

    [validate] (default [false]) additionally enforces the distinctness
    half of that contract, raising [Invalid_argument] naming the offending
    id and round, and rejects a passive node in the active set that
    returns [Sleep].  The scan costs one array read/write per active id and
    one length-[n] allocation per run, so it is reserved for tests; the
    in-range check is always on.

    A callback's exception propagates at once.

    @raise Invalid_argument if [passive] is given without [decide_active]
    or is shorter than the node count, or on a bad [decide_active]
    id/count. *)
