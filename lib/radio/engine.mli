(** Synchronous radio-network round engine.

    Implements the model of §1.1 of the paper exactly:

    - time advances in synchronous rounds [0, 1, 2, …];
    - in each round every node either transmits one packet or listens
      (half-duplex: a transmitter receives nothing that round);
    - a listener receives a packet iff {e exactly one} of its neighbors
      transmits;
    - if two or more neighbors transmit, a listener observes [Collision]
      (the special symbol ⊤) when collision detection is available, and
      observes [Silence] — indistinguishable from nobody transmitting —
      when it is not.

    Protocols are given as two callbacks closing over their own per-node
    state; the engine owns nothing but the schedule.  Packet contents are a
    type parameter: the model's only constraint is that a packet carries
    [B = Ω(log n)] bits, i.e. O(1) node ids — each protocol's message type
    documents what its packets carry. *)

type detection =
  | Collision_detection  (** listeners can distinguish ⊤ from silence *)
  | No_collision_detection
      (** collisions are delivered as [Silence]; protocols cannot cheat *)

type 'msg action =
  | Sleep  (** neither transmit nor listen; reception is not computed *)
  | Listen
  | Transmit of 'msg

type 'msg reception =
  | Silence
  | Collision  (** only ever delivered under [Collision_detection] *)
  | Received of 'msg

type 'msg protocol = {
  decide : round:int -> node:int -> 'msg action;
      (** called once per node per round, before any delivery *)
  deliver : round:int -> node:int -> 'msg reception -> unit;
      (** called once per {e listening} node per round, after all nodes
          decided *)
}

type stats = {
  mutable rounds : int;  (** rounds actually simulated *)
  mutable transmissions : int;  (** total Transmit actions *)
  mutable deliveries : int;  (** successful single-transmitter receptions *)
  mutable collisions : int;  (** listener-rounds with ≥ 2 transmitting neighbors *)
  mutable busy_rounds : int;  (** rounds with at least one transmission *)
}

val fresh_stats : unit -> stats

type outcome =
  | Completed of int
      (** [Completed r]: the stop predicate held before round [r]; [r]
          rounds were simulated *)
  | Out_of_budget of int  (** the round budget was exhausted first *)

val rounds_of_outcome : outcome -> int
(** The simulated round count in either case. *)

val completed_exn : outcome -> int
(** @raise Failure if the run did not complete. *)

type 'msg trace_event =
  | Ev_transmit of { node : int; msg : 'msg }
  | Ev_receive of { node : int; reception : 'msg reception }

val total_simulated_rounds : unit -> int
(** Rounds simulated process-wide since startup, summed over every [run]
    (across all domains; the counter is atomic).  The bench harness reads
    the delta around an experiment to report rounds/sec. *)

val add_simulated_rounds : int -> unit
(** Credit rounds to the process-wide tally.  For the fast engine
    ({!Engine_sparse}), which simulates rounds without going through
    [run]; protocols and benches never call this. *)

val total_skipped_rounds : unit -> int
(** Rounds fast-forwarded process-wide by {!Engine_sparse}: the rounds
    whose [decide_active] awake set was empty.  Disjoint from
    {!total_simulated_rounds}: a round is counted in exactly one of the
    two tallies, so honest throughput is [simulated / wall] and a bench
    can report the skipped volume separately.  Protocol-visible state ([stats.rounds], metrics rows,
    [after_round] calls) does not distinguish the two. *)

val add_skipped_rounds : int -> unit
(** Credit fast-forwarded rounds.  For engine front ends only. *)

type mode =
  | Dense  (** {!run}: the full-scan reference, the only tracing path *)
  | Sparse
      (** {!Engine_sparse.run}, with the protocol fast paths (active set,
          passive listeners, silent-round skip) *)
(** Which round path {!Drive.run} takes.  No pipeline names a mode: it
    is one process-wide setting (default [Sparse]) that tests and benches
    scope with {!Drive.with_engine}, and only {!Drive.run} reads it.  Only
    [Sparse] consumes the protocol fast paths.  Both modes produce
    byte-identical results ([test/test_contracts.ml] checks every registry
    entry under [Dense] and [Sparse]). *)

val inject_silence : bool Atomic.t
(** Debug probe for the contracts suite: when set, both engines ({!run}
    and {!Engine_sparse.run}, under every mode) deliver one spurious
    [Silence] to every listener they deliver to, before its real reception
    of the round.  A protocol honouring the R11
    silence-purity contract (DESIGN.md §13) produces byte-identical results
    either way — [test/test_contracts.ml] asserts exactly that for every
    registered pipeline.  Read once per run; defaults to [false], in which
    case the engine behaves identically to previous releases. *)

val run :
  ?stats:stats ->
  ?metrics:Rn_obs.Metrics.t ->
  ?on_round:(round:int -> 'msg trace_event list -> unit) ->
  ?after_round:(round:int -> unit) ->
  graph:Rn_graph.Graph.t ->
  detection:detection ->
  protocol:'msg protocol ->
  stop:(round:int -> bool) ->
  max_rounds:int ->
  unit ->
  outcome
(** The full-scan reference engine, and the oracle the fast engines are
    tested against: every round it calls [decide] on every node and
    [deliver] on every listener, [Silence] included.

    [run ~graph ~detection ~protocol ~stop ~max_rounds ()] simulates rounds
    until [stop ~round] holds (checked before each round) or [max_rounds]
    rounds have been simulated.  [metrics], when given, receives one
    [Rn_obs.Metrics.record_round] call at the end of every simulated round
    (this round's transmissions/deliveries/collisions, attributed to the
    registry's current phase) — pure int mutation, so the quiet-round
    0-word budget still holds; protocols annotate phase boundaries from
    [after_round] (see [Rn_obs.Phase]).  [on_round], when given, receives every
    transmit/receive event of the round (including sleep-free listens that
    heard silence) — intended for examples and debugging, not benchmarks;
    this is the only engine that traces.
    [after_round] is a cheap per-round hook (no event capture) called after
    all deliveries of a round; protocol state machines use it to advance
    phase counters.

    The engine allocates only its fixed per-run scratch (a few int arrays of
    length [n]); the round loop itself is allocation-free apart from the
    [Transmit] packets protocols return (stored by reference, never
    re-wrapped), the [Received] wrappers handed to successful listeners, and,
    when [on_round] is set, the trace events.  [test/test_alloc.ml] enforces
    this budget under [Gc.minor_words]; rblint rule R5 (see DESIGN.md §8)
    statically rejects list traversals inside the [@@zero_alloc_hot]-tagged
    loop.

    Complexity per round: O(n) decide calls plus O(Σ deg) over
    transmitters. *)
