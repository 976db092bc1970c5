(** Deterministic sweep engine: topology cache, work-stealing scheduler,
    checkpoint/resume.  DESIGN.md §14 documents the architecture and its
    determinism argument.

    [run] expands nothing itself — it executes the cells of a parsed
    {!Spec.t} and streams one {!Journal} line per cell, in cell-index
    order, through [emit].  The emitted bytes are a pure function of the
    spec: independent of [domains], pool worker availability, work
    stealing, resume, and abort history.  Everything nondeterministic
    (wall-clock, journal file order, the steal count) stays out of the
    emitted lines and is reported only through {!stats}.

    The engine is quiet (no printing, no file I/O): callers own every
    channel via the [emit] and [journal] callbacks, and wall-clock enters
    only through the injected [clock] — which is what keeps the library
    inside rblint's R4/R8 determinism envelope. *)

type stats = {
  cells : int;  (** total cells in the spec *)
  executed : int;  (** cells actually run this session *)
  replayed : int;  (** cells restored verbatim from [resume_lines] *)
  aborted : bool;  (** true when [abort_after] cut the run short *)
  steals : int;  (** cells executed off their initial lane *)
  gen_s : float;  (** clock time spent building the topology cache *)
  run_s : float;  (** clock time attributed to protocol execution *)
  drain_s : float;  (** coordinator time in journal/emit drains *)
  cell_wall : float array;
      (** per-cell clock seconds of the protocol run; 0 for replayed
          cells *)
  cell_rounds : int array;
      (** per-cell simulated rounds; parsed from the journal line for
          replayed cells, so totals survive a resume *)
}

val run :
  ?domains:int ->
  ?journal:(string -> unit) ->
  ?resume_lines:string list ->
  ?select:int array ->
  ?abort_after:int ->
  ?clock:(unit -> float) ->
  emit:(string -> unit) ->
  Spec.t ->
  stats
(** Run a campaign.

    - [domains] is the lane count (default {!Rn_radio.Runner.default_domains});
      executors are pool workers plus the calling domain, at most one per
      lane.  Lane assignment is static and strided (cell [i] starts on
      lane [i mod domains]); an executor whose lanes are dry steals one
      cell at a time from the back of the most loaded lane.  Every
      distinct topology a pending cell needs is built once, before any
      executor starts, into an immutable array shared read-only by all
      executors.
    - [journal] is called with each finished cell's line as it is
      drained, in completion order — append it to a file and flush to
      checkpoint (the CLI's [--kill-after] counts these calls).
      [resume_lines] replays a previous journal: lines whose
      job key matches the spec's cell are restored without re-running
      (malformed or stale lines are ignored), and are re-emitted — but
      not re-journaled — so the output stream is complete.
    - [select] restricts the run to the given cell indices — the shard a
      distributed campaign worker owns.  Unselected cells are invisible:
      never executed, journaled, or emitted, and resume lines naming them
      are ignored; [stats.cells] still reports the full spec size.
      Out-of-range indices are ignored; [Some [||]] runs nothing.
    - [abort_after n] simulates a kill: after [n] cells have been
      journaled this session the run stops draining, workers wind down,
      and [aborted] is reported — buffered-but-undrained results are
      dropped exactly as a real SIGKILL would drop them.
    - [clock] (default [fun () -> 0.]) timestamps the profile fields in
      {!stats}; bin/rbcast and rbbench (bench/e2e) pass a monotonic
      clock (bechamel's [Monotonic_clock], in seconds).
    - [emit] receives every cell line exactly once, in cell-index order,
      as soon as the index-order prefix is complete (streaming).

    @raise Failure if a protocol name in the spec is not registered
    (callers run [Rn_broadcast.Protocols.ensure_registered ()] first).
    Exceptions raised by protocol runs are re-raised after all executors
    stop. *)
