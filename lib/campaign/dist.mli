(** Distributed campaign executor: shared-nothing multi-process fan-out
    with supervised workers and deterministic journal merge.  DESIGN.md
    §15 documents the distribution model and its determinism argument.

    The coordinator partitions the spec's cell list into contiguous
    shards, one per worker slot, and drives each slot through a small
    state machine: spawn → (progress | stall | crash) → backoff/respawn
    → retire or die.  All effects go through the injected {!io} record —
    the library itself never forks, sleeps, reads a clock, or touches a
    file, which keeps it inside rblint's R4/R8 determinism envelope and
    makes the whole supervisor testable against a simulated harness with
    a virtual clock.

    Liveness is judged by journal growth, not by the process table: a
    slot is healthy as long as its shard journal keeps gaining valid
    sealed lines.  A worker that exits 0 without journaling its assigned
    cells is a crash; a worker killed between its final journal flush
    and its exit is a success.  Crashes respawn the slot on its
    remaining cells after exponential backoff, up to [retries] respawns;
    a slot that exhausts its budget dies and its unfinished cells are
    reassigned to a retired survivor.  When every slot is dead and cells
    remain, the campaign fails loudly — shard journals are preserved on
    disk (they are caller-owned), so a later run resumes from them.

    {!merge} combines the shard journals into the final output: lines
    are validated (sealed, in-range index, job key matching the spec),
    deduplicated by job key, conflicts resolved by lexicographic-least
    line — a commutative rule, so the result is independent of shard
    order and arrival order.  Since every valid line is a pure function
    of its cell, the merged output is byte-identical to a single-process
    {!Campaign.run} over the same spec. *)

type status =
  | Running  (** the slot's child is alive *)
  | Exited of int  (** terminated normally with this exit code *)
  | Signaled of int  (** terminated by this signal *)

type io = {
  spawn : slot:int -> attempt:int -> cells:int array -> unit;
      (** start a worker on [cells] (spec cell indices, ascending).  Any
          previous child of this slot has already exited or been killed;
          the implementation reaps it before starting the new one. *)
  status : slot:int -> status;
      (** poll the slot's most recently spawned child (non-blocking).
          Each tick polls every live slot before it reads their
          journals, so the read that follows an observed exit holds
          everything the child wrote. *)
  kill : slot:int -> unit;  (** force-terminate the slot's child *)
  journal_lines : slot:int -> string list;
      (** current contents of the slot's shard journal, one element per
          line, in file order — re-read on every poll tick *)
  clock : unit -> float;  (** monotonic seconds (any fixed origin) *)
  sleep : float -> unit;  (** block for this many seconds *)
}

type config = {
  workers : int;  (** worker slots (>= 1) *)
  retries : int;  (** respawns allowed per slot after its first attempt *)
  heartbeat_timeout : float;
      (** seconds without journal growth before a running slot is
          declared stalled and killed *)
  backoff_base : float;
      (** respawn delay after the first crash; doubles per attempt *)
  poll_interval : float;  (** supervisor tick, seconds *)
}

type event =
  | Spawn of { slot : int; attempt : int; cells : int }
  | Progress of { slot : int; completed : int; total : int }
      (** campaign-wide completion after this slot's journal grew *)
  | Stall of { slot : int; idle : float }
  | Kill of { slot : int }
  | Crash of { slot : int; attempt : int; reason : string }
  | Backoff of { slot : int; attempt : int; delay : float }
  | Retire of { slot : int }
  | Death of { slot : int; orphans : int }
  | Reassign of { slot : int; cells : int }

type sup_stats = {
  spawns : int;  (** total worker spawns, retries included *)
  kills : int;  (** stalled or lingering workers force-killed *)
  crashes : int;  (** crash transitions (timeouts, bad exits, signals) *)
  reassigned : int;  (** cells moved off a dead slot to a survivor *)
}

type merge_stats = {
  shards : int;  (** shard journals merged *)
  lines_in : int;  (** non-blank input lines *)
  torn : int;  (** unsealed / unparseable lines dropped *)
  stale : int;  (** sealed lines whose key does not match the spec *)
  duplicates : int;  (** byte-identical repeats of an accepted line *)
  conflicts : int;
      (** same job key, different bytes — resolved lexicographic-least *)
  missing : int list;  (** cell indices with no surviving line *)
}

type stats = {
  cells : int;  (** total cells in the spec *)
  sup : sup_stats;
  merge : merge_stats;
}

val plan : workers:int -> pending:int array -> int array array
(** Partition [pending] (ascending cell indices) into [workers]
    contiguous shards whose sizes differ by at most one.  Shards may be
    empty when there are fewer cells than workers. *)

val cells_to_string : int array -> string
(** Render an ascending index array as a compact range list, e.g.
    [[|0;1;2;7;9;10|]] is ["0-2,7,9-10"] — the [--cells] wire format
    between coordinator and worker. *)

val cells_of_string : string -> int array
(** Parse the {!cells_to_string} format back into an ascending array.
    @raise Invalid_argument on malformed input. *)

val supervise :
  ?on_event:(event -> unit) ->
  config:config ->
  io:io ->
  Spec.t ->
  (sup_stats, string) result
(** Drive worker slots until every cell of the spec has a valid line in
    some shard journal, or until no slot can make further progress.
    Existing shard-journal contents are scanned first, so re-running
    after a failed campaign resumes rather than restarts.  [Error]
    carries a human-readable reason (retry budget exhausted); the shard
    journals are left exactly as the workers wrote them. *)

val merge : Spec.t -> string list list -> string list * merge_stats
(** [merge spec shards] deduplicates and orders the shard journals'
    lines into the final campaign output, in cell-index order, skipping
    missing cells (reported in {!merge_stats.missing}).  Pure and
    commutative in both shard order and line order. *)

val run :
  ?on_event:(event -> unit) ->
  config:config ->
  io:io ->
  emit:(string -> unit) ->
  Spec.t ->
  (stats, string) result
(** {!supervise}, then {!merge} over every slot's journal, then [emit]
    each merged line in cell-index order.  [Error] if supervision gave
    up or the merge is missing cells; nothing is emitted on error.  Over
    complete shard journals nothing is spawned: this is the merge on its
    own. *)
