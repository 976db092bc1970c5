(** Theorem 1.1: single-message broadcast in unknown topology with
    collision detection, in [O(D + log⁶ n)] rounds w.h.p.

    The pipeline of §2.3:

    + a {e collision wave} computes the BFS layering in exactly [D] rounds
      (the only step that needs collision detection);
    + the graph is decomposed into rings of consecutive layers;
    + a GST forest is built inside every ring {e in parallel} (even/odd
      rings alternate rounds; cost charged as twice the slowest ring);
    + the message travels ring by ring: inside a ring along the GST
      schedule ([O(width + log² n)]), across boundaries by Decay
      ([O(log² n)]).

    The ring count trades construction cost (∝ width) against handoff
    cost (∝ count); the paper picks [log⁴ n] rings so both sides are
    [O(D) + polylog].  At simulation scale the hidden constants differ, so
    [Auto] picks [√D] rings.  That is not the paper's additive
    construction: construction cost grows with ring width, so [Auto] pays
    [√D·polylog(n)] for it, while a fixed polylog width ([Ring_width w])
    pays a fixed construction fee plus a per-ring handoff in the spread.
    No benchmark sweeps this choice; the test-suite runs all three ring
    choices.

    Steps 1–2, and a builder for each ring's step 3, are {!front}, which
    Theorem 1.3's {!Multi_broadcast.unknown} shares; {!run} builds each
    ring just before step 4 reaches it and drops it after, so a run
    holds [O(n)] words plus one ring's forest, not every ring's. *)

open Rn_util

type ring_choice = Auto | Ring_count of int | Ring_width of int

type result = {
  delivered : bool;
  rounds_total : int;
  rounds_layering : int;
  rounds_construction : int;  (** charged parallel cost, 2 × slowest ring *)
  rounds_broadcast : int;  (** in-ring broadcasts plus boundary handoffs *)
  ring_count : int;
  ring_width : int;
  received : bool array;
}

type front = {
  rings : Rings.t;  (** the layering and its ring decomposition *)
  rounds_layering : int;
  build : int -> Gst_distributed.result;
      (** [build j] builds ring [j]'s GST forest, learning virtual
          distances; its [total_rounds] is the ring's construction
          cost *)
}

val front :
  ?rings:ring_choice ->
  ?params:Params.t ->
  ?estimate_diameter:bool ->
  ?engine:Rn_radio.Engine.mode ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  unit ->
  front
(** The layering → rings → per-ring GST stage shared by {!run} (Theorem
    1.1) and {!Multi_broadcast.unknown} (Theorem 1.3): layer the graph,
    cut it into rings of the chosen width, and return a builder for each
    ring's GST forest ({!Gst_distributed.construct} in [Pipelined] mode,
    learning virtual distances).  [rings] defaults to [Auto]; [engine]
    and [estimate_diameter] are as for {!run}.

    [front] draws one [Rng.split rng] per ring, in ring order, before it
    returns; [build] never touches [rng].  [build j] runs on a copy of
    ring [j]'s stream, so it may be called at any time, in any order, and
    more than once: every call returns the same forest.  It is meant to
    be called once per ring, since each call pays a whole construction.
    Which rings are live at a time is up to the caller: {!run} builds
    ring [j] just before its spread and drops it after, so it holds one
    ring's forest at a time; {!Multi_broadcast.unknown} keeps them all.
    The charged construction cost of §2.3 is
    {!Rings.charged_parallel_rounds} over every ring's [total_rounds].

    @raise Invalid_argument on an empty graph, or a [Ring_width] or
    [Ring_count] below 1. *)

val run :
  ?rings:ring_choice ->
  ?params:Params.t ->
  ?estimate_diameter:bool ->
  ?engine:Rn_radio.Engine.mode ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  unit ->
  result
(** Requires a connected graph; every node must end up with the message
    ([delivered] reports it, and [received] the per-node outcome).  An
    in-ring spread that completes with a wrong decoded payload
    ({!Gst_broadcast.result}'s [payloads_ok] false) fails the run like one
    that runs out of budget.

    [engine] (default [Sparse]) selects the round path for every phase of
    the pipeline — construction, in-ring GST broadcasts and boundary
    handoffs all run on {!Rn_radio.Engine_sparse} with frontier active
    sets and silent-round skipping; pass [Dense] for the reference
    full-scan path.  Outcomes, round counts and statistics are identical
    either way (DESIGN.md §12); only the collision wave ignores [engine]
    and runs on the default (it is [D] rounds with every awake node
    acting).

    With [estimate_diameter = true] the run starts with the footnote-2
    beep-wave estimator ({!Diameter_estimate}), sizes the rings from the
    returned 2-approximation instead of the exact depth, and charges the
    estimator's rounds to [rounds_layering] — the fully assumption-free
    version of Theorem 1.1 (nodes need to know nothing about [D]). *)
