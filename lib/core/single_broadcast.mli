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

    Steps 1–2, and a builder for each ring's step 3, are {!front}; steps
    3–4 are {!relay}.  Both are shared with Theorem 1.3's
    {!Multi_broadcast.unknown}: {!run} is {!relay} with one batch and
    {!Rings.handoff_single}, [unknown] is {!relay} with [⌈k / batch⌉]
    batches and {!Rings.handoff_fec}.  {!relay} walks the rings in order,
    building each just before its first stage and dropping it after its
    last, so a run holds [O(n)] words plus one ring's forest, not every
    ring's. *)

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
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  unit ->
  front
(** The layering → rings → per-ring GST stage shared by {!run} (Theorem
    1.1) and {!Multi_broadcast.unknown} (Theorem 1.3): layer the graph,
    cut it into rings of the chosen width, and return a builder for each
    ring's GST forest ({!Gst_distributed.construct} in [Pipelined] mode,
    learning virtual distances).  [rings] defaults to [Auto];
    [estimate_diameter] is as for {!run}.

    [front] draws one [Rng.split rng] per ring, in ring order, before it
    returns; [build] never touches [rng].  [build j] runs on a copy of
    ring [j]'s stream, so it may be called at any time, in any order, and
    more than once: every call returns the same forest.  It is meant to
    be called once per ring, since each call pays a whole construction.
    Which rings are live at a time is up to the caller; {!relay} holds
    one at a time.  The charged construction cost of §2.3 is
    {!Rings.charged_parallel_rounds} over every ring's [total_rounds].

    @raise Invalid_argument on an empty graph, or a [Ring_width] or
    [Ring_count] below 1. *)

type relayed = {
  got : bool array array;  (** [got.(b).(v)]: node [v] holds batch [b] *)
  delivered : bool;  (** no stage failed and every node holds every batch *)
  payloads_ok : bool;
      (** no spread or delivered handoff decoded a wrong payload *)
  rounds_construction : int;  (** charged parallel cost, 2 × slowest ring *)
  stage_total : int;  (** sum of the rounds of every stage run *)
  stage_max : int;  (** rounds of the slowest stage run *)
}

val relay :
  params:Params.t ->
  rng:Rng.t ->
  handoff:
    (rng:Rng.t ->
    holders:int array ->
    receivers:int array ->
    Rn_coding.Bitvec.t array ->
    Rings.handoff_result * bool) ->
  front ->
  Rn_coding.Bitvec.t array array ->
  relayed
(** [relay ~params ~rng ~handoff f batches] carries every batch from the
    source across every ring.  Stage [(b, j)] spreads batch [b] from ring
    [j]'s roots over ring [j]'s forest ({!Gst_broadcast.run}) and then,
    below the last ring, hands it from ring [j]'s outer boundary to ring
    [j+1]'s roots with [handoff], whose [bool] says every receiver decoded
    exactly the batch; the stage's rounds are the two summed.

    The walk is ring-major — build ring [j], run stage [(b, j)] for every
    [b] in order, drop the forest — but the stage streams are split from
    [rng] up front in batch-major order: per batch, per ring, the
    spread's and then the handoff's.  [rng] is not read after.

    A stage fails on a root lacking its batch, an exhausted budget or a
    wrong decoded payload.  No stage runs after the first failure, but
    every ring is still built: the charged construction cost covers all
    of them. *)

val run :
  ?rings:ring_choice ->
  ?params:Params.t ->
  ?estimate_diameter:bool ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  unit ->
  result
(** {!relay} with one batch: [delivered] follows its failure and
    delivery rule (so it is false on a disconnected graph), and
    [received] is the per-node outcome.

    With [estimate_diameter = true] the run starts with the footnote-2
    beep-wave estimator ({!Diameter_estimate}), sizes the rings from the
    returned 2-approximation instead of the exact depth, and charges the
    estimator's rounds to [rounds_layering] — the fully assumption-free
    version of Theorem 1.1 (nodes need to know nothing about [D]). *)
