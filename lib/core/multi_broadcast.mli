(** Multi-message broadcast: Theorems 1.2 and 1.3.

    {!known}: with full topology knowledge (and no collision detection),
    every node computes the same GST and virtual distances offline; the
    source's [k] messages spread by the MMV schedule with random linear
    network coding in [O(D + k log n + log² n)] rounds w.h.p. — optimal
    against the [Ω(k log n)], [Ω(log² n)] and [Ω(D)] lower bounds cited in
    §1.2.

    {!unknown}: with unknown topology but collision detection (§3.4): a
    collision wave layers the graph, rings are decomposed and per-ring
    GSTs (with learned virtual distances) built in parallel — Theorem
    1.1's {!Single_broadcast.front}, shared — then the messages
    are split into batches of Θ(log n) — which also keeps RLNC coefficient
    headers at O(log n) bits — and batches pipeline through the rings:
    RLNC inside each ring, FEC across ring boundaries.  One batch crosses
    one ring per epoch, so with [R] rings and [B] batches the dissemination
    takes [(R + B − 1)] epochs of twice the slowest stage (adjacent rings
    alternate rounds), for [O(D + k log n + log⁶ n)] in total.

    The stages are {!Single_broadcast.relay}'s, with [B] batches and
    {!Rings.handoff_fec}, so Theorem 1.1's stream order (batch-major),
    failure rule and delivery rule ([delivered]: no stage failed and
    every node holds every batch) hold here too, and a run holds [O(n)]
    words plus one ring's forest; [unknown] adds only the epoch
    accounting. *)

open Rn_util
open Rn_coding

type known_result = {
  rounds : int;
  delivered : bool;
  decode_round : int array;
  payloads_ok : bool;
}

val known :
  ?params:Params.t ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  k:int ->
  unit ->
  known_result
(** Theorem 1.2, with 32 bits of random payload per message.
    [delivered] requires the spread to complete and every
    node to decode, so it is false on a disconnected graph. *)

type unknown_result = {
  rounds_total : int;
  rounds_layering : int;
  rounds_construction : int;
  rounds_dissemination : int;  (** charged pipelined cost *)
  ring_count : int;
  batch_count : int;
  epochs : int;
  delivered : bool;
  payloads_ok : bool;
}

val unknown :
  ?params:Params.t ->
  ?rings:Single_broadcast.ring_choice ->
  ?batch_size:int ->
  ?estimate_diameter:bool ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  k:int ->
  unit ->
  unknown_result
(** Theorem 1.3, with 32 bits of random payload per message.
    [rings] defaults to [Auto] and raises [Invalid_argument] below 1, as
    in {!Single_broadcast.run}.  [batch_size] defaults to [⌈log n⌉];
    [estimate_diameter = true] sizes rings from the footnote-2 beep-wave
    2-approximation instead of the exact depth (no knowledge of [D]
    assumed). *)

val random_messages : Rng.t -> k:int -> msg_len:int -> Bitvec.t array
