(** Ring decomposition and boundary handoffs (§2.3, §3.4).

    After a BFS layering, the graph is cut into rings of [width]
    consecutive layers around the source.  GSTs for different rings are
    built {e in parallel}: rings two apart share no edges, so even and odd
    rings alternate rounds and the wall-clock cost is twice the slowest
    ring — the accounting used by {!charged_parallel_rounds}.

    Messages cross from the outer boundary of ring [j] to the inner
    boundary (the GST roots) of ring [j+1] by Decay: plainly for a single
    message, or FEC-coded for a batch (each boundary holder transmits
    fresh random GF(2) combinations until every receiver can decode —
    the paper's Θ(k′)-packet forward error correction). *)

open Rn_util
open Rn_coding

type t = {
  levels : int array;  (** the global BFS layering *)
  width : int;
  count : int;
  by_level : int array array;
      (** [Bfs.by_level levels]: the nodes of each global layer *)
}

val decompose : levels:int array -> width:int -> t
(** [width ≥ 1]; rings are [\[j·width, (j+1)·width)] layer bands. *)

val ring_levels : t -> int -> int array
(** Ring-local levels for ring [j] ([-1] outside the ring): an n-sized
    array, filled from the ring's own layers only. *)

val roots : t -> int -> int array
(** Inner-boundary nodes of ring [j] (its GST forest roots): layer
    [j·width], read from [by_level] (shared, not copied). *)

val outer_boundary : t -> int -> int array
(** Nodes of the last layer of ring [j], [(j+1)·width − 1], read from
    [by_level] (shared, not copied); empty if the ring is shallower than
    [width], i.e. the outermost ring. *)

val charged_parallel_rounds : int list -> int
(** Wall-clock rounds for running the listed per-ring round counts in
    parallel with even/odd interleaving: [2 × max] (0 for the empty
    list). *)

type handoff_result = { rounds : int; delivered : bool }

val handoff_single :
  ?params:Params.t ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  holders:int array ->
  receivers:int array ->
  unit ->
  handoff_result
(** One message crosses a ring boundary: [holders] run Decay phases until
    every receiver has heard it ([O(log² n)] w.h.p.). *)

val handoff_fec :
  ?params:Params.t ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  holders:int array ->
  receivers:int array ->
  msgs:Bitvec.t array ->
  unit ->
  handoff_result * bool
(** A batch of [k′] messages crosses a boundary: holders transmit fresh
    random FEC combinations through Decay until every receiver decodes.
    The [bool] is true iff every receiver decoded exactly [msgs] (true for
    no receivers, false for no holders). *)
