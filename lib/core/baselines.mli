(** Multi-message baselines the paper compares against (§1.3).

    The single-message baselines — BGI Decay [2] and the Czumaj–Rytter /
    Kowalski–Pelc-shaped [O(D log(n/D) + log² n)] schedule — are both
    {!Decay.broadcast} (the latter with [~diameter]).

    - {!routing_multi}: store-and-forward multi-message broadcast — every
      holder, when its Decay coin fires, transmits one {e uncoded} message
      chosen uniformly from those it holds.  The coding-vs-routing
      comparison of [11] (experiment E10).
    - {!sequential_multi}: [k] back-to-back single-message Decay
      broadcasts — the naive [O(k · (D log n + log² n))] upper bound. *)

open Rn_util
open Rn_radio

type multi_result = {
  rounds : int;
  delivered : bool;
  complete_round : int array;
      (** first round each node held all [k] messages; [-1] = never *)
  stats : Engine.stats;
}

val routing_multi :
  ?params:Params.t ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  k:int ->
  unit ->
  multi_result

val sequential_multi :
  ?params:Params.t ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  k:int ->
  unit ->
  multi_result
