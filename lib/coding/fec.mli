(** Forward error correction for the ring handoff (§3.4).

    When a batch of k' messages crosses from the outer boundary of one ring
    to the inner boundary of the next, boundary nodes emit Θ(k') coded
    packets such that any receiver that collects enough of them decodes the
    whole batch.  As the paper notes, this is a degenerate form of network
    coding (no intermediate recombination), so we realize it with random
    GF(2) combinations: [k' + s] random packets decode with probability
    at least [1 - 2^{-s}] (a random k'×k' GF(2) matrix is singular with
    probability ~0.71, hence the slack).  Receivers decode with a plain
    {!Rlnc} buffer ({!Rlnc.create}, {!Rlnc.receive}, {!Rlnc.decode}); the
    handoff ([Rings.handoff_fec]) keeps sending until every
    receiver decodes, so no fixed packet count is needed. *)

val encode :
  Rn_util.Rng.t -> msgs:Bitvec.t array -> count:int -> Rlnc.packet array
(** [count] independent uniformly random combinations of the batch
    (zero rows are re-drawn, so every packet is useful). *)

