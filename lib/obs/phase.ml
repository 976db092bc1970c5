(* Phase annotation: protocol drivers mark phase boundaries so the metrics
   registry aggregates per paper phase (Decay phase index, GST epoch,
   recruiting iteration, bipartite epoch).

   Annotation must happen from coordinator-serial code — protocol [decide]
   and [deliver] callbacks run inside parallel lanes under [Sharded d], so
   phase changes belong in [after_round] hooks (serial in every mode) or
   between runs.  All annotators in lib/core follow this rule; it is what
   keeps exported output byte-identical across domain counts. *)

let enter m p = Metrics.set_phase m p [@@zero_alloc_hot]

let current = Metrics.current_phase

(* Convenience for ladder-style protocols whose phase is a pure function of
   the round index: enter the phase of [round], given a fixed [len]-round
   phase length. *)
let enter_of_round m ~len ~round =
  if len < 1 then invalid_arg "Phase.enter_of_round: len < 1";
  Metrics.set_phase m (round / len)
[@@zero_alloc_hot]
