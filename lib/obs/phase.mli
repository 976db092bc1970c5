(** Phase annotation for {!Metrics}.

    Protocols annotate phase boundaries (Decay phase index, GST epoch,
    recruiting iteration, bipartite epoch) so counters aggregate per paper
    phase.  Annotate only from coordinator-serial code — [after_round]
    hooks or between runs, never from [decide]/[deliver] (those run inside
    parallel lanes under [Sharded d] and would break the byte-identity
    contract). *)

val enter : Metrics.t -> int -> unit
(** [enter m p] makes [p] the current phase.  Out-of-range ids clamp. *)

val current : Metrics.t -> int
(** The phase subsequent rounds will be attributed to. *)

val enter_of_round : Metrics.t -> len:int -> round:int -> unit
(** [enter_of_round m ~len ~round] enters phase [round / len] — the
    annotation pattern for ladder protocols whose phase is a pure function
    of the round index.  @raise Invalid_argument if [len < 1]. *)
