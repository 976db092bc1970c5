(** Pure JSONL/CSV emitters for {!Metrics}.

    Every function returns strings — nothing here prints (rblint R4);
    bench/ and bin/ own the consoles and files.  Field order and number
    formatting are fixed, so equal registries produce byte-identical
    output — the property the sparse-vs-dense equivalence tests and the
    ES bench checks compare. *)

val round_jsonl : Metrics.t -> string list
(** One line per retained round, chronological (oldest first).  Runs
    longer than the ring capacity retain only the tail. *)

val phases_jsonl : Metrics.t -> string list
(** One line per used phase: rounds, tx, deliveries, collisions. *)

val phases_csv : Metrics.t -> string list
(** Header + one CSV row per used phase. *)

val hist_csv : Metrics.t -> string list
(** Header + one CSV row per receive-round histogram bin, up to the last
    non-empty bin: [bin,round_lo,round_hi,count]. *)

val summary_json : Metrics.t -> string
(** Single-object run summary (totals + used-phase and observation
    counts). *)
