(** Parallel trial runner and the shared worker-domain pool.

    Theorem-validation experiments are embarrassingly parallel: thousands of
    independent [Engine.run] calls, one per (configuration, seed) pair, each
    deriving all of its randomness from its own seed.  This module fans such
    trials out over OCaml 5 domains (one per available core by default)
    while keeping results {e bit-identical} to a serial run: sharding is
    static and deterministic, and results are returned in input order.

    The callback must be a pure function of its input (plus immutable shared
    data such as a pre-built {!Rn_graph.Graph.t}, which is safe to read from
    any domain): no shared mutable state, no printing.  All of the bench
    harness's per-seed loops satisfy this by construction — every trial
    creates its own {!Rn_util.Rng} from its seed. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f items] evaluates [f] on every item, fanned out over
    [min domains (length items)] deterministic lanes ([default_domains ()]
    if unspecified) executed by pool workers plus the calling domain, and
    returns the results in input order.  Result slots are preallocated
    per lane (each lane sizes one array off its first result), so the
    steady-state dispatch loop performs no per-element allocation — no
    option boxing, no list consing — which [test_alloc.ml] enforces with
    a [Gc.minor_words] budget.  [domains <= 1] runs serially in the
    calling domain.  The result depends only on [domains], never on how
    many pool workers were actually available.  An exception raised by
    any [f] is re-raised after all lanes finish. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** List-interface wrapper over {!map_array}: same lanes, same
    determinism contract, results in input order. *)

(** The process-wide pool of reusable worker domains behind [map] and
    the lanes of [Campaign.run].

    Workers park on a condition variable between jobs, so borrowing is
    cheap enough to do once per parallel region.  [borrow] reuses idle
    workers freely but {e spawns} new domains only when no worker is busy:
    a nested parallel region (a [map] inside a [map] trial or a campaign
    cell) gets zero workers and runs in its calling domain, bounding the
    live domain count to one level of parallelism.  Callers must treat a short
    allocation as normal, not an error — every parallel entry point here
    degrades to a serial execution of the same deterministic schedule.

    Parked workers are joined by an [at_exit] hook. *)
module Pool : sig
  type worker

  val size_cap : int Atomic.t
  (** Upper bound on the total number of worker domains the pool will ever
      hold, defaulting to [default_domains () - 1] — the calling domain
      plus a full pool then exactly saturate the hardware.  CPU-bound lanes
      gain nothing from more executors than cores, and by the determinism
      contracts of {!map} and [Campaign.run] the executor count never
      affects results, so requests beyond the cap simply degrade toward
      the calling domain.  Tests raise it to force
      true multi-domain execution on small machines. *)

  val borrow : want:int -> worker array
  (** At most [want] workers; possibly fewer (including none) when the
      pool is busy or [size_cap] is reached.  Every borrowed worker must be
      passed to [release] after its last [await]. *)

  val run_on : worker -> (unit -> unit) -> unit
  (** Start a job on an idle borrowed worker.  At most one job may be in
      flight per worker; [await] before reusing it. *)

  val await : worker -> exn option
  (** Block until the worker's job finishes; returns the exception it
      raised, if any.  The worker is idle and reusable afterwards. *)

  val release : worker array -> unit
  (** Return workers to the pool.  Call only with every job awaited. *)
end
