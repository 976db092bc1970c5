(** First-class protocol registry.

    Every broadcast/construction pipeline in [lib/core] registers one
    {!entry} here (see [Rn_broadcast.Protocols.ensure_registered]), making
    the protocol set a run-time value: [bin/rbcast.ml] derives its
    [--proto] enumeration from {!names}, [bench/main.ml] sweeps {!all}
    instead of hand-wired wrapper tables, and [test/test_contracts.ml]
    exercises each registered [run] under every engine mode and under
    spurious-[Silence] injection.

    The registry is also the anchor of rblint's protocol-contract rules
    (DESIGN.md §13): R11 and R12 statically verify every protocol's
    [decide]/[deliver] closures, and R14 flags any
    engine-driving pipeline that is not reachable from a
    [Registry.register] call — so a protocol cannot opt out of the
    contract checks by simply not registering. *)

type result = {
  rounds : int;  (** simulated rounds (total across phases) *)
  delivered : bool;  (** the pipeline's own success criterion *)
  details : (string * string) list;
      (** protocol-specific key/value facts (phase round counts, ring
          counts, payload checks …) in a stable order — deterministic for
          a given (graph, seed), so tests may compare them byte-for-byte *)
}
(** Engine-independent summary of one pipeline run.  Everything in it is a
    pure function of the inputs; wrappers derive all randomness from
    [seed]. *)

type run =
  ?k:int ->
  ?metrics:Rn_obs.Metrics.t ->
  seed:int ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  unit ->
  result
(** Uniform pipeline entry point.  [k] is the message count for multi-
    message protocols (ignored otherwise; defaults to 8), and [metrics] is
    forwarded to wrappers that support round tracing.  The wrapper creates
    its own {!Rn_util.Rng} from [seed].

    The result is engine-independent: a run under
    [Drive.with_engine Dense] returns a byte-identical record to one under
    [Sparse] — [test/test_contracts.ml] runs every entry under both and
    compares. *)

type entry = {
  name : string;  (** unique CLI-friendly identifier, e.g. ["decay"] *)
  summary : string;  (** one-line description for [--help] listings *)
  multi : bool;  (** consumes [?k] (k-message pipeline) *)
  traceable : bool;  (** forwards [?metrics] to the engine *)
  silence_pure : bool;
      (** no phase of the pipeline observes [Silence] as evidence: extra
          [Silence] deliveries cannot change its result.  [false] mirrors a
          reasoned [rblint:allow R11] in the pipeline's source (e.g. the
          GST self-test, where silence {e means} unsafe); the contracts
          suite only asserts injection byte-identity when [true]. *)
  run : run;
}

val register : entry -> unit
(** Append to the registry.  Thread-safe (lock-free CAS).
    @raise Invalid_argument on a duplicate [name]. *)

val all : unit -> entry list
(** Entries in registration order. *)

val find : string -> entry option

val names : unit -> string list
(** [List.map (fun e -> e.name) (all ())]. *)
