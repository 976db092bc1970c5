(** Deterministic, allocation-free metrics registry.

    A registry is fully preallocated at {!create}: per-phase counters are
    flat int arrays indexed by phase id, per-round history is a
    fixed-capacity ring buffer, and the receive-round histogram is a flat
    bin array.  The recording ops ({!set_phase}, {!record_round},
    {!observe_receive_round}) are pure int mutation — no closures, no
    boxing — so the engines call them from their [@@zero_alloc_hot] round
    loops without breaking the 0-word quiet-round budget enforced by
    test/test_alloc.ml.

    Determinism: each engine records once per round, after the round's
    deliveries (the dense engine's round tail, the sparse engine's tally
    and its zero rows for skipped rounds), so exported output is
    byte-identical under both engines — see DESIGN §11. *)

type t

val create :
  ?phases:int -> ?ring:int -> ?hist_bins:int -> ?hist_width:int -> unit -> t
(** [create ()] preallocates a registry.  [phases] (default 64) is the
    number of per-phase bins — phase ids at or beyond it are clamped into
    the last bin.  [ring] (default 1024) is the per-round ring capacity:
    the last [ring] recorded rounds are retained.  [hist_bins] (default
    64) and [hist_width] (default 1) shape the receive-round histogram:
    bin [i] counts receive rounds in [[i*hist_width, (i+1)*hist_width)],
    with the last bin absorbing overflow.  Protocol drivers pick
    [hist_width] so bins align with their phase length (Decay uses the
    ladder length, making the histogram a per-phase first-receive count).
    @raise Invalid_argument if any size is < 1. *)

val reset : t -> unit
(** Zero every counter, the ring and the histogram; phase returns to 0.
    Capacities are unchanged (no allocation). *)

val set_phase : t -> int -> unit
(** [set_phase t p] makes [p] the phase that subsequent
    {!record_round}/[...] calls attribute to.  Out-of-range ids clamp
    (never raises — this runs mid-round).  Protocols mark phase boundaries
    (Decay phase index, GST epoch) only from [after_round] hooks or
    between runs, never [decide]/[deliver]: the sparse engine elides
    sleeping nodes' decides, silent listeners' deliveries and whole silent
    rounds, so a boundary set there would move with the engine and break
    the byte-identity contract. *)

val record_round :
  t -> round:int -> transmissions:int -> deliveries:int -> collisions:int ->
  unit
(** Record one simulated round under the current phase: bumps run totals,
    the current phase's aggregates, and appends to the ring buffer.
    Called once per round by each engine when the run is given
    [?metrics]. *)

val observe_receive_round : t -> int -> unit
(** [observe_receive_round t r] adds one observation to the receive-round
    histogram (bin [r / hist_width], clamped).  Negative [r] ("never
    received") is ignored. *)

val record_receive_rounds : t -> int array -> unit
(** Fold a per-node receive-round array (as produced by e.g.
    [Decay.broadcast]) into the histogram; negative entries are skipped. *)

(** {2 Read accessors} *)

val current_phase : t -> int
val n_phases : t -> int
val rounds : t -> int
val transmissions : t -> int
val deliveries : t -> int
val collisions : t -> int

val phase_rounds : t -> int -> int
val phase_transmissions : t -> int -> int
val phase_deliveries : t -> int -> int
val phase_collisions : t -> int -> int
(** Per-phase aggregates.  @raise Invalid_argument on out-of-range id. *)

val phases_used : t -> int
(** 1 + highest phase id with at least one recorded round; 0 if nothing
    was recorded. *)

val ring_capacity : t -> int
val ring_length : t -> int

val ring_get : t -> int -> int * int * int * int * int
(** [ring_get t i] is the [i]-th retained round in chronological order
    (0 = oldest) as [(round, phase, transmissions, deliveries,
    collisions)].  @raise Invalid_argument if [i] is out of range. *)

val hist_bins : t -> int
val hist_width : t -> int
val hist_count : t -> int
val hist_get : t -> int -> int
(** Histogram shape and per-bin counts.
    @raise Invalid_argument on out-of-range bin. *)
