(** Deterministic, splittable pseudo-random number generator.

    Every protocol in this library draws randomness exclusively through this
    module, so that any simulation is reproducible from a single integer
    seed.  The generator is SplitMix64 (Steele, Lea & Flood 2014): a small,
    fast, statistically solid 64-bit generator whose defining feature is
    cheap splitting, which we use to hand every simulated node an
    independent stream. *)

type t
(** Mutable generator state, held unboxed: no draw allocates except the
    boxed results of {!bits64} and {!float}. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator from [seed].  Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose future output is independent of
    [t]'s; both generators advance independently afterwards. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent generators (one per node): the
    [n] results of [n] successive {!split}s, in order.  It is
    [Array.init n (stream (jump t n))]. *)

type streams
(** The [n] generators a [split_n t n] would build, none of them built
    yet. *)

val jump : t -> int -> streams
(** [jump t n] advances [t] past [n] splits in O(1): afterwards [t] draws
    exactly as it would after [split_n t n].  The result names the [n]
    generators that call would have returned; {!stream} builds any one of
    them, so a stage in which few of [n] nodes draw pays for those nodes
    only, with the same draws.  This is SplitMix64's closed form: the
    [k]-th of [n] successive splits mixes the parent's state advanced by
    [(k+1)] golden gammas, and the parent ends [n] gammas on.
    @raise Invalid_argument if [n < 0]. *)

val stream : streams -> int -> t
(** [stream (jump t n) k], for [0 <= k < n], is a fresh generator that
    draws exactly as [(split_n t n).(k)] would.  O(1); each call builds a
    new generator, so a caller that keeps drawing builds it once.
    @raise Invalid_argument unless [0 <= k < n]. *)

val split_members : t -> int -> int array -> t array
(** [split_members t n ids] is [split_n t n] built for the nodes in [ids]
    only: [t] ends as after [split_n t n], and entry [v] of the result,
    for every [v] in [ids], draws exactly as [(split_n t n).(v)].  All
    other entries are one shared generator that no caller may draw from,
    so [ids] must hold every node that draws.  Costs an [n]-word array
    and one generator per id.
    @raise Invalid_argument if an id is outside [\[0, n)]. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays [t]'s future. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val coin_pow2 : t -> int -> bool
(** [coin_pow2 t e] is [true] with probability [2^-e]: the Decay-ladder
    coin.  It decides exactly as
    [bernoulli t (1.0 /. float_of_int (1 lsl min e 62))], draw for draw,
    but on the integer draw, so it allocates nothing:
    - [e = 0] is [true] and consumes no draw;
    - [1 <= e <= 52] draws once and tests the top [e] of 53 bits for zero;
    - [53 <= e <= 61] draws once and is [true] only if all 53 bits are zero;
    - [e >= 62] is [false] and consumes no draw (there [1 lsl 62]
      overflows to [min_int], so the float probability is negative).

    Exact because every value involved is a power of two: for a 53-bit
    draw [r], [r /. 2^53 < 2^-e] iff [r < 2^(53-e)].
    @raise Invalid_argument if [e < 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct values from
    [\[0, n)], in uniformly random order.  Requires [0 <= k <= n]. *)
