(** Fixed-length bit vectors over GF(2).

    Random linear network coding (§3.3.1) works over F₂: messages are bit
    vectors, coefficient vectors are bit vectors, and packets carry sums
    (XORs) of messages.  This module is the shared representation, bit-packed
    into 63-bit words. *)

type t

val create : int -> t
(** [create len] is the zero vector of length [len ≥ 0]. *)

val length : t -> int
val copy : t -> t

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val unsafe_get : t -> int -> bool

val unsafe_set : t -> int -> unit
(** [unsafe_set t i] sets bit [i] to one — no bounds check; the caller must
    guarantee [0 <= i < length t].  Hot-path variant for loops over an
    already-validated range. *)

val unsafe_clear : t -> int -> unit
(** [unsafe_clear t i] sets bit [i] to zero — same contract as
    {!unsafe_set}. *)

val clear_range : t -> lo:int -> hi:int -> unit
(** [clear_range t ~lo ~hi] zeroes bits [\[lo, hi)] with whole-word stores
    (O(range/63) rather than O(range)).
    @raise Invalid_argument unless [0 <= lo <= hi <= length t]. *)

val unit : int -> int -> t
(** [unit len i] is the standard basis vector e_i. *)

val is_zero : t -> bool

val equal : t -> t -> bool

val xor_into : dst:t -> t -> unit
(** [xor_into ~dst src] sets [dst <- dst XOR src].  Lengths must match. *)

val dot : t -> t -> bool
(** Inner product over GF(2): parity of the AND.  Lengths must match. *)

val first_set : t -> int option
(** Index of the lowest set bit, if any. *)

val popcount : t -> int

val random : Rn_util.Rng.t -> int -> t
(** Uniformly random vector of the given length. *)

val of_bools : bool list -> t
val to_bools : t -> bool list

val to_string : t -> string
(** E.g. ["1011"], index 0 leftmost. *)

val of_string : string -> t
(** Inverse of [to_string].  @raise Invalid_argument on non-[01]
    characters. *)
