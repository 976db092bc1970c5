(** Random linear network coding over GF(2) (§3.3.1 of the paper).

    The [k] broadcast messages are bit vectors m₁…m_k ∈ F₂^l.  A coded
    packet carries a coefficient vector α ∈ F₂^k together with the linear
    combination Σ αᵢ·mᵢ ∈ F₂^l.  A node stores the packets it has received;
    whenever it is prompted to send, it transmits a fresh uniformly random
    combination of its stored packets; once the received coefficient vectors
    span F₂^k it reconstructs every message by Gaussian elimination.

    The module also implements the {e infection} notion used by the
    projection analysis (Definition 3.8): a node is infected by μ ∈ F₂^k if
    it holds a packet whose coefficient vector is not orthogonal to μ. *)

type packet = { coeffs : Bitvec.t; payload : Bitvec.t }
(** Coefficient vector of length [k], payload of length [l]. *)

val source_packet : msgs:Bitvec.t array -> int -> packet
(** [source_packet ~msgs i] is the uncoded packet for message [i]
    (coefficients = eᵢ). *)

val packet_of_coeffs : msgs:Bitvec.t array -> Bitvec.t -> packet
(** Build the packet a sender with full knowledge would produce for the
    given coefficient vector. *)

val packet_bits : packet -> int
(** Wire size of a coded packet: coefficient header plus payload.  With
    generation (batch) size [k = Θ(log n)] this is [Θ(log n) + payload]
    bits, the point of the paper's footnote 5 / §3.4 batching; coding over
    all [k] messages at once (the known-topology setting, where headers
    can be computed offline and omitted) would cost [k] header bits. *)

type t
(** Decoder / buffer state of one node. *)

val create : k:int -> msg_len:int -> t

val k : t -> int

val receive : t -> packet -> bool
(** Store a packet; returns [true] iff it was {e innovative} (increased the
    rank of the received coefficient space).  Malformed packets (wrong
    lengths) raise [Invalid_argument]. *)

val rank : t -> int

val can_decode : t -> bool
(** [rank t = k]. *)

val encode : Rn_util.Rng.t -> t -> packet option
(** A uniformly random packet from the span of the stored packets, [None]
    when nothing has been received yet.  The zero combination is permitted
    (it is a valid, vacuous packet), matching the model where a prompted
    node always transmits. *)

val decode : t -> Bitvec.t array option
(** All [k] messages, once [can_decode]. *)

val infected : t -> Bitvec.t -> bool
(** [infected t mu]: some stored coefficient vector has ⟨μ, c⟩ ≠ 0.
    Equivalent to μ not being orthogonal to the received span. *)

val seed_with_sources : t -> msgs:Bitvec.t array -> unit
(** Give a node (the source) all [k] messages at once. *)
