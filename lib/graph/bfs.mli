(** Breadth-first search, distances, diameter and connectivity.

    BFS layerings are the backbone of every construction in the paper: the
    GST is a ranked BFS tree (§2.1), the collision wave of §2.3 computes a
    BFS layering, and ring decompositions group consecutive BFS layers. *)

val levels : Graph.t -> src:int -> int array
(** [levels g ~src] gives the hop distance from [src] to every node; [-1]
    for unreachable nodes. *)

val multi_levels : Graph.t -> sources:int array -> int array
(** Hop distance to the nearest source ([-1] if unreachable); the layering
    used for ring-local GST forests, where every inner-boundary node is a
    root. *)

val levels_and_parents : Graph.t -> src:int -> int array * int array
(** As [levels], plus one BFS parent per node ([-1] for [src] and
    unreachable nodes).  The parent chosen is the smallest-id neighbor on
    the previous level (deterministic). *)

val eccentricity : Graph.t -> int -> int
(** Largest finite distance from the node.  @raise Invalid_argument if the
    graph is disconnected from that node. *)

val diameter : Graph.t -> int
(** Exact diameter by all-pairs BFS; intended for the simulation sizes used
    here (n ≤ a few thousand).  @raise Invalid_argument if disconnected. *)

val is_connected : Graph.t -> bool
(** A graph with no nodes counts as connected. *)

val by_level : int array -> int array array
(** [by_level keys] groups node ids by key in one [O(n + max key)] pass:
    [(by_level keys).(k)] lists the nodes [v] with [keys.(v) = k], in
    increasing id order, for every [k] in [0 .. max_level keys].  A key
    may be any non-negative int (a BFS level, a rank); [-1] means absent,
    and such a node is in no bucket. *)

val max_level : int array -> int
(** Largest entry of a level array (the depth of the layering); [-1] when
    empty. *)
