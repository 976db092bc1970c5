(** Static undirected graphs.

    The radio network model of the paper (§1.1) is a synchronous network on
    an undirected graph [G = (V, E)]; this module is the immutable topology
    substrate every protocol runs on.  Nodes are integers [0 .. n-1].

    Adjacency is stored in compressed sparse row (CSR) form — one flat
    offsets array plus one flat targets array — so neighbor iteration is a
    contiguous slice walk with no per-node indirection. *)

type t

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds a graph on [n] nodes.  Self-loops and
    duplicate edges are dropped; endpoints must lie in [\[0, n)].
    @raise Invalid_argument on an out-of-range endpoint or [n < 0]. *)

module Builder : sig
  (** Incremental, list-free construction for large graphs.

      The list-based {!create} boxes every edge twice (a tuple inside a
      cons cell); at [n = 10⁶] that intermediate dominates generation time
      and heap.  A builder accumulates endpoints in one flat int array with
      amortized doubling and funnels through the same CSR finisher as
      {!create}, so [finish] yields a graph identical to
      [create ~n ~edges] for the same edge multiset. *)

  type b

  val create : ?capacity:int -> n:int -> unit -> b
  (** [create ~n ()] starts an empty builder for a graph on [n] nodes;
      [capacity] is an optional edge-count hint (the buffer grows as
      needed either way).  @raise Invalid_argument if [n < 0]. *)

  val add_edge : b -> int -> int -> unit
  (** [add_edge b u v] appends the undirected edge [(u, v)].  Self-loops
      and duplicates are accepted here and dropped by [finish], exactly as
      {!create} drops them.  @raise Invalid_argument if an endpoint is
      outside [\[0, n)]. *)

  val edge_count : b -> int
  (** Edges appended so far (before self-loop/duplicate dropping). *)

  val finish : b -> t
  (** Build the graph.  The builder may be reused afterwards (it is not
      consumed), though typical callers discard it. *)
end

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges. *)

val degree : t -> int -> int

val neighbors : t -> int -> int array
(** The neighbors of a node, sorted ascending, as a fresh array (the
    backing store is shared CSR; a copy is the only safe row view).
    Prefer [iter_neighbors]/[fold_neighbors] on hot paths. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val offsets : t -> int array
(** The physical CSR offsets array, length [n + 1] — do not mutate.  The
    neighbors of [v] are [targets.(offsets.(v)) .. targets.(offsets.(v+1) -
    1)], sorted ascending.  Exposed for allocation-free inner loops (the
    radio engine); everything else should use the iterators. *)

val targets : t -> int array
(** The physical CSR targets array, length [2m] — do not mutate. *)

val mem_edge : t -> int -> int -> bool
(** Edge test in O(log deg). *)

val edges : t -> (int * int) list
(** Each undirected edge once, as [(u, v)] with [u < v]. *)

val max_degree : t -> int

val induced_bipartite : t -> left:int array -> right:int array -> t * int array
(** [induced_bipartite g ~left ~right] extracts the bipartite graph [H]
    between the node sets [left] and [right] (edges inside a side are
    ignored, as in §2.2.2).  Returns the new graph — nodes of [left] come
    first, then [right] — and the mapping from new ids back to ids in
    [g]. *)
