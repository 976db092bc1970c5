(** Declarative campaign specifications.

    A campaign is the cross product (topology instances) × (protocols) ×
    (run seeds), written as a JSONL spec file — one object per line, in
    exactly the dialect {!Rn_util.Jsons.parse_obj} reads:

    {v
    # topology families; seeded generators expand per topology seed
    {"topo":"layered","depth":8,"width":32,"p":0.3,"seeds":[1,2]}
    {"topo":"grid","w":8,"h":8}
    # protocols, by registry name; "k" only for multi-message pipelines
    {"proto":"decay"}
    {"proto":"mmv","k":4}
    # run seeds (lines concatenate; default [1])
    {"seeds":[1,2,3]}
    v}

    Blank lines and lines starting with [#] are ignored.  Expansion is
    deterministic: instances in spec order (families in file order, then
    topology seeds in list order), cells in instance-major /
    seed-middle / protocol-minor order, so each seed's protocol
    comparison is contiguous in the output stream.

    Every cell carries a {e job key}: an FNV-1a 64-bit hash of its
    canonical label (e.g.
    [layered(depth=8,width=32,p=0.3,tseed=1)|mmv(k=4)|seed=2]) rendered
    as 16 hex digits.  The key names the cell in the checkpoint journal,
    and the cell's engine seed is derived from it — every cell draws from
    its own [Rng] stream, so results are independent of which lane or
    domain executes it. *)

type instance
(** One concrete topology: a generator plus fixed parameters (plus its
    topology seed when the generator is randomized).  Building is
    deterministic — equal instances yield byte-identical CSR graphs. *)

type cell = {
  idx : int;  (** position in expansion order; stable for a given spec *)
  topo : int;  (** index into {!instances} *)
  proto : string;  (** registry name; resolved by [Campaign.run] *)
  k : int option;  (** message count for multi-message protocols *)
  seed : int;  (** spec-level run seed (the sweep axis) *)
  label : string;  (** canonical human-readable cell description *)
  key : string;  (** 16-hex FNV-1a 64 of [label]: the journal job key *)
  run_seed : int;
      (** engine seed derived from [key] — the cell's private Rng stream,
          schedule- and domain-independent *)
}

type t

val parse : string -> (t, string) result
(** Parse a full spec file (the file {e contents}, not a path).  Errors
    carry the 1-based line number and reject unknown generators or
    parameters, topology seeds on deterministic generators, duplicate
    cells, and specs with no topology or no protocol. *)

val instances : t -> instance array
(** Fresh array of the distinct topology instances, in expansion order.
    [cell.topo] indexes it. *)

val cells : t -> cell array
(** Fresh array of all cells in expansion order ([cell.idx] equals the
    array index). *)

val instance_label : instance -> string
(** Canonical label, e.g. [disk(n=300,radius=0.12,tseed=1)] — the
    topology prefix of every cell label using it. *)

val build : instance -> Rn_graph.Graph.t
(** Generate the instance's graph.  Pure: randomized generators create
    their [Rng] from the instance's topology seed, so repeated builds are
    byte-identical — which is what lets the topology cache and the
    cache-off path produce identical results. *)
