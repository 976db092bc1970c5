(** Checkpoint journal lines.

    The journal is an append-only JSONL file: one object per finished
    cell, written (and flushed) by the campaign coordinator the moment
    the cell's result is drained.  Journal lines double as the campaign's
    output lines — resuming replays them verbatim, which is what makes a
    resumed run byte-identical to an uninterrupted one.

    Line shape (flat, in the {!Rn_util.Jsons} dialect):

    {v
    {"idx":17,"key":"89a0c2b4d6e8f001","cell":"grid(w=8,h=8)|decay|seed=3",
     "rounds":41,"delivered":true,"d_rounds":"41",...,"eor":123}
    v}

    [idx]/[key]/[cell]/[rounds]/[delivered] are fixed; each protocol
    detail [(name, value)] follows as a ["d_" ^ name] string field, in
    the protocol's stable order; the final ["eor"] field seals the
    record — its value is the byte length of the line {e before} the
    seal was appended, and it is written last.  Everything is a pure
    function of the cell and its result, so the line for a given cell is
    the same bytes on every run, schedule, and domain count. *)

val line :
  idx:int ->
  key:string ->
  cell:string ->
  rounds:int ->
  delivered:bool ->
  details:(string * string) list ->
  string
(** Render one journal/output line (no trailing newline). *)

val parse_line : string -> (int * string * int) option
(** [parse_line s] is [Some (idx, key, rounds)] when [s] is a complete,
    sealed journal line, [None] otherwise — a half-written trailing line
    from a killed run parses as [None] and is simply re-run on resume.

    Completeness is checked end-of-record, not field-by-field: the last
    field must be the ["eor"] seal and the line's byte length must match
    it, and all five fixed fields must be present.  A line truncated
    inside the details that still happens to close as valid JSON — or
    two torn halves glued together by an [O_APPEND] respawn — therefore
    cannot be mistaken for a finished cell by the shard-journal merge. *)

type verdict =
  | Torn  (** not a complete, sealed line ({!parse_line} is [None]) *)
  | Stale  (** sealed, but its index or key names no cell of the spec *)
  | Cell of { idx : int; rounds : int }
      (** the finished cell [idx], with its simulated rounds *)

val classify : Spec.cell array -> string -> verdict
(** [classify cells s] checks one journal line against a spec's cells:
    it is the cell's line only when it is sealed, its index is in range,
    and its key equals [cells.(idx).key].  Resume, the supervisor's
    progress count and the shard merge all read lines through it. *)
