(** Minimal JSON helpers shared by the emitters in the tree (the campaign
    journal, the rblint JSON reports, the rbbench specs and results) and
    the line-oriented readers (the campaign journal, campaign spec
    files).  Pure string functions — callers own the channel.

    The dialect is deliberately tiny: one flat object per line whose
    values are scalars (null, bool, int, float, string) or arrays of
    integers.  That is exactly what the emitters below produce and what
    the journal and spec readers need; nesting or mixed arrays are a
    parse error, never a silent guess. *)

(** {1 Construction} *)

val escape : string -> string
(** [escape s] is the body of a JSON string literal encoding [s]: quote,
    backslash, and control characters (newline, tab, CR, backspace,
    form-feed named; the rest as [\u00XX]) are escaped.  Bytes
    [0x80..0xff] pass through verbatim, so the output is valid JSON
    exactly when [s] is valid UTF-8 — unlike OCaml's [%S], whose decimal
    escapes (backslash-221) are not JSON. *)

val quote : string -> string
(** [quote s] is [escape s] wrapped in double quotes: a complete JSON
    string literal. *)

val int_array : int list -> string
(** [int_array xs] is the compact JSON array of [xs], e.g. [[12,8,3]] —
    the shape of a spec's [seeds] line. *)

val obj : (string * string) list -> string
(** [obj fields] is the compact one-line JSON object whose keys are the
    field names (escaped) and whose values are the given strings spliced
    in {e verbatim} — callers pass already-rendered JSON ([quote s],
    [string_of_int n], [int_array xs], [float_lit f]). *)

val float_lit : float -> string
(** [float_lit f] is a decimal literal that [float_of_string] maps back
    to exactly [f] (shortest of %.15g/%.16g/%.17g; integral values as
    ["N.0"]).  [f] must be finite — JSON has no nan/infinity. *)

(** {1 Parsing} *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Ints of int list
      (** The only array shape the dialect admits: every element an
          integer literal. *)

val parse_obj : string -> ((string * value) list, string) result
(** [parse_obj line] parses one JSON object from [line], returning its
    fields in source order.  Accepts arbitrary surrounding whitespace
    and tolerates one trailing [','] (a record separator, as when each
    element of a JSON array sits on its own line); any other trailing bytes,
    nesting, or non-integer array elements yield [Error msg] with a byte
    offset.  Deterministic: the result depends only on [line].

    Pinned number semantics: an integral token (optional ['-'] then
    digits) is an [Int] and {e must} fit the native [int] — an
    out-of-range integer literal is an [Error], never a silently-lossy
    [Float] (journal merge compares [idx]/[rounds] by exact value).
    Tokens with ['.'/'e'/'E'] are [Float]s; a leading ['+'] is rejected
    (JSON forbids it; [int_of_string] does not).  Leading zeros are
    tolerated.

    Pinned string semantics: [\uXXXX] escapes decode to UTF-8;
    surrogate {e pairs} combine into one supplementary-plane scalar
    (4-byte UTF-8), and a lone or mispaired surrogate half is an
    [Error] — never CESU-8 bytes passed off as UTF-8.

    Pinned duplicate-key semantics: duplicated keys parse fine and are
    kept in source order; every accessor below resolves {e first-wins}.
    Journal-merge duplicate resolution relies on this being stable. *)

val mem : string -> (string * value) list -> value option
(** {e First} binding of the key (first-wins on duplicate keys; pinned —
    merge resolution depends on it), compared with [String.equal] (no
    polymorphic compare on the lookup path). *)

val int_mem : string -> (string * value) list -> int option
(** [Some i] iff the key is bound to [Int i]. *)

val float_mem : string -> (string * value) list -> float option
(** [Some f] for [Float f] bindings, and [Some (float_of_int i)] for
    [Int i] — numeric fields like [wall_s] print as [0] when exactly
    zero. *)

val str_mem : string -> (string * value) list -> string option
(** [Some s] iff the key is bound to [Str s]. *)

val bool_mem : string -> (string * value) list -> bool option
(** [Some b] iff the key is bound to [Bool b]. *)

val ints_mem : string -> (string * value) list -> int list option
(** [Some xs] iff the key is bound to [Ints xs]. *)
