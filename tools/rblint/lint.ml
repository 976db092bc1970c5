(* rblint — repo-specific static analysis for the radio-broadcast simulator.

   v2: the analysis runs on the *typed* AST.  The CLI reads the `.cmt`
   files dune already emits (`-bin-annot`), so every identifier arrives as
   a resolved [Path.t] (aliases and `open`s are seen through) and every
   expression carries its inferred type.  A second frontend typechecks a
   source string in-process (stdlib-only scope) so the fixture self-tests
   stay hermetic.  Enforced invariants (DESIGN.md §8–§9):

     R1  no [Stdlib.Random] outside lib/util/rng.ml — all randomness must
         flow through the seeded SplitMix64 [Rng] so every trial replays
         from one integer seed.
     R2  no polymorphic comparison inside lib/util, lib/graph, lib/core,
         lib/radio, lib/obs: bare [compare], [Hashtbl.hash], the generic
         [Hashtbl] lookups/updates and [List.mem]/[assoc]/[mem_assoc]
         (polymorphic hash or compare inside), comparison operators
         used as values, and — now that operand *types* are visible — any
         [=]/[<]/… whose operands are not of a type the compiler
         specializes (int, char, bool, unit, float, string, bytes,
         int32, int64, nativeint).
     R3  no [Obj.magic] / [Obj.repr] (any use of [Obj]) anywhere.
     R4  no console output from lib/ — library code returns data; only
         bin/, bench/ and examples/ print.
     R5  no [List.*] traversal and no closure-allocating [Array]
         iteration inside a function tagged [@@zero_alloc_hot]; callees
         are resolved through module aliases and [open]s.
     R6  no top-level mutable state ([ref] cells, arrays, [Bytes],
         [Hashtbl]/[Buffer]/[Queue]/[Stack], records with mutable
         fields) in a module reachable from a [Domain.spawn] worker,
         unless it is an [Atomic.t] or explicitly suppressed.
     R7  no closure passed to [Domain.spawn] may capture (directly or
         through a locally defined worker function) non-atomic mutable
         state.

   v3 adds three interprocedural rules.  The traversal below doubles as
   a fact collector (call-graph nodes, call edges with Rng-carrying
   argument slots, nondeterministic-source uses, spawn captures, stream
   bindings — see [Callgraph.unit_facts]); the cross-unit analyses live
   in callgraph.ml and run at [finalize_full] time:

     R8  no nondeterministic source (wall clock, [Domain] identity, [Gc]
         statistics, [Hashtbl] iteration order) may flow, across calls,
         into functions defined under lib/ — sanctioned sinks are listed
         in one table in callgraph.ml.
     R9  every unsafe indexed access ([Array]/[Bytes]/[String]/[Bitvec]/
         [Float.Array] [unsafe_get]/[set]/…) must be dominated in its
         enclosing function by a bounds guard (length-derived for bound,
         if/while comparison, or raising precondition), or carry a
         reasoned allow.  Checked per unit, everywhere.
     R10 every [Rng.t] stream has exactly one owner: not captured by two
         [Domain.spawn] closures, not reused by the parent after a
         handoff (judged through *consuming* parameter slots over the
         call graph), not stored in top-level module state.

   v4 adds the engine protocol-contract rules (R11 silence purity of
   [deliver], R12 per-node write locality of [decide]/[deliver], R14
   registry coverage; R13, the purity of the retired skip hint, is not
   reused).  The traversal additionally collects mutable-store
   primitives (with silence-region and node-locality flags) and
   [Engine.protocol] record constructions (whose callback closures
   become synthetic call-graph nodes); callgraph.ml holds the
   verdicts.

   Findings print as "file:line:col RULE message".  A finding is
   suppressed by an inline [rblint:allow RULE reason] comment marker —
   the marker must open its comment — placed on, or one line above, the
   finding's line or any enclosing-expression start line (so one marker
   above a multi-line definition covers the findings inside it).  A
   suppression with an empty reason is itself an error (R0) and
   suppresses nothing; a suppression that suppresses nothing is *stale*
   and fails [rblint --audit] (audit.ml renders the ledger). *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
  anchors : int list;
      (** start lines of the enclosing non-ghost expressions: an allow
          marker on (or one line above) any of them suppresses the
          finding, so one marker above a multi-line definition covers
          every finding inside it *)
}

let pp_finding f = Printf.sprintf "%s:%d:%d %s %s" f.file f.line f.col f.rule f.msg

let json_of_finding f =
  Printf.sprintf
    "{ \"file\": %s, \"line\": %d, \"col\": %d, \"rule\": %s, \"msg\": %s }"
    (Rn_util.Jsons.quote f.file) f.line f.col
    (Rn_util.Jsons.quote f.rule)
    (Rn_util.Jsons.quote f.msg)

(* ------------------------------------------------------------------ *)
(* Path scoping                                                        *)

(* Normalize away leading "./" and backslashes so scope checks work on the
   paths dune hands us as well as plain CLI paths. *)
let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let has_dir ~dir path =
  let path = normalize path and dir = dir ^ "/" in
  let n = String.length path and d = String.length dir in
  (n >= d && String.sub path 0 d = dir)
  ||
  let infix = "/" ^ dir in
  let di = String.length infix in
  let rec scan i =
    i + di <= n && (String.sub path i di = infix || scan (i + 1))
  in
  scan 0

let is_rng_ml path =
  let path = normalize path in
  let suffix = "lib/util/rng.ml" in
  let n = String.length path and s = String.length suffix in
  n >= s
  && String.sub path (n - s) s = suffix
  && (n = s || path.[n - s - 1] = '/')

let r2_scope path =
  List.exists
    (fun d -> has_dir ~dir:d path)
    [ "lib/util"; "lib/graph"; "lib/core"; "lib/radio"; "lib/obs" ]

let r4_scope path = has_dir ~dir:"lib" path

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)

type allow = { a_line : int; a_rule : string; a_reason : string }

(* Scan raw source for [rblint:allow RULE reason] markers.  The typed tree
   drops comments, so this is a plain text scan.  A marker must open its
   comment — the text before it on the line has to end with the comment
   opener — so prose that merely *mentions* the grammar (rule messages,
   docs, this comment) is not itself a marker. *)
let collect_allows source =
  let allows = ref [] in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun i line ->
      let lno = i + 1 in
      let key = "rblint:allow" in
      let opens_comment upto =
        let rec last j = if j >= 0 && line.[j] = ' ' then last (j - 1) else j in
        let j = last (upto - 1) in
        j >= 1 && line.[j] = '*' && line.[j - 1] = '('
      in
      match
        let kl = String.length key in
        let rec find j =
          if j + kl > String.length line then None
          else if String.sub line j kl = key && opens_comment j then
            Some (j + kl)
          else find (j + 1)
        in
        find 0
      with
      | None -> ()
      | Some start ->
          let stop =
            let rec find j =
              if j + 2 > String.length line then String.length line
              else if String.sub line j 2 = "*)" then j
              else find (j + 1)
            in
            find start
          in
          let body = String.trim (String.sub line start (stop - start)) in
          let rule, reason =
            match String.index_opt body ' ' with
            | None -> (body, "")
            | Some sp ->
                ( String.sub body 0 sp,
                  String.trim
                    (String.sub body (sp + 1) (String.length body - sp - 1)) )
          in
          allows := { a_line = lno; a_rule = rule; a_reason = reason } :: !allows)
    lines;
  List.rev !allows

(* Split allows into R0 findings (malformed: missing rule or reason) and the
   valid list. *)
let validate_allows ~file allows =
  let invalid =
    List.filter_map
      (fun a ->
        if a.a_rule = "" || a.a_reason = "" then
          Some
            {
              file;
              line = a.a_line;
              col = 0;
              rule = "R0";
              msg = "rblint:allow needs a rule and a non-empty reason";
              anchors = [];
            }
        else None)
      allows
  in
  let valid = List.filter (fun a -> a.a_rule <> "" && a.a_reason <> "") allows in
  (invalid, valid)

(* A marker suppresses a finding when it sits on — or one line above — the
   finding's own line or any enclosing-expression start line (the
   finding's anchors).  R0 (malformed marker) is never suppressible. *)
let allow_matches a f =
  f.rule <> "R0" && a.a_rule = f.rule
  && List.exists
       (fun l -> a.a_line = l || a.a_line = l - 1)
       (f.line :: f.anchors)

let filter_allowed ?on_use valid findings =
  List.filter
    (fun f ->
      match List.find_opt (fun a -> allow_matches a f) valid with
      | Some a ->
          (match on_use with Some mark -> mark a | None -> ());
          false
      | None -> true)
    findings

(* ------------------------------------------------------------------ *)
(* Typed-AST analysis                                                  *)

open Typedtree

type unit_info = {
  u_path : string;  (** normalized source path, used for scoping *)
  u_modname : string;  (** compilation-unit name, e.g. "Rn_radio__Runner" *)
  u_imports : string list;  (** unit names this module depends on *)
  u_spawns : bool;  (** contains a [Domain.spawn] occurrence *)
  u_findings : finding list;
      (** raw unit-local findings (R0–R5, R7, R9, R10 storage) —
          suppressions applied at [finalize_full] time *)
  u_r6 : finding list;  (** R6 candidates — filtered at [finalize] time *)
  u_allows : allow list;  (** valid suppressions *)
  u_facts : Callgraph.unit_facts;  (** call-graph facts for R8/R10 *)
}

let loc_finding ~file (loc : Location.t) rule msg =
  let p = loc.Location.loc_start in
  { file; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; rule; msg;
    anchors = [] }

let poly_ops = [ "="; "<"; ">"; "<="; ">="; "<>" ]

(* Resolve a path through locally-seen module aliases (module L = List), so
   [L.map] compares equal to [Stdlib.List.map]. *)
let rec resolve_alias aliases p =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt aliases id with
      | Some p' -> resolve_alias aliases p'
      | None -> p)
  | Path.Pdot (p', s) -> Path.Pdot (resolve_alias aliases p', s)
  | _ -> p

(* Flatten a resolved path to its component names, root first: the path of
   [Random.int] becomes ["Stdlib"; "Random"; "int"].  Requiring the
   "Stdlib" root makes the checks robust against local shadowing (a
   module-local [compare] is a [Pident] without the root).  Components are
   split on dune's name-mangling separator — [Ctype.expand_head] (and some
   cross-library references) canonicalize [Rn_radio.Engine] to the single
   component [Rn_radio__Engine], which would otherwise defeat every
   module-name suffix match. *)
let demangle parts = List.concat_map Callgraph.key_of_modname parts

let parts_of aliases p =
  match Path.flatten (resolve_alias aliases p) with
  | `Ok (id, rest) -> demangle (Ident.name id :: rest)
  | `Contains_apply -> []

(* --- type classification ------------------------------------------- *)

(* Rehydrate the (summarized) environment stored in a cmt so abbreviations
   expand and type declarations resolve; fall back to the raw env when the
   load path cannot serve a module. *)
let real_env env = try Envaux.env_of_only_summary env with _ -> env

let expand env ty = try Ctype.expand_head env ty with _ -> ty

let type_to_string ty =
  try Format.asprintf "%a" Printtyp.type_expr ty with _ -> "_"

(* Types whose comparisons the compiler specializes to primitive calls
   (Translcore's comparison table): polymorphic [=] on these costs no
   caml_compare dispatch, so R2 leaves them alone. *)
let specialized_paths =
  [
    Predef.path_int; Predef.path_char; Predef.path_bool; Predef.path_unit;
    Predef.path_float; Predef.path_string; Predef.path_bytes;
    Predef.path_int32; Predef.path_int64; Predef.path_nativeint;
  ]

let comparison_specialized env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tconstr (p, _, _) -> List.exists (Path.same p) specialized_paths
  | _ -> false

(* [Stdlib.min]/[max] get a narrower allowlist than the comparison
   operators: immediate types only.  Float is specialized for [=]/[<] but
   min/max on float is still wrong — the polymorphic [<=] inside them is
   false for every NaN operand, so the result depends on operand order and
   disagrees with a Float.compare-based fold (the Stats.summarize bug this
   rule extension flushed out). *)
let immediate_paths =
  [ Predef.path_int; Predef.path_char; Predef.path_bool; Predef.path_unit ]

let comparison_immediate env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tconstr (p, _, _) -> List.exists (Path.same p) immediate_paths
  | _ -> false

let minmax_msg op ty =
  "polymorphic " ^ op ^ " at type " ^ ty
  ^ ": NaN-unsafe on float (order-dependent, disagrees with Float.compare) \
     and unspecialized on boxed types — use an explicit Float.compare-based \
     fold or a monomorphic min/max"

let type_parts p =
  match Path.flatten p with
  | `Ok (id, rest) -> (
      match demangle (Ident.name id :: rest) with
      | "Stdlib" :: rest when rest <> [] -> rest
      | parts -> parts)
  | `Contains_apply -> []

(* Shared-mutability classification of a value's type, used by R6/R7.
   [`Atomic] is the sanctioned cross-domain cell; [`Mutable what] is
   anything a second domain could race on.  [local] maps an
   [Ident.unique_name] to a mutability description for type declarations
   local to the unit under analysis: when a cmt's summarized environment
   cannot serve the declaration ([real_env] fell back), the typedtree's
   own [Tstr_type] items are still authoritative. *)
let rec mutability ?(local = fun _ -> None) env ty =
  let ty = expand env ty in
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      if
        Path.same p Predef.path_array
        || Path.same p Predef.path_bytes
        || Path.same p Predef.path_floatarray
      then `Mutable "array/bytes"
      else
        match type_parts p with
        | [ "Atomic"; "t" ] -> `Atomic
        | [ "ref" ] -> `Mutable "ref cell"
        | [ "Hashtbl"; "t" ] -> `Mutable "hash table"
        | [ "Buffer"; "t" ] -> `Mutable "buffer"
        | [ "Queue"; "t" ] -> `Mutable "queue"
        | [ "Stack"; "t" ] -> `Mutable "stack"
        | [ "Random"; "State"; "t" ] -> `Mutable "PRNG state"
        | _ -> (
            let from_decls () =
              match p with
              | Path.Pident id -> (
                  match local (Ident.unique_name id) with
                  | Some what -> `Mutable what
                  | None -> `Immutable)
              | _ -> `Immutable
            in
            match Env.find_type p env with
            | decl -> (
                match decl.Types.type_kind with
                | Types.Type_record (lbls, _)
                  when List.exists
                         (fun l -> l.Types.ld_mutable = Asttypes.Mutable)
                         lbls ->
                    `Mutable "record with mutable fields"
                | _ -> `Immutable)
            | exception _ -> from_decls ()))
  | Types.Tpoly (ty, _) -> mutability ~local env ty
  | _ -> `Immutable

let is_function_type env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tarrow _ -> true
  | _ -> false

(* --- per-structure analysis ---------------------------------------- *)

let closure_alloc_array_fns =
  [ "iter"; "iteri"; "map"; "mapi"; "fold_left"; "fold_right"; "to_list";
    "of_list" ]

let print_fns =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_int";
    "prerr_float"; "prerr_bytes"; "stdout"; "stderr";
  ]

let formatted_print_fns =
  [
    "printf"; "eprintf"; "pr"; "epr"; "print_string"; "print_newline";
    "print_flush"; "std_formatter"; "err_formatter"; "stdout"; "stderr";
  ]

(* Analyze one typed structure.  Returns
   (findings, r6 candidates, spawns, call-graph facts). *)
let analyze ~path ~modname str =
  let file = normalize path in
  let findings = ref [] in
  let r6 = ref [] in
  let spawns = ref false in
  (* Start lines of the enclosing non-ghost expressions, innermost first.
     Findings snapshot this so a suppression above a multi-line definition
     covers findings at inner lines. *)
  let anchor_stack = ref [] in
  let emit loc rule msg =
    findings :=
      { (loc_finding ~file loc rule msg) with anchors = !anchor_stack }
      :: !findings
  in
  let emit_r6 ~anchors loc msg =
    r6 := { (loc_finding ~file loc "R6" msg) with anchors } :: !r6
  in
  let in_r2 = r2_scope file and in_r4 = r4_scope file in
  let in_lib = Callgraph.in_lib file in
  let rng_exempt = is_rng_ml file in
  let hot = ref 0 in
  let guard = ref 0 in (* R9: > 0 inside a bounds-guarded context *)
  let in_spawn = ref 0 in (* inside a Domain.spawn argument *)
  let aliases : (Ident.t, Path.t) Hashtbl.t = Hashtbl.create 16 in
  (* Map of every let-bound ident to its definition, so a worker function
     passed to Domain.spawn can be expanded one level for R7. *)
  let val_defs : (Ident.t, expression) Hashtbl.t = Hashtbl.create 64 in
  (* Unit-local type declarations with mutable contents, keyed by
     [Ident.unique_name]; serves [mutability] when the cmt env cannot. *)
  let local_mut_types : (string, string) Hashtbl.t = Hashtbl.create 16 in
  (* --- call-graph fact accumulators -------------------------------- *)
  let unit_key = Callgraph.key_of_modname modname in
  let cur_node = ref (unit_key @ [ "<init>" ]) in
  let stamp id = Ident.unique_name id in
  let val_keys : (string, Callgraph.key) Hashtbl.t = Hashtbl.create 64 in
  let mod_keys : (string, Callgraph.key) Hashtbl.t = Hashtbl.create 16 in
  let nodes = ref [] in
  let raw_refs = ref [] in
  (* (caller, path, line, rng args) — resolved to keys after the walk so
     [let rec ... and ...] forward references land on registered stamps *)
  let nondet = ref [] in
  let spawn_caps = ref [] in
  let occs = ref [] in
  let binds = ref [] in
  let writes = ref [] in
  let raw_protos = ref [] in
  (* (node, line, anchors, decide target, deliver target) with targets
     still unresolved ([`Key] for synthetic callback nodes, [`Path] for
     identifier fields) *)
  (* R11 silence regions: > 0 inside the rhs of a reception-match arm that
     cannot match [Silence] — effects there never run on a Silence
     delivery. *)
  let nonsil = ref 0 in
  (* R12 node scopes: one table per enclosing [~node]-parameter function,
     innermost first, holding the idents the analysis considers
     node-derived (the parameter, bindings computed from it, node-local
     scratch allocations). *)
  let scopes : (Ident.t, unit) Hashtbl.t list ref = ref [] in
  let loc_line (loc : Location.t) = loc.Location.loc_start.pos_lnum in
  let record_ref ?(rng_args = []) ?(fwd = false) p loc =
    raw_refs :=
      ( !cur_node,
        resolve_alias aliases p,
        loc_line loc,
        rng_args,
        !nonsil = 0,
        fwd,
        !scopes <> [] )
      :: !raw_refs
  in
  (* --- Rng typing -------------------------------------------------- *)
  let is_rng_t env ty =
    match Types.get_desc (expand env ty) with
    | Types.Tconstr (p, _, _) -> (
        match List.rev (type_parts p) with
        | "t" :: "Rng" :: _ -> true
        | _ -> false)
    | _ -> false
  in
  (* Does the (non-arrow) type carry an Rng stream anywhere inside?  Used
     for the R10 top-level-storage check; arrows are not traversed — a
     function taking or returning a stream is fine. *)
  let rec mentions_rng env ty =
    match Types.get_desc (expand env ty) with
    | Types.Tconstr (p, args, _) -> (
        match List.rev (type_parts p) with
        | "t" :: "Rng" :: _ -> true
        | _ -> List.exists (mentions_rng env) args)
    | Types.Ttuple ts -> List.exists (mentions_rng env) ts
    | Types.Tpoly (t, _) -> mentions_rng env t
    | _ -> false
  in
  (* --- R11/R12 protocol-contract fact helpers ----------------------- *)
  let ty_suffix env ty suffix =
    match Types.get_desc (expand env ty) with
    | Types.Tconstr (p, _, _) -> (
        match List.rev (type_parts p) with
        | last :: up :: _ -> last = suffix && up = "Engine"
        | _ -> false)
    | _ -> false
  in
  let is_reception_type env ty = ty_suffix env ty "reception" in
  let is_protocol_type env ty = ty_suffix env ty "protocol" in
  (* Can this reception-match pattern bind a [Silence] delivery? *)
  let rec pat_can_silence : type k. k general_pattern -> bool =
   fun p ->
    match p.pat_desc with
    | Tpat_construct (_, cd, _, _) -> cd.Types.cstr_name = "Silence"
    | Tpat_or (a, b, _) -> pat_can_silence a || pat_can_silence b
    | Tpat_alias (q, _, _) -> pat_can_silence q
    | Tpat_value v -> pat_can_silence (v :> value general_pattern)
    | Tpat_exception _ -> false
    | _ -> true (* var/any/...: conservatively may be Silence *)
  in
  (* Stamps of local idents used as decide/deliver fields of a protocol
     record ([{ Engine.decide; deliver }] punning a local let).  Filled by
     a cheap pre-scan; the main walk gives such bindings their own
     synthetic call-graph node so their effects are separable from the
     constructing function's. *)
  let callback_stamps : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let local_cb : (string, Callgraph.key) Hashtbl.t = Hashtbl.create 16 in
  let in_scope id = List.exists (fun tbl -> Hashtbl.mem tbl id) !scopes in
  (* Does the expression mention any node-derived ident?  Used for write
     targets, call arguments (forwarding trust) and derived-binding
     propagation. *)
  let mentions_scoped e =
    let found = ref false in
    let iter0 = Tast_iterator.default_iterator in
    let look it e' =
      (match e'.exp_desc with
      | Texp_ident (Path.Pident id, _, _) when in_scope id -> found := true
      | _ -> ());
      if not !found then iter0.expr it e'
    in
    let it = { iter0 with expr = look } in
    look it e;
    !found
  in
  (* Is this RHS a fresh allocation?  Such a binding inside a node scope is
     node-local scratch: writes through it cannot alias another node's
     state. *)
  let is_allocating e =
    match e.exp_desc with
    | Texp_array _ | Texp_record _ -> true
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
        match parts_of aliases p with
        | [ "Stdlib"; "ref" ] -> true
        | [ "Stdlib"; "Array";
            ( "make" | "init" | "create_float" | "make_matrix" | "copy"
            | "of_list" | "append" | "sub" | "concat" ) ] ->
            true
        | [ "Stdlib"; "Bytes"; ("create" | "make" | "init" | "copy" | "sub") ]
          ->
            true
        | [ "Stdlib"; ("Hashtbl" | "Buffer" | "Queue" | "Stack"); "create" ] ->
            true
        | parts -> (
            match List.rev parts with
            | ("create" | "split" | "split_n" | "copy") :: "Rng" :: _ -> true
            | _ -> false))
    | _ -> false
  in
  let record_write ?(atomic = false) ~node_ok ~desc loc =
    writes :=
      {
        Callgraph.w_node = !cur_node;
        w_line = loc_line loc;
        w_desc = desc;
        w_sil = !nonsil = 0;
        w_atomic = atomic;
        w_node_ok = node_ok;
        w_in_scope = !scopes <> [];
        w_anchors = !anchor_stack;
      }
      :: !writes
  in
  (* Mutable-store primitives: parts -> (description, is-atomic).  The
     locality verdict checks whether *any* argument mentions a
     node-derived ident (covering both [a.(node) <- x] container+index
     shapes and [Hashtbl.replace tbl node v]); [Rng] consumption is
     judged from call edges, not here. *)
  let write_prim parts =
    match parts with
    | [ "Stdlib"; ":=" ] -> Some (":=", false)
    | [ "Stdlib"; (("incr" | "decr") as f) ] -> Some (f, false)
    | [ "Stdlib"; "Array";
        (("set" | "unsafe_set" | "fill" | "blit" | "sort") as f) ] ->
        Some ("Array." ^ f, false)
    | [ "Stdlib"; "Bytes";
        (("set" | "unsafe_set" | "fill" | "blit" | "blit_string") as f) ] ->
        Some ("Bytes." ^ f, false)
    | [ "Stdlib"; "Hashtbl";
        (("replace" | "add" | "remove" | "clear" | "reset") as f) ] ->
        Some ("Hashtbl." ^ f, false)
    | [ "Stdlib"; "Buffer"; f ]
      when List.mem f [ "clear"; "reset"; "truncate" ]
           || (String.length f > 4 && String.sub f 0 4 = "add_") ->
        Some ("Buffer." ^ f, false)
    | [ "Stdlib"; "Queue";
        (("push" | "add" | "pop" | "take" | "clear" | "transfer") as f) ] ->
        Some ("Queue." ^ f, false)
    | [ "Stdlib"; "Stack"; (("push" | "pop" | "clear") as f) ] ->
        Some ("Stack." ^ f, false)
    | [ "Stdlib"; "Atomic";
        (( "set" | "incr" | "decr" | "fetch_and_add" | "exchange"
         | "compare_and_set" ) as f) ] ->
        Some ("Atomic." ^ f, true)
    | _ -> (
        match List.rev parts with
        | (( "set" | "fill" | "clear" | "unsafe_set" | "unsafe_fill"
           | "unsafe_clear" | "xor_into" ) as f)
          :: "Bitvec" :: _ ->
            Some ("Bitvec." ^ f, false)
        | _ -> None)
  in
  (* --- R9 bounds-guard heuristics ---------------------------------- *)
  let name_has_len s =
    let s = String.lowercase_ascii s in
    let n = String.length s in
    let rec scan i = i + 3 <= n && (String.sub s i 3 = "len" || scan (i + 1)) in
    scan 0
  in
  (* Is this expression derived from a container length?  A [*.length]
     call, an identifier or record field whose name mentions "len", or —
     one definition-chase deep — a local bound to such an expression. *)
  let rec length_derived depth e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        match List.rev (parts_of aliases p) with
        | ("length" | "dim") :: _ -> true
        | _ ->
            List.exists
              (fun (_, eo) ->
                match eo with
                | Some a -> length_derived depth a
                | None -> false)
              args)
    | Texp_ident (Path.Pident id, _, _) ->
        name_has_len (Ident.name id)
        || depth > 0
           && (match Hashtbl.find_opt val_defs id with
              | Some def -> length_derived (depth - 1) def
              | None -> false)
    | Texp_ident (p, _, _) -> name_has_len (Path.last p)
    | Texp_field (e', _, lbl) ->
        name_has_len lbl.Types.lbl_name || length_derived depth e'
    | _ -> false
  in
  let raising_fns = [ "invalid_arg"; "failwith"; "raise"; "raise_notrace" ] in
  let raises e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
        match parts_of aliases p with
        | [ "Stdlib"; f ] -> List.mem f raising_fns
        | _ -> false)
    | Texp_assert _ -> true
    | _ -> false
  in
  (* A statement that, once control passes it, proves a length-derived
     bound for the rest of the sequence: [if cond then invalid_arg ...] or
     [assert cond] with a length-derived condition. *)
  let seq_guard e =
    match e.exp_desc with
    | Texp_ifthenelse (cond, th, el) ->
        length_derived 1 cond
        && (raises th || match el with Some e' -> raises e' | None -> false)
    | Texp_assert (e', _) -> length_derived 1 e'
    | _ -> false
  in
  let unsafe_op parts =
    match List.rev parts with
    | fn :: m :: _
      when List.mem fn
             [ "unsafe_get"; "unsafe_set"; "unsafe_clear"; "unsafe_fill";
               "unsafe_blit" ]
           && List.mem m [ "Array"; "Bytes"; "String"; "Bitvec"; "Floatarray" ]
      ->
        Some (m ^ "." ^ fn)
    | _ -> None
  in
  let check_ident loc parts =
    (match Callgraph.nondet_of_parts parts with
    | Some src ->
        nondet :=
          { Callgraph.d_node = !cur_node; d_src = src; d_line = loc_line loc }
          :: !nondet
    | None -> ());
    (match parts with
    | "Stdlib" :: "Random" :: _ when not rng_exempt ->
        emit loc "R1"
          "Stdlib.Random is banned: draw through the seeded Rng (SplitMix64) \
           so runs replay from one seed"
    | _ -> ());
    (match parts with
    | "Stdlib" :: "Obj" :: _ ->
        emit loc "R3" "Obj.magic/Obj.repr break abstraction and memory safety"
    | _ -> ());
    (if in_r2 then
       match parts with
       | [ "Stdlib"; "compare" ] ->
           emit loc "R2"
             "polymorphic compare: use a monomorphic comparator \
              (Int.compare, Float.compare, ...)"
       | [ "Stdlib"; "Hashtbl"; "hash" ] ->
           emit loc "R2" "polymorphic Hashtbl.hash: hash a concrete key type"
       | [ "Stdlib"; "Hashtbl";
           (("find" | "find_opt" | "mem" | "replace" | "add" | "remove") as fn) ]
         ->
           emit loc "R2"
             ("generic Hashtbl." ^ fn
            ^ " hashes and compares keys polymorphically (caml_hash + \
               caml_compare): use a Hashtbl.Make instance or an array \
               indexed by node")
       | [ "Stdlib"; "List";
           (("mem" | "assoc" | "assoc_opt" | "mem_assoc" | "remove_assoc") as fn) ]
         ->
           emit loc "R2"
             ("List." ^ fn
            ^ " compares with polymorphic equality: use List.exists with a \
               monomorphic equal, or a mark array")
       | _ -> ());
    if in_r4 then begin
      (match parts with
      | [ "Stdlib"; p ] when List.mem p print_fns ->
          emit loc "R4"
            ("console output from lib/ (" ^ p
           ^ "): return data and let bin/bench/examples print")
      | _ -> ());
      match parts with
      | [ "Stdlib"; ("Printf" | "Format"); fn ] | [ "Fmt"; fn ]
        when List.mem fn formatted_print_fns ->
          emit loc "R4"
            "console output from lib/: return data and let bin/bench/examples \
             print"
      | _ -> ()
    end;
    if !hot > 0 then
      match parts with
      | "Stdlib" :: "List" :: _ ->
          emit loc "R5"
            "List traversal inside [@@zero_alloc_hot]: lists allocate; use \
             preallocated arrays and indices"
      | [ "Stdlib"; "Array"; fn ] when List.mem fn closure_alloc_array_fns ->
          emit loc "R5"
            ("closure-allocating Array." ^ fn
           ^ " inside [@@zero_alloc_hot]: use an explicit for-loop")
      | _ -> ()
  in
  (* R7: walk the expression passed to Domain.spawn; any free ident of
     non-atomic mutable type is shared writable state crossing the domain
     boundary.  Worker functions bound in the same unit are expanded one
     level so [Domain.spawn (worker i)] is seen through. *)
  let check_spawn_arg spawn_loc arg =
    let bound : (Ident.t, unit) Hashtbl.t = Hashtbl.create 32 in
    let expanded : (Ident.t, unit) Hashtbl.t = Hashtbl.create 8 in
    let caps = ref [] in
    let iter = Tast_iterator.default_iterator in
    let pat_hook : type k. Tast_iterator.iterator -> k general_pattern -> unit
        =
     fun it p ->
      List.iter (fun id -> Hashtbl.replace bound id ()) (pat_bound_idents p);
      iter.pat it p
    in
    let rec expr_hook it e =
      (match e.exp_desc with
      | Texp_for (id, _, _, _, _, _) -> Hashtbl.replace bound id ()
      | _ -> ());
      (match e.exp_desc with
      | Texp_ident (p, _, _) -> (
          let env = real_env e.exp_env in
          let free_local id = not (Hashtbl.mem bound id) in
          (* R10 fact: Rng streams crossing the domain boundary *)
          (match p with
          | Path.Pident id
            when free_local id
                 && is_rng_t env e.exp_type
                 && not (List.mem (stamp id) !caps) ->
              caps := stamp id :: !caps
          | _ -> ());
          let flag what =
            emit e.exp_loc "R7"
              ("closure passed to Domain.spawn captures non-atomic mutable \
                state `" ^ Path.name p ^ "` (" ^ what ^ " : "
              ^ type_to_string e.exp_type
              ^ "): share through Atomic.t, or prove exclusive ownership and \
                 suppress with a reasoned rblint:allow R7 marker")
          in
          let local = Hashtbl.find_opt local_mut_types in
          match p with
          | Path.Pident id when free_local id -> (
              match mutability ~local env e.exp_type with
              | `Mutable what -> flag what
              | `Atomic | `Immutable ->
                  if
                    is_function_type env e.exp_type
                    && not (Hashtbl.mem expanded id)
                  then
                    match Hashtbl.find_opt val_defs id with
                    | Some def ->
                        Hashtbl.replace expanded id ();
                        expr_hook it def
                    | None -> ())
          | Path.Pident _ -> ()
          | _ -> (
              (* Cross-module mutable state referenced from a worker. *)
              match mutability ~local env e.exp_type with
              | `Mutable what -> flag what
              | `Atomic | `Immutable -> ()))
      | _ -> ());
      iter.expr it e
    in
    let it = { iter with expr = expr_hook; pat = pat_hook } in
    expr_hook it arg;
    spawn_caps :=
      {
        Callgraph.s_node = !cur_node;
        s_line = loc_line spawn_loc;
        s_caps = !caps;
      }
      :: !spawn_caps
  in
  (* R6 candidates: mutable state constructed while initializing a
     top-level binding.  Function bodies are skipped — cells created per
     call are not shared — and Atomic.make is the sanctioned escape. *)
  let scan_top_rhs ~anchors rhs =
    let iter = Tast_iterator.default_iterator in
    let rec expr_hook it e =
      match e.exp_desc with
      | Texp_function _ -> ()
      | Texp_array _ ->
          emit_r6 ~anchors e.exp_loc
            "top-level array literal is cross-domain mutable state: use \
             Atomic.t, immutable data, or a reasoned rblint:allow R6 marker";
          iter.expr it e
      | Texp_record { fields; _ }
        when Array.exists
               (fun (l, _) -> l.Types.lbl_mut = Asttypes.Mutable)
               fields ->
          emit_r6 ~anchors e.exp_loc
            "top-level record with mutable fields is cross-domain mutable \
             state: use Atomic.t, immutable data, or a reasoned \
             rblint:allow R6 marker";
          iter.expr it e
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
          let parts = parts_of aliases p in
          let ctor what =
            emit_r6 ~anchors e.exp_loc
              ("top-level mutable state (" ^ what
             ^ ") in a module reachable from a Domain.spawn worker: use \
                Atomic.t or document domain safety with a reasoned \
                rblint:allow R6 marker")
          in
          match parts with
          | [ "Stdlib"; "Atomic"; "make" ] -> ()
          | [ "Stdlib"; "ref" ] -> ctor "ref cell"
          | [ "Stdlib"; "Array";
              ( "make" | "init" | "create_float" | "make_matrix" | "copy"
              | "of_list" | "append" | "sub" | "concat" ) ] ->
              ctor "array"
          | [ "Stdlib"; "Bytes";
              ("create" | "make" | "init" | "of_string" | "copy" | "sub") ] ->
              ctor "bytes"
          | [ "Stdlib"; "Hashtbl"; "create" ] -> ctor "hash table"
          | [ "Stdlib"; "Buffer"; "create" ] -> ctor "buffer"
          | [ "Stdlib"; "Queue"; "create" ] -> ctor "queue"
          | [ "Stdlib"; "Stack"; "create" ] -> ctor "stack"
          | _ ->
              List.iter (fun (_, eo) -> Option.iter (expr_hook it) eo) args)
      | _ -> iter.expr it e
    in
    let it = { iter with expr = expr_hook } in
    expr_hook it rhs
  in
  (* --- main traversal ---------------------------------------------- *)
  let iter = Tast_iterator.default_iterator in
  let slot_params rhs =
    let pos = ref 0 in
    let rec peel acc e =
      match e.exp_desc with
      | Texp_function { arg_label; param; cases = [ c ]; _ } ->
          let sl =
            match arg_label with
            | Asttypes.Nolabel ->
                let i = !pos in
                incr pos;
                Callgraph.Pos i
            | Asttypes.Labelled l | Asttypes.Optional l -> Callgraph.Lab l
          in
          peel ((sl, stamp param) :: acc) c.c_rhs
      | _ -> List.rev acc
    in
    peel [] rhs
  in
  (* The wrapper maintains the anchor stack; expr_core does the work. *)
  let rec expr_hook it e =
    let loc = e.exp_loc in
    if loc.Location.loc_ghost then expr_core it e
    else begin
      let l = loc.Location.loc_start.pos_lnum in
      let prev = !anchor_stack in
      if not (List.mem l prev) then anchor_stack := l :: prev;
      expr_core it e;
      anchor_stack := prev
    end
  and expr_core it e =
    match e.exp_desc with
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args) -> (
        let parts = parts_of aliases p in
        (* Call-graph fact: every application is an edge; bare Rng.t
           identifier arguments are recorded by slot for R10 and excluded
           from the plain-occurrence count. *)
        let is_rng_arg a =
          match a.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when is_rng_t (real_env a.exp_env) a.exp_type ->
              Some id
          | _ -> None
        in
        let rng_args =
          let pos = ref 0 in
          List.filter_map
            (fun (lbl, eo) ->
              let sl =
                match lbl with
                | Asttypes.Nolabel ->
                    let i = !pos in
                    incr pos;
                    Callgraph.Pos i
                | Asttypes.Labelled l | Asttypes.Optional l -> Callgraph.Lab l
              in
              match eo with
              | Some a when !in_spawn = 0 -> (
                  match is_rng_arg a with
                  | Some id -> Some (sl, stamp id)
                  | None -> None)
              | _ -> None)
            args
        in
        let arg_mentions_scoped =
          List.exists
            (fun (_, eo) ->
              match eo with Some a -> mentions_scoped a | None -> false)
            args
        in
        record_ref ~rng_args ~fwd:arg_mentions_scoped p fn.exp_loc;
        (match write_prim parts with
        | Some (desc, atomic) ->
            record_write ~atomic ~node_ok:arg_mentions_scoped ~desc fn.exp_loc
        | None -> ());
        let visit_args () =
          List.iter
            (fun (_, eo) ->
              match eo with
              | Some a -> (
                  match is_rng_arg a with
                  | Some _ when !in_spawn = 0 ->
                      () (* counted as a call argument, not a plain use *)
                  | _ -> expr_hook it a)
              | None -> ())
            args
        in
        match parts with
        | [ "Stdlib"; op ] when List.mem op poly_ops ->
            (if in_r2 then
               match args with
               | [ (_, Some a); (_, Some b) ] ->
                   let spec x =
                     comparison_specialized (real_env x.exp_env) x.exp_type
                   in
                   if not (spec a && spec b) then
                     let bad = if spec a then b else a in
                     emit fn.exp_loc "R2"
                       ("polymorphic (" ^ op ^ ") at type "
                       ^ type_to_string bad.exp_type
                       ^ ": the compiler cannot specialize this comparison — \
                          match instead, or use a monomorphic equal/compare")
               | _ ->
                   emit fn.exp_loc "R2"
                     ("comparison operator (" ^ op
                    ^ ") partially applied: pass a monomorphic comparator"));
            visit_args ()
        | [ "Stdlib"; (("min" | "max") as op) ] ->
            (if in_r2 then
               match args with
               | [ (_, Some a); (_, Some b) ] ->
                   let imm x =
                     comparison_immediate (real_env x.exp_env) x.exp_type
                   in
                   if not (imm a && imm b) then
                     let bad = if imm a then b else a in
                     emit fn.exp_loc "R2"
                       (minmax_msg op (type_to_string bad.exp_type))
               | _ ->
                   emit fn.exp_loc "R2"
                     (op
                    ^ " partially applied: pass a monomorphic min/max or \
                       comparator"));
            visit_args ()
        | [ "Stdlib"; "Domain"; "spawn" ] ->
            spawns := true;
            List.iter
              (fun (_, eo) ->
                Option.iter (fun a -> check_spawn_arg fn.exp_loc a) eo)
              args;
            incr in_spawn;
            visit_args ();
            decr in_spawn
        | _ ->
            (match unsafe_op parts with
            | Some op when !guard = 0 ->
                emit fn.exp_loc "R9"
                  ("unchecked " ^ op
                 ^ ": not dominated by a bounds guard in this function — \
                    guard with a length-derived for-bound, if/while \
                    comparison, or raising precondition, or justify with a \
                    reasoned rblint:allow R9")
            | _ -> ());
            check_ident fn.exp_loc parts;
            visit_args ())
    | Texp_ident (p, _, _) -> (
        (match p with
        | Path.Pident id
          when !in_spawn = 0 && is_rng_t (real_env e.exp_env) e.exp_type ->
            occs :=
              { Callgraph.o_stamp = stamp id; o_line = loc_line e.exp_loc }
              :: !occs
        | _ -> ());
        record_ref p e.exp_loc;
        let parts = parts_of aliases p in
        match parts with
        | [ "Stdlib"; op ] when List.mem op poly_ops ->
            if in_r2 then
              emit e.exp_loc "R2"
                ("comparison operator (" ^ op
               ^ ") used as a value: pass a monomorphic comparator")
        | [ "Stdlib"; (("min" | "max") as op) ] ->
            (* Used as a value (e.g. [Array.fold_left min] — the exact shape
               of the Stats.summarize bug): the instantiated arrow type tells
               us the element type. *)
            if in_r2 then begin
              let env = real_env e.exp_env in
              match Types.get_desc (expand env e.exp_type) with
              | Types.Tarrow (_, targ, _, _)
                when comparison_immediate env targ ->
                  ()
              | _ -> emit e.exp_loc "R2" (minmax_msg op (type_to_string e.exp_type))
            end
        | [ "Stdlib"; "Domain"; "spawn" ] -> spawns := true
        | _ -> (
            (match unsafe_op parts with
            | Some op ->
                emit e.exp_loc "R9"
                  ("unchecked " ^ op
                 ^ " used as a value: an escaping unsafe accessor can never \
                    be bounds-checked at its use sites — wrap it in a \
                    guarded helper")
            | None -> ());
            check_ident e.exp_loc parts))
    | Texp_letmodule (Some id, _, _, { mod_desc = Tmod_ident (p, _); _ }, _) ->
        Hashtbl.replace aliases id (resolve_alias aliases p);
        iter.expr it e
    | Texp_setfield (obj, _, lbl, _) ->
        record_write ~node_ok:(mentions_scoped obj)
          ~desc:("mutable-field set (" ^ lbl.Types.lbl_name ^ ")")
          e.exp_loc;
        iter.expr it e
    (* R12: a [~node]-labelled parameter opens a node scope — everything
       derived from it (and fresh local allocations, see
       [value_binding_hook]) is per-node state. *)
    | Texp_function { arg_label = Asttypes.Labelled "node"; param; _ } ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace tbl param ();
        scopes := tbl :: !scopes;
        iter.expr it e;
        scopes := List.tl !scopes
    (* A [function]-style reception match (a deliver written as
       [fun ~round ~node -> function Silence -> () | ...]) shields its
       non-Silence arms exactly like the explicit Texp_match below. *)
    | Texp_function { cases = ({ c_lhs; _ } :: _) as cases; _ }
      when is_reception_type (real_env c_lhs.pat_env) c_lhs.pat_type ->
        List.iter
          (fun c ->
            Option.iter (expr_hook it) c.c_guard;
            let shield = not (pat_can_silence c.c_lhs) in
            if shield then incr nonsil;
            expr_hook it c.c_rhs;
            if shield then decr nonsil)
          cases
    (* R11 silence regions + R12 derived-binding propagation through
       matches: arms of a reception match that cannot bind [Silence]
       shield their effects from silent rounds; patterns destructuring a
       node-derived scrutinee bind node-derived idents. *)
    | Texp_match (scrut, cases, _) ->
        expr_hook it scrut;
        (match !scopes with
        | tbl :: _ when mentions_scoped scrut ->
            List.iter
              (fun c ->
                List.iter
                  (fun id -> Hashtbl.replace tbl id ())
                  (pat_bound_idents c.c_lhs))
              cases
        | _ -> ());
        let recept =
          is_reception_type (real_env scrut.exp_env) scrut.exp_type
        in
        List.iter
          (fun c ->
            Option.iter (expr_hook it) c.c_guard;
            let shield = recept && not (pat_can_silence c.c_lhs) in
            if shield then incr nonsil;
            expr_hook it c.c_rhs;
            if shield then decr nonsil)
          cases
    (* R11/R12 roots: a protocol record's decide/deliver callbacks become
       their own call-graph nodes so their effects are separable from the
       constructing function's. *)
    | Texp_record { fields; extended_expression; _ }
      when is_protocol_type (real_env e.exp_env) e.exp_type ->
        Option.iter (expr_hook it) extended_expression;
        let dec = ref `None and del = ref `None in
        let handle name slot fe =
          match fe.exp_desc with
          | Texp_function _ -> slot := `Key (synth_walk it ~tag:name fe)
          | Texp_ident (p, _, _) ->
              slot := `Path p;
              expr_hook it fe
          | _ -> expr_hook it fe
        in
        Array.iter
          (fun (lbl, def) ->
            match def with
            | Overridden (_, fe) -> (
                match lbl.Types.lbl_name with
                | "decide" -> handle "decide" dec fe
                | "deliver" -> handle "deliver" del fe
                | _ -> expr_hook it fe)
            | Kept _ -> ())
          fields;
        raw_protos :=
          (!cur_node, loc_line e.exp_loc, !anchor_stack, !dec, !del)
          :: !raw_protos
    (* R9 guarded contexts: recurse manually so the guard counter covers
       exactly the dominated sub-expressions. *)
    | Texp_for (_, _, lo, hi, _, body) ->
        expr_hook it lo;
        expr_hook it hi;
        let g = length_derived 1 hi || length_derived 1 lo in
        if g then incr guard;
        expr_hook it body;
        if g then decr guard
    | Texp_while (cond, body) ->
        expr_hook it cond;
        let g = length_derived 1 cond in
        if g then incr guard;
        expr_hook it body;
        if g then decr guard
    | Texp_ifthenelse (cond, th, el) ->
        expr_hook it cond;
        let g = length_derived 1 cond in
        if g then incr guard;
        expr_hook it th;
        Option.iter (expr_hook it) el;
        if g then decr guard
    | Texp_sequence (e1, e2) ->
        expr_hook it e1;
        let g = seq_guard e1 in
        if g then incr guard;
        expr_hook it e2;
        if g then decr guard
    | _ -> iter.expr it e
  (* Attribute a callback closure's body to a fresh synthetic
     call-graph node ("%decide@<line>" under the enclosing node), so the
     contract analyses can reason about it separately. *)
  and synth_walk it ~tag fe =
    let skey =
      !cur_node @ [ Printf.sprintf "%%%s@%d" tag (loc_line fe.exp_loc) ]
    in
    nodes :=
      {
        Callgraph.n_key = skey;
        n_line = loc_line fe.exp_loc;
        n_params = slot_params fe;
      }
      :: !nodes;
    let prev = !cur_node in
    cur_node := skey;
    expr_hook it fe;
    cur_node := prev;
    skey
  in
  let module_expr_hook it m =
    (match m.mod_desc with
    | Tmod_ident (p, _) -> (
        let parts = parts_of aliases p in
        match parts with
        | "Stdlib" :: "Random" :: _ when not rng_exempt ->
            emit m.mod_loc "R1"
              "aliasing Stdlib.Random is banned: draw through the seeded Rng"
        | "Stdlib" :: "Obj" :: _ ->
            emit m.mod_loc "R3" "aliasing Obj breaks abstraction"
        | _ -> ())
    | _ -> ());
    iter.module_expr it m
  in
  let module_binding_hook it mb =
    (match (mb.mb_id, mb.mb_expr.mod_desc) with
    | Some id, Tmod_ident (p, _) ->
        Hashtbl.replace aliases id (resolve_alias aliases p)
    | _ -> ());
    iter.module_binding it mb
  in
  let value_binding_hook it vb =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) ->
        Hashtbl.replace val_defs id vb.vb_expr;
        (* R10 fact: a locally created stream whose ownership we track *)
        (match vb.vb_expr.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
          when (match List.rev (parts_of aliases p) with
               | ("create" | "split" | "copy") :: "Rng" :: _ -> true
               | _ -> false)
               && is_rng_t (real_env vb.vb_expr.exp_env) vb.vb_expr.exp_type
          ->
            let l = loc_line vb.vb_loc in
            binds :=
              {
                Callgraph.b_stamp = stamp id;
                b_name = Ident.name id;
                b_line = l;
                b_anchors = l :: !anchor_stack;
              }
              :: !binds
        | _ -> ())
    | _ -> ());
    (* R12: inside a node scope, a binding computed from node-derived data
       stays node-derived, and a fresh allocation is node-local scratch. *)
    (match !scopes with
    | tbl :: _ when is_allocating vb.vb_expr || mentions_scoped vb.vb_expr ->
        List.iter
          (fun id -> Hashtbl.replace tbl id ())
          (pat_bound_idents vb.vb_pat)
    | _ -> ());
    let is_hot =
      List.exists
        (fun a -> a.Parsetree.attr_name.txt = "zero_alloc_hot")
        vb.vb_attributes
    in
    (* A local function later punned into a protocol record becomes its own
       synthetic node, like a literal callback closure would. *)
    let cb_node =
      match vb.vb_pat.pat_desc with
      | Tpat_var (id, _)
        when Hashtbl.mem callback_stamps (stamp id)
             && (not (Hashtbl.mem val_keys (stamp id)))
             && (match vb.vb_expr.exp_desc with
                | Texp_function _ -> true
                | _ -> false) ->
          let skey =
            !cur_node
            @ [ Printf.sprintf "%%%s@%d" (Ident.name id) (loc_line vb.vb_loc) ]
          in
          nodes :=
            {
              Callgraph.n_key = skey;
              n_line = loc_line vb.vb_loc;
              n_params = slot_params vb.vb_expr;
            }
            :: !nodes;
          Hashtbl.replace local_cb (stamp id) skey;
          Some skey
      | _ -> None
    in
    let prev = !anchor_stack in
    (let l = loc_line vb.vb_loc in
     if not (vb.vb_loc.Location.loc_ghost || List.mem l prev) then
       anchor_stack := l :: prev);
    let prev_node = !cur_node in
    (match cb_node with Some k -> cur_node := k | None -> ());
    (if is_hot then begin
       incr hot;
       iter.value_binding it vb;
       decr hot
     end
     else iter.value_binding it vb);
    cur_node := prev_node;
    anchor_stack := prev
  in
  let it =
    {
      iter with
      expr = expr_hook;
      module_expr = module_expr_hook;
      module_binding = module_binding_hook;
      value_binding = value_binding_hook;
    }
  in
  (* Custom top-level drive: module-level value bindings become call-graph
     nodes (key = unit key + nested module path + name); everything below
     them is attributed to the enclosing node.  The iterator hooks still
     serve expression-level traversal. *)
  let rec walk_items prefix items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.iter (top_vb prefix) vbs
        | Tstr_module mb -> walk_mb prefix mb
        | Tstr_recmodule mbs -> List.iter (walk_mb prefix) mbs
        | Tstr_eval (e, _) ->
            cur_node := prefix @ [ "<init>" ];
            expr_hook it e
        | Tstr_type (_, decls) ->
            List.iter
              (fun d ->
                match d.typ_kind with
                | Ttype_record lds
                  when List.exists
                         (fun l -> l.ld_mutable = Asttypes.Mutable)
                         lds ->
                    Hashtbl.replace local_mut_types
                      (Ident.unique_name d.typ_id)
                      "record with mutable fields"
                | _ -> ())
              decls
        | Tstr_include i ->
            cur_node := prefix @ [ "<include>" ];
            walk_mod prefix i.incl_mod
        | _ -> ())
      items
  and walk_mb prefix mb =
    match (mb.mb_id, mb.mb_expr.mod_desc) with
    | Some _, Tmod_ident _ ->
        module_binding_hook it mb (* alias registration + R1/R3 *)
    | Some id, _ ->
        let p' = prefix @ [ Ident.name id ] in
        Hashtbl.replace mod_keys (stamp id) p';
        walk_mod p' mb.mb_expr
    | None, _ -> walk_mod prefix mb.mb_expr
  and walk_mod prefix m =
    match m.mod_desc with
    | Tmod_structure s -> walk_items prefix s.str_items
    | Tmod_constraint (m', _, _, _) -> walk_mod prefix m'
    | Tmod_functor (_, m') -> walk_mod prefix m'
    | Tmod_ident _ -> module_expr_hook it m
    | Tmod_apply (f, a, _) ->
        walk_mod prefix f;
        walk_mod prefix a
    | _ -> ()
  and top_vb prefix vb =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) ->
        let key = prefix @ [ Ident.name id ] in
        Hashtbl.replace val_keys (stamp id) key;
        nodes :=
          {
            Callgraph.n_key = key;
            n_line = loc_line vb.vb_loc;
            n_params = slot_params vb.vb_expr;
          }
          :: !nodes;
        cur_node := key;
        (* R10: a top-level binding holding a stream (in any container) is
           shared state no single caller owns. *)
        (let env = real_env vb.vb_expr.exp_env in
         if
           in_lib
           && (not (is_function_type env vb.vb_expr.exp_type))
           && mentions_rng env vb.vb_expr.exp_type
         then
           emit vb.vb_loc "R10"
             ("top-level binding `" ^ Ident.name id
            ^ "` holds an Rng stream: streams must be created (or split) \
               inside the entry point that owns them, not stored in module \
               state"));
        value_binding_hook it vb
    | _ ->
        cur_node := prefix @ [ "<pattern>" ];
        value_binding_hook it vb
  in
  (* Pre-scan: collect local idents punned into protocol records, so the
     main walk can give their bindings synthetic callback nodes. *)
  (let iter0 = Tast_iterator.default_iterator in
   let expr it e =
     (match e.exp_desc with
     | Texp_record { fields; _ }
       when is_protocol_type (real_env e.exp_env) e.exp_type ->
         Array.iter
           (fun (lbl, def) ->
             match (def, lbl.Types.lbl_name) with
             | ( Overridden
                   (_, { exp_desc = Texp_ident (Path.Pident id, _, _); _ }),
                 ("decide" | "deliver") ) ->
                 Hashtbl.replace callback_stamps (stamp id) ()
             | _ -> ())
           fields
     | _ -> ());
     iter0.expr it e
   in
   let pre = { iter0 with expr } in
   pre.structure pre str);
  walk_items unit_key str.str_items;
  (* R6 pass: top-level bindings only, including nested top-level modules. *)
  let rec scan_structure s =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                scan_top_rhs ~anchors:[ loc_line vb.vb_loc ] vb.vb_expr)
              vbs
        | Tstr_module mb -> scan_module mb.mb_expr
        | Tstr_recmodule mbs -> List.iter (fun mb -> scan_module mb.mb_expr) mbs
        | _ -> ())
      s.str_items
  and scan_module m =
    match m.mod_desc with
    | Tmod_structure s -> scan_structure s
    | Tmod_constraint (m, _, _, _) -> scan_module m
    | _ -> ()
  in
  scan_structure str;
  (* Resolve deferred references into call edges.  Local stamps map to
     node keys; dotted paths rooted in a unit-local module map through the
     module-stamp table; anything else flattens to its global parts. *)
  let resolve_path p =
    match p with
    | Path.Pident id -> (
        match Hashtbl.find_opt val_keys (stamp id) with
        | Some k -> Some k
        | None -> Hashtbl.find_opt local_cb (stamp id))
    | _ -> (
        let rec root = function
          | Path.Pident id -> Some id
          | Path.Pdot (q, _) -> root q
          | _ -> None
        in
        match root p with
        | Some rid when Hashtbl.mem mod_keys (stamp rid) -> (
            match Path.flatten p with
            | `Ok (_, rest) -> Some (Hashtbl.find mod_keys (stamp rid) @ rest)
            | `Contains_apply -> None)
        | _ -> (
            match parts_of aliases p with
            | [] -> None
            | parts -> Some parts))
  in
  let calls =
    List.filter_map
      (fun (caller, p, line, rng_args, sil, fwd, scope) ->
        match resolve_path p with
        | Some k ->
            Some
              {
                Callgraph.c_caller = caller;
                c_callee = k;
                c_line = line;
                c_rng_args = rng_args;
                c_sil = sil;
                c_fwd = fwd;
                c_scope = scope;
              }
        | None -> None)
      !raw_refs
  in
  let resolve_target = function
    | `None -> None
    | `Key k -> Some k
    | `Path p -> resolve_path p
  in
  let protos =
    List.rev_map
      (fun (node, line, anchors, dec, del) ->
        {
          Callgraph.p_node = node;
          p_line = line;
          p_anchors = anchors;
          p_decide = resolve_target dec;
          p_deliver = resolve_target del;
        })
      !raw_protos
  in
  let facts =
    {
      Callgraph.uf_unit = modname;
      uf_file = file;
      uf_nodes = List.rev !nodes;
      uf_calls = calls;
      uf_nondet = List.rev !nondet;
      uf_spawns = List.rev !spawn_caps;
      uf_occs = List.rev !occs;
      uf_binds = List.rev !binds;
      uf_writes = List.rev !writes;
      uf_protos = protos;
    }
  in
  let sort fs =
    List.sort
      (fun a b ->
        match Int.compare a.line b.line with
        | 0 -> Int.compare a.col b.col
        | c -> c)
      fs
  in
  (sort (List.rev !findings), sort (List.rev !r6), !spawns, facts)

(* ------------------------------------------------------------------ *)
(* Frontends                                                           *)

let make_unit ~path ~source ~modname ~imports str =
  let file = normalize path in
  let findings, r6, sp, facts = analyze ~path ~modname str in
  let r0, valid = validate_allows ~file (collect_allows source) in
  {
    u_path = file;
    u_modname = modname;
    u_imports = imports;
    u_spawns = sp;
    u_findings = r0 @ findings;
    u_r6 = r6;
    u_allows = valid;
    u_facts = facts;
  }

let error_unit ~path ~rule msg =
  {
    u_path = normalize path;
    u_modname = "";
    u_imports = [];
    u_spawns = false;
    u_findings =
      [ { file = normalize path; line = 1; col = 0; rule; msg; anchors = [] } ];
    u_r6 = [];
    u_allows = [];
    u_facts = Callgraph.empty_facts;
  }

(* cmt frontend: the CLI path.  Sets the load path recorded in the cmt so
   the stored environments rehydrate (run from the dune context root,
   where those relative paths resolve). *)
let unit_of_cmt cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ ->
      `Error
        (error_unit ~path:cmt_path ~rule:"CMT"
           ("unreadable cmt file: " ^ cmt_path))
  | cmt -> (
      match (cmt.Cmt_format.cmt_sourcefile, cmt.Cmt_format.cmt_annots) with
      | Some src, Cmt_format.Implementation str
        when Filename.check_suffix src ".ml" ->
          Load_path.init ~auto_include:Load_path.no_auto_include
            cmt.Cmt_format.cmt_loadpath;
          Envaux.reset_cache ();
          let source =
            match open_in_bin src with
            | exception Sys_error _ -> ""
            | ic ->
                let len = in_channel_length ic in
                let s = really_input_string ic len in
                close_in ic;
                s
          in
          `Unit
            (make_unit ~path:src ~source ~modname:cmt.Cmt_format.cmt_modname
               ~imports:(List.map fst cmt.Cmt_format.cmt_imports)
               str)
      | _ -> `Skip)

(* In-process typechecking frontend (stdlib scope only): used by the
   fixture self-tests so they need no build artifacts. *)
let typecheck_initialized = ref false

let lint_unit_of_source ~path ~source =
  if not !typecheck_initialized then begin
    typecheck_initialized := true;
    Clflags.dont_write_files := true;
    ignore (Warnings.parse_options false "-a");
    Compmisc.init_path ()
  end;
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf (normalize path);
  match Parse.implementation lexbuf with
  | exception exn ->
      let msg =
        match Location.error_of_exn exn with
        | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
        | _ -> Printexc.to_string exn
      in
      error_unit ~path ~rule:"PARSE" msg
  | ast -> (
      Env.reset_cache ();
      let env = Compmisc.initial_env () in
      match Typemod.type_structure env ast with
      | exception exn ->
          let msg =
            match Location.error_of_exn exn with
            | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
            | _ -> Printexc.to_string exn
          in
          error_unit ~path ~rule:"TYPE" msg
      | str, _, _, _, _ ->
          let modname =
            String.capitalize_ascii
              (Filename.remove_extension (Filename.basename path))
          in
          make_unit ~path ~source ~modname ~imports:[] str)

(* ------------------------------------------------------------------ *)
(* Whole-tree finalization: Domain-reachability and R6                 *)

(* A module is domain-shared when code in it can run on a spawned domain:
   (a) it calls Domain.spawn itself, or (b) it depends on a spawning
   module — its closures may be handed to a worker (Runner.map f) — and
   then transitively everything such a module depends on, since the worker
   may call into any of it. *)
let domain_reachable units =
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun u -> if u.u_modname <> "" then Hashtbl.replace by_name u.u_modname u)
    units;
  let spawner_names =
    List.filter_map (fun u -> if u.u_spawns then Some u.u_modname else None) units
  in
  let seeds =
    List.filter
      (fun u ->
        u.u_spawns
        || List.exists (fun i -> List.mem i spawner_names) u.u_imports)
      units
  in
  let reachable = Hashtbl.create 64 in
  let rec visit u =
    if not (Hashtbl.mem reachable u.u_modname) then begin
      Hashtbl.replace reachable u.u_modname ();
      List.iter
        (fun i ->
          match Hashtbl.find_opt by_name i with
          | Some dep -> visit dep
          | None -> ())
        u.u_imports
    end
  in
  List.iter visit seeds;
  fun u -> u.u_modname <> "" && Hashtbl.mem reachable u.u_modname

(* One row of the suppression-debt ledger: every valid allow in the tree,
   with whether it still suppresses anything.  A stale allow (l_used =
   false) is debt that outlived its finding. *)
type ledger_entry = {
  l_file : string;
  l_line : int;
  l_rule : string;
  l_reason : string;
  l_used : bool;
}

(* Whole-tree finalization: R6 reachability filtering, the R8/R10
   call-graph analyses, suppression application with usage tracking.
   Returns the surviving findings and the allow ledger. *)
let finalize_full ?r8_sinks units =
  let reachable = domain_reachable units in
  let facts = List.map (fun u -> u.u_facts) units in
  let cg =
    (match r8_sinks with
    | Some sinks -> Callgraph.r8_findings ~sinks facts
    | None -> Callgraph.r8_findings facts)
    @ Callgraph.r10_findings facts
    @ Callgraph.r11_findings facts
    @ Callgraph.r12_findings facts
    @ Callgraph.r14_findings facts
  in
  let cg_by_file : (string, Callgraph.cg_finding) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter (fun (g : Callgraph.cg_finding) -> Hashtbl.add cg_by_file g.g_file g) cg;
  let used : (string * int * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let all =
    List.concat_map
      (fun u ->
        let mark a = Hashtbl.replace used (u.u_path, a.a_line, a.a_rule) () in
        let graph =
          List.map
            (fun (g : Callgraph.cg_finding) ->
              {
                file = g.g_file;
                line = g.g_line;
                col = 0;
                rule = g.g_rule;
                msg = g.g_msg;
                anchors = g.g_anchors;
              })
            (Hashtbl.find_all cg_by_file u.u_path)
        in
        let r6 = if reachable u then u.u_r6 else [] in
        filter_allowed ~on_use:mark u.u_allows (u.u_findings @ r6 @ graph))
      units
  in
  let ledger =
    List.concat_map
      (fun u ->
        List.map
          (fun a ->
            {
              l_file = u.u_path;
              l_line = a.a_line;
              l_rule = a.a_rule;
              l_reason = a.a_reason;
              l_used = Hashtbl.mem used (u.u_path, a.a_line, a.a_rule);
            })
          u.u_allows)
      units
  in
  let sorted =
    List.sort
      (fun a b ->
        match String.compare a.file b.file with
        | 0 -> (
            match Int.compare a.line b.line with
            | 0 -> Int.compare a.col b.col
            | c -> c)
        | c -> c)
      all
  in
  let ledger =
    List.sort
      (fun a b ->
        match String.compare a.l_file b.l_file with
        | 0 -> Int.compare a.l_line b.l_line
        | c -> c)
      ledger
  in
  (sorted, ledger)

let finalize units = fst (finalize_full units)

(* Convenience for tests: lint one standalone source string (typechecked
   in-process; the module is its own reachability universe, so R6 fires
   only when the source itself spawns domains).  [r8_sinks] overrides the
   sanctioned-sink table so its seam is testable. *)
let lint_source ~path ~source =
  fst (finalize_full [ lint_unit_of_source ~path ~source ])

(* Same, with the sanctioned-sink table overridden — lets the fixture
   tests exercise the sink seam without touching the real table. *)
let lint_source_sinks ~r8_sinks ~path ~source =
  fst (finalize_full ~r8_sinks [ lint_unit_of_source ~path ~source ])
