(* callgraph — whole-library dataflow over facts extracted from typed ASTs.

   lint.ml's per-unit traversal collects *facts* (top-level nodes, calls,
   nondeterministic-source uses, Domain.spawn captures, Rng occurrences and
   bindings); this module runs the cross-unit analyses over them:

     R8  determinism taint — a function is tainted when it uses a
         nondeterministic source (wall clock, domain identity, GC
         statistics, Hashtbl iteration order) or calls a tainted function.
         Taint stops at *sanctioned sinks* (declared in one table below):
         a sink's uses are by design never fed into simulation results.
         Findings are emitted for tainted functions defined under lib/ —
         bench wall-clock fields live outside lib/ and stay free.

     R10 RNG ownership — linearity of Rng streams over the call graph.  A
         parameter slot is *consuming* when the callee (transitively)
         hands it to a Domain.spawn closure.  Each locally created stream
         (Rng.create/split/copy result) may be consumed at most once, and
         never used again after it was consumed: two consumptions race two
         domains on one stream; use-after-consumption races the parent
         against the worker.

     v4 adds the protocol-contract rules, driven by the write/effect
     facts (mutable-store primitives with silence-region and
     node-locality flags, protocol-record constructions):

     R11 silence purity — a protocol's [deliver] must not, transitively
         through silence-reachable calls, write mutable state or draw
         Rng on a [Silence] delivery (Engine_sparse skips silent rounds).
     R12 write locality — every write reachable from a protocol's
         [decide]/[deliver] must target node-derived state, node-local
         scratch, or an [Atomic.t]: in the model a node changes only its
         own state, so a cross-node write is a simulation device that
         must carry a named allow; Rng draws must come from a
         node-derived stream.
     R13 retired: it checked the purity of the sparse engine's skip
         hint, which no longer exists (a round whose awake set is empty
         is fast-forwarded instead).  The number is not reused.
     R14 registry coverage — every lib/ pipeline that constructs a
         protocol and drives an engine must be reachable from an
         [Rn_radio.Registry.register] call, so the registry enumerates
         the full protocol surface.

   Approximations (documented in DESIGN.md §9): only top-level bindings
   become call-graph nodes (inner helpers are folded into their enclosing
   node); Rng arguments are tracked only when passed as a bare identifier;
   ordering within a function body is ignored, so a provably-sequential
   handoff that the analysis cannot see must carry a reasoned
   [rblint:allow R10].

   Identifier stamps are [Ident.unique_name] strings and are only
   meaningful within one unit; cross-unit flow goes through keys. *)

type key = string list
(* Canonical name of a call-graph node: the compilation unit split on the
   dune name-mangling separator, then any nested modules, then the value —
   ["Rn_radio"; "Engine"; "run"].  Cross-module references in a cmt appear
   as wrapper-dot paths (Rn_radio.Engine.run) and flatten to the same
   list. *)

let string_of_key = String.concat "."

(* "Rn_radio__Engine" -> ["Rn_radio"; "Engine"] *)
let key_of_modname m =
  let n = String.length m in
  let rec go start i acc =
    if i + 2 > n then List.rev (String.sub m start (n - start) :: acc)
    else if m.[i] = '_' && m.[i + 1] = '_' then
      go (i + 2) (i + 2) (String.sub m start (i - start) :: acc)
    else go start (i + 1) acc
  in
  if m = "" then [] else go 0 0 []

(* Argument slot: positional index among unlabelled arguments, or the
   label.  Call sites and parameter lists compute slots the same way, so
   labelled-argument reordering cannot misalign them. *)
type slot = Pos of int | Lab of string

let string_of_slot = function
  | Pos i -> "#" ^ string_of_int i
  | Lab l -> "~" ^ l

(* ------------------------------------------------------------------ *)
(* Facts                                                               *)

type node = {
  n_key : key;
  n_line : int;  (** definition start line — suppression anchor *)
  n_params : (slot * string) list;  (** slot -> param ident stamp *)
}

type call = {
  c_caller : key;
  c_callee : key;  (** resolved: local node key or dotted global parts *)
  c_line : int;
  c_rng_args : (slot * string) list;
      (** bare Rng.t identifiers passed at this site *)
  c_sil : bool;
      (** the call site is silence-reachable: not dominated by a
          reception-match arm that excludes [Silence] (R11) *)
  c_fwd : bool;
      (** some argument mentions a node-derived identifier — the callee is
          trusted to operate on that node's state (R12) *)
  c_scope : bool;  (** the call site sits inside a [~node]-parameter scope *)
}

type nondet_use = {
  d_node : key;
  d_src : string;  (** e.g. "Unix.gettimeofday" *)
  d_line : int;
}

type spawn_cap = {
  s_node : key;
  s_line : int;
  s_caps : string list;  (** stamps of Rng.t idents captured by the closure *)
}

type occ = { o_stamp : string; o_line : int }
(** a plain (non-argument, non-capture) use of an Rng.t identifier *)

type rng_bind = {
  b_stamp : string;
  b_name : string;
  b_line : int;
  b_anchors : int list;  (** enclosing-expression start lines *)
}

type write = {
  w_node : key;
  w_line : int;
  w_desc : string;  (** e.g. "Array.set", ":=", "mutable-field set" *)
  w_sil : bool;  (** silence-reachable within its function (see [call].c_sil) *)
  w_atomic : bool;  (** an [Atomic.*] store — sanctioned for R12, not R11 *)
  w_node_ok : bool;
      (** the write target mentions a node-derived identifier or node-local
          scratch — only meaningful when [w_in_scope] *)
  w_in_scope : bool;  (** lexically inside a [~node]-parameter scope *)
  w_anchors : int list;
}
(** one mutable-store primitive executed by a call-graph node *)

type proto_decl = {
  p_node : key;  (** node constructing the [Engine.protocol] record *)
  p_line : int;
  p_anchors : int list;
  p_decide : key option;  (** resolved callback nodes; [None] = unanalyzable *)
  p_deliver : key option;
}

type unit_facts = {
  uf_unit : string;  (** compilation unit name, e.g. "Rn_radio__Engine" *)
  uf_file : string;  (** normalized source path *)
  uf_nodes : node list;
  uf_calls : call list;
  uf_nondet : nondet_use list;
  uf_spawns : spawn_cap list;
  uf_occs : occ list;
  uf_binds : rng_bind list;
  uf_writes : write list;
  uf_protos : proto_decl list;
}

let empty_facts =
  {
    uf_unit = "";
    uf_file = "";
    uf_nodes = [];
    uf_calls = [];
    uf_nondet = [];
    uf_spawns = [];
    uf_occs = [];
    uf_binds = [];
    uf_writes = [];
    uf_protos = [];
  }

(* All call edges, for the fixture self-tests. *)
let edges units =
  List.concat_map
    (fun uf ->
      List.map (fun c -> (c.c_caller, c.c_callee, c.c_line)) uf.uf_calls)
    units

(* ------------------------------------------------------------------ *)
(* Nondeterministic sources and sanctioned sinks                       *)

let nondet_of_parts = function
  | [ "Unix"; (("gettimeofday" | "time") as f) ] -> Some ("Unix." ^ f)
  | [ "Stdlib"; "Sys"; "time" ] -> Some "Sys.time"
  | [ "Stdlib"; "Domain"; "self" ] -> Some "Domain.self"
  | [ "Stdlib"; "Domain"; "recommended_domain_count" ] ->
      Some "Domain.recommended_domain_count"
  | [ "Stdlib"; "Gc";
      (( "stat" | "quick_stat" | "counters" | "minor_words" | "major_words"
       | "allocated_bytes" ) as f) ] ->
      Some ("Gc." ^ f)
  | [ "Stdlib"; "Hashtbl"; (("iter" | "fold") as f) ] ->
      Some ("Hashtbl." ^ f ^ " (iteration order)")
  | _ -> None

(* The one table of sanctioned sinks: functions allowed to touch a
   nondeterministic source because their result never feeds simulation
   output.  Taint neither enters nor leaves a sink. *)
let default_r8_sinks =
  [
    ( [ "Rn_radio"; "Runner"; "default_domains" ],
      "domain-count sizing: machine-dependent by design, affects only how \
       work is scheduled, never the simulated rounds" );
  ]

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)

type cg_finding = {
  g_file : string;
  g_line : int;
  g_rule : string;
  g_msg : string;
  g_anchors : int list;
}

let in_lib file =
  let file = if String.length file > 2 && String.sub file 0 2 = "./" then
      String.sub file 2 (String.length file - 2)
    else file
  in
  let pre = "lib/" in
  (String.length file >= 4 && String.sub file 0 4 = pre)
  ||
  let infix = "/lib/" in
  let n = String.length file and d = String.length infix in
  let rec scan i = i + d <= n && (String.sub file i d = infix || scan (i + 1)) in
  scan 0

let sort_findings fs =
  List.sort
    (fun a b ->
      match String.compare a.g_file b.g_file with
      | 0 -> (
          match Int.compare a.g_line b.g_line with
          | 0 -> String.compare a.g_msg b.g_msg
          | c -> c)
      | c -> c)
    fs

(* ------------------------------------------------------------------ *)
(* Shared cross-unit machinery                                         *)

(* key -> (file, def line) over all units *)
let node_home_table units =
  let node_home = Hashtbl.create 256 in
  List.iter
    (fun uf ->
      List.iter
        (fun n -> Hashtbl.replace node_home n.n_key (uf.uf_file, n.n_line))
        uf.uf_nodes)
    units;
  node_home

(* Key classifiers: suffix-matched so they work on real wrapper-dot paths
   (Rn_util.Rng.bool) and on fixture-local modules (Bad_r12.Rng.bool)
   alike. *)
let rng_op_of_key k =
  match List.rev k with op :: "Rng" :: _ -> Some op | _ -> None

(* [create] mints a fresh stream and [copy] reads without mutating; every
   other Rng operation advances (or splits) the underlying stream state. *)
let rng_consuming = function "create" | "copy" -> false | _ -> true

(* [Drive] is listed beside the two engines so a pipeline driving
   through the one entry point (Rn_radio.Drive.run) is seeded at its own
   call site, without relying on the call graph to resolve Drive.run's
   body in another library. *)
let is_engine_run k =
  match List.rev k with
  | "run" :: ("Drive" | "Engine" | "Engine_sparse") :: _ -> true
  | _ -> false

let is_registry_register k =
  match List.rev k with "register" :: "Registry" :: _ -> true | _ -> false

(* Generic cause-table propagation: seed every node [seed_iter] offers,
   then spread along the reverse of the given edges (caller becomes bad
   when an eligible call reaches a bad callee).  The resulting table maps
   each bad node to its first witness ([`Direct] or [`Via]), from which
   [chain_of] renders an R8-style witness chain. *)
let propagate ~seed_iter ~edge_ok ~skip units =
  let rev = Hashtbl.create 256 in
  List.iter
    (fun uf ->
      List.iter
        (fun c ->
          if edge_ok c then Hashtbl.add rev c.c_callee (c.c_caller, c.c_line))
        uf.uf_calls)
    units;
  let cause = Hashtbl.create 64 in
  let queue = Queue.create () in
  let mark k c =
    if (not (skip k)) && not (Hashtbl.mem cause k) then begin
      Hashtbl.replace cause k c;
      Queue.add k queue
    end
  in
  seed_iter mark;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    List.iter
      (fun (caller, line) -> mark caller (`Via (k, line)))
      (Hashtbl.find_all rev k)
  done;
  cause

(* witness chain: node -> ... -> direct cause *)
let chain_of ~node_home cause k0 =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_key k0);
  let rec go k =
    match Hashtbl.find_opt cause k with
    | Some (`Direct (src, line)) ->
        let file =
          match Hashtbl.find_opt node_home k with
          | Some (f, _) -> f
          | None -> "?"
        in
        Buffer.add_string buf (Printf.sprintf " -> %s (%s:%d)" src file line)
    | Some (`Via (callee, line)) ->
        Buffer.add_string buf
          (Printf.sprintf " -> %s (call at line %d)" (string_of_key callee)
             line);
        go callee
    | None -> ()
  in
  go k0;
  Buffer.contents buf

(* Forward closure from a seed set along call edges satisfying [edge_ok]. *)
let forward_closure ~seeds ~edge_ok units =
  let out = Hashtbl.create 256 in
  List.iter
    (fun uf ->
      List.iter
        (fun c -> if edge_ok c then Hashtbl.add out c.c_caller c.c_callee)
        uf.uf_calls)
    units;
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let visit k =
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      Queue.add k queue
    end
  in
  List.iter visit seeds;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    List.iter visit (Hashtbl.find_all out k)
  done;
  seen

(* ------------------------------------------------------------------ *)
(* R8 — determinism taint                                              *)

let r8_findings ?(sinks = List.map fst default_r8_sinks) units =
  let node_home = node_home_table units in
  let cause =
    propagate
      ~seed_iter:(fun mark ->
        List.iter
          (fun uf ->
            List.iter
              (fun d -> mark d.d_node (`Direct (d.d_src, d.d_line)))
              uf.uf_nondet)
          units)
      ~edge_ok:(fun _ -> true)
      ~skip:(fun k -> List.mem k sinks)
      units
  in
  let chain = chain_of ~node_home cause in
  let fs =
    Hashtbl.fold
      (fun k _ acc ->
        match Hashtbl.find_opt node_home k with
        | Some (file, line) when in_lib file ->
            {
              g_file = file;
              g_line = line;
              g_rule = "R8";
              g_msg =
                "nondeterminism reaches simulation code: " ^ chain k
                ^ " — results must replay from the seed alone; route \
                   wall-clock through bench-only fields, or add the callee \
                   to the sanctioned-sink table (tools/rblint/callgraph.ml) \
                   if its result never feeds simulation output";
              g_anchors = [ line ];
            }
            :: acc
        | _ -> acc)
      cause []
  in
  sort_findings fs

(* ------------------------------------------------------------------ *)
(* R10 — RNG ownership                                                 *)

let r10_findings units =
  (* param stamp -> (node key, slot), per unit (stamps are unit-local) *)
  let param_of = Hashtbl.create 128 in
  List.iter
    (fun uf ->
      List.iter
        (fun n ->
          List.iter
            (fun (sl, st) ->
              Hashtbl.replace param_of (uf.uf_unit, st) (n.n_key, sl))
            n.n_params)
        uf.uf_nodes)
    units;
  (* consuming slots fixpoint: a slot consumes when the callee spawns a
     closure capturing that parameter, or forwards it to a consuming
     slot. *)
  let consuming : (key * slot, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun uf ->
      List.iter
        (fun s ->
          List.iter
            (fun st ->
              match Hashtbl.find_opt param_of (uf.uf_unit, st) with
              | Some ks -> Hashtbl.replace consuming ks ()
              | None -> ())
            s.s_caps)
        uf.uf_spawns)
    units;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun uf ->
        List.iter
          (fun c ->
            List.iter
              (fun (sl, st) ->
                if Hashtbl.mem consuming (c.c_callee, sl) then
                  match Hashtbl.find_opt param_of (uf.uf_unit, st) with
                  | Some ks when not (Hashtbl.mem consuming ks) ->
                      Hashtbl.replace consuming ks ();
                      changed := true
                  | _ -> ())
              c.c_rng_args)
          uf.uf_calls)
      units
  done;
  (* verdict per locally created stream *)
  let fs =
    List.concat_map
      (fun uf ->
        if not (in_lib uf.uf_file) then []
        else
          List.filter_map
            (fun b ->
              let consumptions =
                List.length
                  (List.filter (fun s -> List.mem b.b_stamp s.s_caps)
                     uf.uf_spawns)
                + List.length
                    (List.concat_map
                       (fun c ->
                         List.filter
                           (fun (sl, st) ->
                             st = b.b_stamp
                             && Hashtbl.mem consuming (c.c_callee, sl))
                           c.c_rng_args)
                       uf.uf_calls)
              in
              let other_uses =
                List.length
                  (List.filter (fun o -> o.o_stamp = b.b_stamp) uf.uf_occs)
                + List.length
                    (List.concat_map
                       (fun c ->
                         List.filter
                           (fun (sl, st) ->
                             st = b.b_stamp
                             && not (Hashtbl.mem consuming (c.c_callee, sl)))
                           c.c_rng_args)
                       uf.uf_calls)
              in
              if consumptions >= 2 then
                Some
                  {
                    g_file = uf.uf_file;
                    g_line = b.b_line;
                    g_rule = "R10";
                    g_msg =
                      Printf.sprintf
                        "rng stream `%s` is handed to %d domain owners \
                         (Domain.spawn captures or ownership-transferring \
                         calls): two domains would race one stream — give \
                         each owner its own Rng.split child"
                        b.b_name consumptions;
                    g_anchors = b.b_anchors;
                  }
              else if consumptions = 1 && other_uses >= 1 then
                Some
                  {
                    g_file = uf.uf_file;
                    g_line = b.b_line;
                    g_rule = "R10";
                    g_msg =
                      Printf.sprintf
                        "rng stream `%s` is used again after being handed \
                         to a domain owner: the parent would race the \
                         worker — split before the handoff, or prove the \
                         uses are sequential and add a reasoned \
                         rblint:allow R10"
                        b.b_name;
                    g_anchors = b.b_anchors;
                  }
              else None)
            uf.uf_binds)
      units
  in
  sort_findings fs

(* ------------------------------------------------------------------ *)
(* R11 — silence purity of protocol [deliver] callbacks                *)

(* A node is silence-impure when a [Silence] delivery could reach a
   mutable write or an Rng draw: it performs one in silence-reachable
   position itself, or it silence-reachably calls a silence-impure
   callee.  A callee that opens with its own reception match contributes
   only its silence-reachable effects, so forwarding the reception to a
   guarded helper ([Recruiting.deliver recr ~node reception]) stays
   clean, while a leaf helper with no reception match contributes its
   whole body. *)
let silence_impure units =
  propagate
    ~seed_iter:(fun mark ->
      List.iter
        (fun uf ->
          List.iter
            (fun w ->
              if w.w_sil then mark w.w_node (`Direct (w.w_desc, w.w_line)))
            uf.uf_writes;
          List.iter
            (fun c ->
              if c.c_sil then
                match rng_op_of_key c.c_callee with
                | Some op when rng_consuming op ->
                    mark c.c_caller (`Direct ("Rng." ^ op ^ " draw", c.c_line))
                | _ -> ())
            uf.uf_calls)
        units)
    ~edge_ok:(fun c -> c.c_sil)
    ~skip:(fun _ -> false)
    units

let r11_findings units =
  let node_home = node_home_table units in
  let cause = silence_impure units in
  let chain = chain_of ~node_home cause in
  let fs =
    List.concat_map
      (fun uf ->
        if not (in_lib uf.uf_file) then []
        else
          List.filter_map
            (fun p ->
              match p.p_deliver with
              | Some k when Hashtbl.mem cause k ->
                  Some
                    {
                      g_file = uf.uf_file;
                      g_line = p.p_line;
                      g_rule = "R11";
                      g_msg =
                        "protocol deliver is not silence-pure: " ^ chain k
                        ^ " — a Silence delivery may mutate state or draw \
                           randomness, so Engine_sparse's skipped silent \
                           rounds would diverge from the dense engine; keep \
                           every silence-reachable path effect-free (guard \
                           effects under Received/Collision arms) or add a \
                           reasoned rblint:allow R11";
                      g_anchors = p.p_anchors;
                    }
              | _ -> None)
            uf.uf_protos)
      units
  in
  sort_findings fs

(* ------------------------------------------------------------------ *)
(* R12 — per-node write locality of protocol callbacks                 *)

let r12_findings units =
  let callbacks =
    List.concat_map
      (fun uf ->
        List.concat_map
          (fun p ->
            (match p.p_decide with Some k -> [ k ] | None -> [])
            @ (match p.p_deliver with Some k -> [ k ] | None -> []))
          uf.uf_protos)
      units
  in
  (* Everything a callback can execute. *)
  let reach =
    forward_closure ~seeds:callbacks ~edge_ok:(fun _ -> true) units
  in
  (* Everything a callback can execute without ever passing node-derived
     data along the way: helpers reached like this operate on state the
     analysis cannot tie to the delivering node.  A call that forwards a
     node-derived argument is a trust boundary — the callee is presumed
     to work on that node's state (documented approximation, DESIGN §13). *)
  let reach_blind =
    forward_closure ~seeds:callbacks ~edge_ok:(fun c -> not c.c_fwd) units
  in
  let advice =
    " — in the radio model a node changes only its own state, so a \
     cross-node or shared-accumulator write is a simulation device; index \
     through the callback's ~node argument, use node-local scratch, make \
     shared aggregates Atomic.t, or name the device in a reasoned \
     rblint:allow R12"
  in
  let fs =
    List.concat_map
      (fun uf ->
        if not (in_lib uf.uf_file) then []
        else
          List.filter_map
            (fun w ->
              if w.w_atomic then None
              else if
                w.w_in_scope && (not w.w_node_ok) && Hashtbl.mem reach w.w_node
              then
                Some
                  {
                    g_file = uf.uf_file;
                    g_line = w.w_line;
                    g_rule = "R12";
                    g_msg =
                      "cross-node write in a protocol callback: the target \
                       of " ^ w.w_desc
                      ^ " is not derived from the callback's ~node argument \
                         or node-local scratch" ^ advice;
                    g_anchors = w.w_anchors;
                  }
              else if
                (not w.w_in_scope) && Hashtbl.mem reach_blind w.w_node
              then
                Some
                  {
                    g_file = uf.uf_file;
                    g_line = w.w_line;
                    g_rule = "R12";
                    g_msg =
                      "shared-state write (" ^ w.w_desc ^ ") in `"
                      ^ string_of_key w.w_node
                      ^ "`, reachable from a protocol callback without a \
                         node-derived argument" ^ advice;
                    g_anchors = w.w_anchors;
                  }
              else None)
            uf.uf_writes
          @ List.filter_map
              (fun c ->
                match rng_op_of_key c.c_callee with
                | Some op
                  when rng_consuming op && (not c.c_fwd)
                       && ((c.c_scope && Hashtbl.mem reach c.c_caller)
                          || ((not c.c_scope)
                             && Hashtbl.mem reach_blind c.c_caller)) ->
                    Some
                      {
                        g_file = uf.uf_file;
                        g_line = c.c_line;
                        g_rule = "R12";
                        g_msg =
                          "shared Rng draw (Rng." ^ op
                          ^ ") in a protocol callback: the stream is not \
                             node-derived, so the draw order would depend \
                             on which callbacks the engine runs and in \
                             what order — draw from a per-node stream \
                             (e.g. Rng.split_n at setup)" ^ advice;
                        g_anchors = [ c.c_line ];
                      }
                | _ -> None)
              uf.uf_calls)
      units
  in
  sort_findings fs

(* ------------------------------------------------------------------ *)
(* R14 — registry coverage of protocol pipelines                       *)

let r14_findings units =
  (* Nodes that register an entry, plus everything those registrations
     reference: an entry's run wrapper links the registered name to the
     pipeline it drives, so the whole pipeline counts as covered. *)
  let register_seeds =
    List.concat_map
      (fun uf ->
        List.filter_map
          (fun c ->
            if is_registry_register c.c_callee then Some c.c_caller else None)
          uf.uf_calls)
      units
  in
  let covered =
    forward_closure ~seeds:register_seeds ~edge_ok:(fun _ -> true) units
  in
  (* Nodes that transitively drive an engine: backward reachability from
     Drive/Engine/Engine_sparse run call sites. *)
  let drives =
    propagate
      ~seed_iter:(fun mark ->
        List.iter
          (fun uf ->
            List.iter
              (fun c ->
                if is_engine_run c.c_callee then
                  mark c.c_caller
                    (`Direct (string_of_key c.c_callee, c.c_line)))
              uf.uf_calls)
          units)
      ~edge_ok:(fun _ -> true)
      ~skip:(fun _ -> false)
      units
  in
  let fs =
    List.concat_map
      (fun uf ->
        if not (in_lib uf.uf_file) then []
        else
          List.filter_map
            (fun p ->
              if
                Hashtbl.mem drives p.p_node
                && not (Hashtbl.mem covered p.p_node)
              then
                Some
                  {
                    g_file = uf.uf_file;
                    g_line = p.p_line;
                    g_rule = "R14";
                    g_msg =
                      "protocol pipeline `" ^ string_of_key p.p_node
                      ^ "` constructs a protocol and drives an engine but \
                         is not reachable from any Rn_radio.Registry \
                         registration: add an entry (lib/core/protocols.ml) \
                         so rbcast/bench/tests and the contract rules \
                         R11 and R12 see it, or mark an internal driver with a \
                         reasoned rblint:allow R14";
                    g_anchors = p.p_anchors;
                  }
              else None)
            uf.uf_protos)
      units
  in
  sort_findings fs
