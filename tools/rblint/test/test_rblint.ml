(* Fixture-driven self-tests for rblint: every rule must fire on its bad
   fixture, stay quiet on the clean one, and the suppression grammar must
   require a reason.  Fixtures are typechecked in-process and linted under
   a pretend path inside lib/core/ (or wherever the rule's scope needs)
   so the scoped rules (R2, R4) apply.  The v2 cases prove the typed
   analysis sees what the untyped v1 pass provably could not: bare-variable
   polymorphic comparisons, aliased hot-path callees, and mutable state
   crossing Domain.spawn.  The v3 cases exercise the interprocedural
   engine: call-graph extraction through aliases/opens/mutual recursion,
   R8 determinism taint with sanctioned sinks, R9 unsafe-index dominance,
   R10 RNG-stream linearity, span-scoped suppressions, and the
   suppression-debt ledger behind --audit. *)

let read_fixture name =
  let path = Filename.concat "fixtures" name in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let lint_as ~path name =
  Lint.lint_source ~path ~source:(read_fixture name)

let rules fs = List.sort_uniq String.compare (List.map (fun f -> f.Lint.rule) fs)

let count rule fs =
  List.length (List.filter (fun f -> f.Lint.rule = rule) fs)

let check_rules what expected fs =
  Alcotest.(check (list string)) what expected (rules fs)

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let replace ~sub ~by s =
  let sl = String.length sub in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + sl <= String.length s && String.sub s !i sl = sub then begin
      Buffer.add_string b by;
      i := !i + sl
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_r1 () =
  let fs = lint_as ~path:"bench/bad_r1.ml" "bad_r1.ml" in
  check_rules "R1 only" [ "R1" ] fs;
  (* self_init, int, Stdlib.Random.bits, module alias: four sites *)
  Alcotest.(check int) "four R1 sites" 4 (count "R1" fs);
  (* rng.ml itself is exempt *)
  let fs = lint_as ~path:"lib/util/rng.ml" "bad_r1.ml" in
  Alcotest.(check int) "rng.ml exempt" 0 (List.length fs)

let test_r2 () =
  let fs = lint_as ~path:"lib/core/bad_r2.ml" "bad_r2.ml" in
  check_rules "R2 only" [ "R2" ] fs;
  Alcotest.(check int) "six R2 sites" 6 (count "R2" fs);
  (* outside the scoped directories the same code is not R2-flagged *)
  let fs = lint_as ~path:"bench/bad_r2.ml" "bad_r2.ml" in
  Alcotest.(check int) "bench exempt from R2" 0 (count "R2" fs)

let test_r2_typed () =
  (* The v1 blind spot: [a = b] between bare variables carries no token the
     parsetree could match; only the operand types expose it. *)
  let fs = lint_as ~path:"lib/core/bad_r2_typed.ml" "bad_r2_typed.ml" in
  check_rules "R2 only" [ "R2" ] fs;
  Alcotest.(check int) "record, option, list comparisons flagged" 3
    (count "R2" fs);
  (* each message names the offending operand type *)
  let msgs = List.map (fun f -> f.Lint.msg) fs in
  List.iter2
    (fun ty msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message mentions %s" ty)
        true
        (let tyl = String.length ty and n = String.length msg in
         let rec scan i =
           i + tyl <= n && (String.sub msg i tyl = ty || scan (i + 1))
         in
         scan 0))
    [ "point"; "int option"; "int list" ]
    msgs

let test_r2_minmax () =
  (* min/max get a narrower allowlist than the comparison operators:
     immediate types only — float min/max is the NaN-order bug even though
     float [=] is specialized. *)
  let fs = lint_as ~path:"lib/util/bad_r2_minmax.ml" "bad_r2_minmax.ml" in
  check_rules "R2 only" [ "R2" ] fs;
  Alcotest.(check int)
    "fold_left min, applied float max, tuple min flagged; int/char clean" 3
    (count "R2" fs);
  (* outside the scoped directories nothing fires *)
  let fs = lint_as ~path:"bench/bad_r2_minmax.ml" "bad_r2_minmax.ml" in
  Alcotest.(check int) "bench exempt" 0 (count "R2" fs)

let test_r2_generic () =
  (* Generic Hashtbl lookups/updates and List.mem/assoc hide caml_hash and
     caml_compare behind a call, whatever the key type; the monomorphic
     replacements stay clean. *)
  let fs = lint_as ~path:"lib/core/bad_r2_generic.ml" "bad_r2_generic.ml" in
  check_rules "R2 only" [ "R2" ] fs;
  Alcotest.(check int) "six Hashtbl, five List, one as a value" 12
    (count "R2" fs);
  let fs = lint_as ~path:"bench/bad_r2_generic.ml" "bad_r2_generic.ml" in
  Alcotest.(check int) "bench exempt" 0 (count "R2" fs);
  let fs = lint_as ~path:"lib/core/ok_r2_generic.ml" "ok_r2_generic.ml" in
  check_rules "monomorphic replacements clean" [] fs

let test_r3 () =
  let fs = lint_as ~path:"examples/bad_r3.ml" "bad_r3.ml" in
  check_rules "R3 only" [ "R3" ] fs;
  Alcotest.(check int) "two R3 sites" 2 (count "R3" fs)

let test_r4 () =
  let fs = lint_as ~path:"lib/coding/bad_r4.ml" "bad_r4.ml" in
  check_rules "R4 only" [ "R4" ] fs;
  Alcotest.(check int) "four R4 sites" 4 (count "R4" fs);
  (* printing is fine outside lib/ *)
  let fs = lint_as ~path:"bin/bad_r4.ml" "bad_r4.ml" in
  Alcotest.(check int) "bin may print" 0 (List.length fs)

let test_r5 () =
  let fs = lint_as ~path:"lib/radio/bad_r5.ml" "bad_r5.ml" in
  check_rules "R5 only" [ "R5" ] fs;
  Alcotest.(check int) "three R5 sites" 3 (count "R5" fs)

let test_r5_alias () =
  (* v1 matched callee names syntactically; [module L = List],
     [let open Array in] and [let module M = List in] all dodged it. *)
  let fs = lint_as ~path:"lib/radio/bad_r5_alias.ml" "bad_r5_alias.ml" in
  check_rules "R5 only" [ "R5" ] fs;
  Alcotest.(check int) "alias, open, local alias all resolved" 3
    (count "R5" fs)

let test_r5_frontier () =
  (* The sparse engine's frontier loop: list-kept frontiers and
     closure-allocating drains fire; the sanctioned int-stack drain
     (index loop, no closures) stays clean. *)
  let fs = lint_as ~path:"lib/radio/bad_r5_frontier.ml" "bad_r5_frontier.ml" in
  check_rules "R5 only" [ "R5" ] fs;
  Alcotest.(check int) "three R5 sites, int-stack drain clean" 3
    (count "R5" fs)

let test_r6 () =
  let fs = lint_as ~path:"lib/radio/bad_r6.ml" "bad_r6.ml" in
  check_rules "R6 only" [ "R6" ] fs;
  (* ref, array, bytes, hashtbl, mutable record — the Atomic tally is the
     sanctioned pattern and must stay clean *)
  Alcotest.(check int) "five R6 sites, Atomic exempt" 5 (count "R6" fs);
  (* the same module without a Domain.spawn anywhere is not domain-shared,
     so R6 stays quiet: reachability gates the rule *)
  let source = read_fixture "bad_r6.ml" in
  let serial =
    "let serial_apply f = f ()\n"
    ^ replace ~sub:"Domain.join" ~by:"ignore"
        (replace ~sub:"Domain.spawn" ~by:"serial_apply" source)
  in
  let fs = Lint.lint_source ~path:"lib/radio/bad_r6_serial.ml" ~source:serial in
  Alcotest.(check int) "no spawn, no R6" 0 (List.length fs)

let test_r7 () =
  let fs = lint_as ~path:"lib/radio/bad_r7.ml" "bad_r7.ml" in
  check_rules "R7 only" [ "R7" ] fs;
  (* the direct ref capture and the one hidden behind a worker function;
     the Atomic twin stays clean *)
  Alcotest.(check int) "two R7 sites, Atomic exempt" 2 (count "R7" fs)

let test_r6_sharded () =
  (* The sharded-engine shape: hoisting a run's lane state ([out_act],
     shard cuts) to the top level of a spawning module must fire once per
     array; the Atomic rounds tally stays sanctioned. *)
  let fs = lint_as ~path:"lib/radio/bad_r6_sharded.ml" "bad_r6_sharded.ml" in
  check_rules "R6 only" [ "R6" ] fs;
  Alcotest.(check int) "out_act and cuts flagged, Atomic tally exempt" 2
    (count "R6" fs)

let test_r6_frontier () =
  (* The sparse-engine shape: per-run frontier scratch (transmitter stack,
     touched bytes, a ref tally) hoisted to the top of a spawning module
     fires once per binding; the Atomic skip counter is the sanctioned
     cross-domain tally. *)
  let fs = lint_as ~path:"lib/radio/bad_r6_frontier.ml" "bad_r6_frontier.ml" in
  check_rules "R6 only" [ "R6" ] fs;
  Alcotest.(check int) "stack, touched bytes and tally ref flagged" 3
    (count "R6" fs)

let test_r7_sharded () =
  (* Disjoint-ownership sharing is invisible to the analysis; the reasoned
     allow is the sanctioned escape hatch, and stripping it must resurface
     exactly the one spawn capture. *)
  let fs = lint_as ~path:"lib/radio/good_r7_sharded.ml" "good_r7_sharded.ml" in
  Alcotest.(check int) "reasoned allow keeps the lane worker clean" 0
    (List.length fs);
  let stripped =
    replace ~sub:"rblint:allow R7" ~by:"ownership note:"
      (read_fixture "good_r7_sharded.ml")
  in
  let fs =
    Lint.lint_source ~path:"lib/radio/good_r7_sharded_stripped.ml"
      ~source:stripped
  in
  check_rules "allow stripped: R7 resurfaces" [ "R7" ] fs;
  Alcotest.(check int) "exactly the one spawn capture" 1 (count "R7" fs)

let test_reachability () =
  (* R6 candidates fire only in units reachable from a spawner: a unit
     that imports the spawner (it hands closures to workers) is shared;
     an unrelated unit with identical mutable state is not. *)
  let candidate file =
    {
      Lint.file;
      line = 3;
      col = 0;
      rule = "R6";
      msg = "top-level ref";
      anchors = [];
    }
  in
  let unit ~path ~modname ~imports ~spawns ~r6 =
    {
      Lint.u_path = path;
      u_modname = modname;
      u_imports = imports;
      u_spawns = spawns;
      u_findings = [];
      u_r6 = (if r6 then [ candidate path ] else []);
      u_allows = [];
      u_facts = Callgraph.empty_facts;
    }
  in
  let runner =
    unit ~path:"lib/radio/runner.ml" ~modname:"Runner" ~imports:[]
      ~spawns:true ~r6:false
  in
  let feeder =
    unit ~path:"bench/main.ml" ~modname:"Main" ~imports:[ "Runner" ]
      ~spawns:false ~r6:true
  in
  let dep_of_feeder =
    unit ~path:"lib/util/table.ml" ~modname:"Table" ~imports:[] ~spawns:false
      ~r6:true
  in
  let feeder' = { feeder with Lint.u_imports = [ "Runner"; "Table" ] } in
  let unrelated =
    unit ~path:"tools/plot.ml" ~modname:"Plot" ~imports:[] ~spawns:false
      ~r6:true
  in
  let fs = Lint.finalize [ runner; feeder'; dep_of_feeder; unrelated ] in
  Alcotest.(check (list string))
    "feeder and its deps flagged, unrelated unit clean"
    [ "bench/main.ml"; "lib/util/table.ml" ]
    (List.map (fun f -> f.Lint.file) fs)

(* ------------------------------------------------------------------ *)
(* v3: call graph, R8/R9/R10, span suppressions, audit ledger          *)

let test_cg_edges () =
  let u =
    Lint.lint_unit_of_source ~path:"lib/radio/cg_edges.ml"
      ~source:(read_fixture "cg_edges.ml")
  in
  let es = Callgraph.edges [ u.Lint.u_facts ] in
  let has caller callee =
    List.exists (fun (c, e, _) -> c = caller && e = callee) es
  in
  let k xs = "Cg_edges" :: xs in
  Alcotest.(check bool) "nested: A.inner -> base" true
    (has (k [ "A"; "inner" ]) (k [ "base" ]));
  Alcotest.(check bool) "aliased: via_alias -> A.inner (module B = A)" true
    (has (k [ "via_alias" ]) (k [ "A"; "inner" ]));
  Alcotest.(check bool) "opened: via_open -> A.inner (open A)" true
    (has (k [ "via_open" ]) (k [ "A"; "inner" ]));
  Alcotest.(check bool) "mutual: even -> odd (forward reference)" true
    (has (k [ "even" ]) (k [ "odd" ]));
  Alcotest.(check bool) "mutual: odd -> even" true
    (has (k [ "odd" ]) (k [ "even" ]))

let test_r8 () =
  let fs = lint_as ~path:"lib/radio/bad_r8.ml" "bad_r8.ml" in
  check_rules "R8 only" [ "R8" ] fs;
  (* now -> jitter -> schedule_delay, plus the two direct users *)
  Alcotest.(check int) "three-deep chain + Hashtbl + Gc" 5 (count "R8" fs);
  Alcotest.(check bool) "witness chain names the source" true
    (List.exists (fun f -> contains "Sys.time" f.Lint.msg) fs);
  Alcotest.(check bool) "witness chain walks the calls" true
    (List.exists
       (fun f ->
         contains "Bad_r8.schedule_delay -> Bad_r8.jitter" f.Lint.msg)
       fs);
  (* outside lib/ wall-clock is free: that is where bench timing lives *)
  let fs = lint_as ~path:"bench/bad_r8.ml" "bad_r8.ml" in
  Alcotest.(check int) "bench exempt" 0 (count "R8" fs)

let test_r8_sink () =
  let source = read_fixture "ok_r8_wallclock.ml" in
  let fs = Lint.lint_source ~path:"lib/radio/ok_r8_wallclock.ml" ~source in
  Alcotest.(check int) "unsanctioned: now and its caller tainted" 2
    (count "R8" fs);
  let fs =
    Lint.lint_source_sinks
      ~r8_sinks:[ [ "Ok_r8_wallclock"; "now" ] ]
      ~path:"lib/radio/ok_r8_wallclock.ml" ~source
  in
  Alcotest.(check int) "sanctioned sink absorbs the taint" 0 (List.length fs)

let test_r9 () =
  let fs = lint_as ~path:"lib/coding/bad_r9.ml" "bad_r9.ml" in
  check_rules "R9 only" [ "R9" ] fs;
  (* length-derived for bound, raising precondition and if comparison are
     clean; the two unchecked accesses and the bare alias fire *)
  Alcotest.(check int) "guarded forms clean, three sites fire" 3
    (count "R9" fs)

let test_r10 () =
  let fs = lint_as ~path:"lib/radio/bad_r10.ml" "bad_r10.ml" in
  check_rules "R10 only" [ "R10" ] fs;
  (* two spawn captures, use-after-handoff, double consumption through a
     callee, and the module-state stream *)
  Alcotest.(check int) "all four ownership violations" 4 (count "R10" fs);
  Alcotest.(check bool) "use-after-handoff names the race" true
    (List.exists (fun f -> contains "used again after" f.Lint.msg) fs);
  let fs = lint_as ~path:"lib/radio/ok_r10_split.ml" "ok_r10_split.ml" in
  Alcotest.(check int) "split-per-owner is clean" 0 (List.length fs)

let test_r6_campaign () =
  (* The campaign-runner shape: a lazily-filled topology cache and steal
     pointers hoisted to the top of a spawning module fire once per
     binding; rn_campaign keeps them run-local (cache frozen before
     workers start, queue indices behind the run's mutex). *)
  let fs =
    lint_as ~path:"lib/campaign/bad_r6_campaign.ml" "bad_r6_campaign.ml"
  in
  check_rules "R6 only" [ "R6" ] fs;
  Alcotest.(check int) "cache slots and both steal pointers, Atomic exempt" 3
    (count "R6" fs)

let test_r10_campaign () =
  (* The campaign's per-cell stream discipline violated: a stolen cell
     re-consumes the owner lane's stream, and the coordinator draws from
     a stream it handed off.  rn_campaign derives a fresh stream per job
     key, so neither shape can occur there. *)
  let fs =
    lint_as ~path:"lib/campaign/bad_r10_campaign.ml" "bad_r10_campaign.ml"
  in
  check_rules "R10 only" [ "R10" ] fs;
  Alcotest.(check int) "stolen-cell race and coordinator handoff" 2
    (count "R10" fs)

let test_r11 () =
  let fs = lint_as ~path:"lib/core/bad_r11.ml" "bad_r11.ml" in
  check_rules "R11 only" [ "R11" ] fs;
  (* the unconditional counter and the counted Silence arm *)
  Alcotest.(check int) "both delivers fire" 2 (count "R11" fs);
  let fs = lint_as ~path:"lib/core/ok_r11.ml" "ok_r11.ml" in
  Alcotest.(check int) "guarded delivers are clean" 0 (List.length fs);
  (* the acceptance probe: un-guarding the Silence arm turns the lint red *)
  let unguarded =
    replace ~sub:"| Engine.Silence -> ()"
      ~by:"| Engine.Silence -> Atomic.incr got"
      (read_fixture "ok_r11.ml")
  in
  let fs = Lint.lint_source ~path:"lib/core/ok_r11b.ml" ~source:unguarded in
  check_rules "Silence guard deleted: R11 resurfaces" [ "R11" ] fs

let test_r12 () =
  let fs = lint_as ~path:"lib/core/bad_r12.ml" "bad_r12.ml" in
  check_rules "R12 only" [ "R12" ] fs;
  (* message-indexed write, helper's shared counter, round-keyed decide *)
  Alcotest.(check int) "all three non-local writes fire" 3 (count "R12" fs);
  let fs = lint_as ~path:"lib/core/ok_r12.ml" "ok_r12.ml" in
  Alcotest.(check int) "node-indexed + Atomic aggregate is clean" 0
    (List.length fs)

let test_r14 () =
  let fs = lint_as ~path:"lib/core/bad_r14.ml" "bad_r14.ml" in
  check_rules "R14 only" [ "R14" ] fs;
  Alcotest.(check int) "both unregistered drivers fire (Engine.run, Drive.run)"
    2 (count "R14" fs);
  let fs = lint_as ~path:"lib/core/ok_r14.ml" "ok_r14.ml" in
  Alcotest.(check int) "registered pipeline is covered" 0 (List.length fs)

let test_suppress_multiline () =
  let fs =
    lint_as ~path:"lib/core/ok_suppress_multiline.ml" "ok_suppress_multiline.ml"
  in
  Alcotest.(check int) "marker above the definition reaches the inner line" 0
    (List.length fs);
  let stripped =
    replace ~sub:"rblint:allow R2" ~by:"ownership note:"
      (read_fixture "ok_suppress_multiline.ml")
  in
  let fs =
    Lint.lint_source ~path:"lib/core/ok_suppress_multiline2.ml"
      ~source:stripped
  in
  check_rules "marker stripped: the inner R2 resurfaces" [ "R2" ] fs

let test_audit_ledger () =
  let u path name =
    Lint.lint_unit_of_source ~path ~source:(read_fixture name)
  in
  let units =
    [
      u "lib/core/ok_suppress_multiline.ml" "ok_suppress_multiline.ml";
      u "lib/core/stale_allow.ml" "stale_allow.ml";
    ]
  in
  let findings, ledger = Lint.finalize_full units in
  Alcotest.(check int) "no findings" 0 (List.length findings);
  Alcotest.(check int) "two allows in the ledger" 2 (List.length ledger);
  Alcotest.(check int) "one used" 1
    (List.length (List.filter (fun e -> e.Lint.l_used) ledger));
  (match List.filter (fun e -> not e.Lint.l_used) ledger with
  | [ e ] ->
      Alcotest.(check string) "stale file" "lib/core/stale_allow.ml"
        e.Lint.l_file;
      Alcotest.(check string) "stale rule" "R2" e.Lint.l_rule
  | _ -> Alcotest.fail "expected exactly one stale allow");
  let lines, nstale = Audit.report ~json:false ~ages:false ledger in
  Alcotest.(check int) "report counts one stale" 1 nstale;
  Alcotest.(check bool) "text summary row" true
    (List.exists (contains "2 allows, 1 stale") lines);
  Alcotest.(check bool) "stale row is marked" true
    (List.exists (contains "STALE") lines);
  match Audit.report ~json:true ~ages:false ledger with
  | [ j ], _ ->
      Alcotest.(check bool) "json total" true (contains "\"total\": 2" j);
      Alcotest.(check bool) "json stale count" true
        (contains "\"stale\": 1" j);
      Alcotest.(check bool) "json null age when disabled" true
        (contains "\"age_days\": null" j)
  | _ -> Alcotest.fail "expected a single json line"

let test_clean () =
  let fs = lint_as ~path:"lib/core/ok_clean.ml" "ok_clean.ml" in
  Alcotest.(check int) "clean fixture has no findings" 0 (List.length fs)

let test_suppression () =
  let fs = lint_as ~path:"lib/core/ok_suppressed.ml" "ok_suppressed.ml" in
  Alcotest.(check int) "reasoned allows suppress" 0 (List.length fs);
  let fs = lint_as ~path:"lib/core/bad_suppress.ml" "bad_suppress.ml" in
  check_rules "reasonless allow: R0 + surviving R2" [ "R0"; "R2" ] fs

let test_positions () =
  let fs = lint_as ~path:"lib/core/bad_r2.ml" "bad_r2.ml" in
  match fs with
  | f :: _ ->
      Alcotest.(check string) "file recorded" "lib/core/bad_r2.ml" f.Lint.file;
      Alcotest.(check int) "first finding on line 5" 5 f.Lint.line;
      Alcotest.(check bool) "column is sane" true (f.Lint.col > 0);
      let printed = Lint.pp_finding f in
      Alcotest.(check bool) "pp has file:line:col prefix" true
        (String.length printed > 0
        && String.sub printed 0 (String.length "lib/core/bad_r2.ml:5:")
           = "lib/core/bad_r2.ml:5:")
  | [] -> Alcotest.fail "expected findings"

let test_parse_error () =
  let fs = Lint.lint_source ~path:"lib/core/broken.ml" ~source:"let let = in" in
  check_rules "syntax errors reported" [ "PARSE" ] fs

let test_type_error () =
  let fs =
    Lint.lint_source ~path:"lib/core/illtyped.ml"
      ~source:"let x : int = \"not an int\""
  in
  check_rules "type errors reported" [ "TYPE" ] fs

let test_json () =
  let f =
    {
      Lint.file = "lib/a.ml";
      line = 3;
      col = 7;
      rule = "R2";
      msg = "a \"b\"";
      anchors = [];
    }
  in
  Alcotest.(check string)
    "json escaping"
    "{ \"file\": \"lib/a.ml\", \"line\": 3, \"col\": 7, \"rule\": \"R2\", \
     \"msg\": \"a \\\"b\\\"\" }"
    (Lint.json_of_finding f)

let () =
  Alcotest.run "rblint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 randomness" `Quick test_r1;
          Alcotest.test_case "R2 polymorphic compare" `Quick test_r2;
          Alcotest.test_case "R2 generic Hashtbl/List" `Quick test_r2_generic;
          Alcotest.test_case "R2 typed operands (v1 blind spot)" `Quick
            test_r2_typed;
          Alcotest.test_case "R2 min/max immediate-only" `Quick test_r2_minmax;
          Alcotest.test_case "R3 Obj" `Quick test_r3;
          Alcotest.test_case "R4 printing" `Quick test_r4;
          Alcotest.test_case "R5 hot-path traversals" `Quick test_r5;
          Alcotest.test_case "R5 aliased callees (v1 blind spot)" `Quick
            test_r5_alias;
          Alcotest.test_case "R6 top-level mutable state" `Quick test_r6;
          Alcotest.test_case "R7 spawn captures" `Quick test_r7;
          Alcotest.test_case "R5 frontier shapes" `Quick test_r5_frontier;
          Alcotest.test_case "R6 sharded-engine shape" `Quick test_r6_sharded;
          Alcotest.test_case "R6 frontier scratch" `Quick test_r6_frontier;
          Alcotest.test_case "R7 sharded allow round-trip" `Quick
            test_r7_sharded;
          Alcotest.test_case "R6 reachability gating" `Quick test_reachability;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "call-graph edges" `Quick test_cg_edges;
          Alcotest.test_case "R8 determinism taint" `Quick test_r8;
          Alcotest.test_case "R8 sanctioned sinks" `Quick test_r8_sink;
          Alcotest.test_case "R9 unsafe-index dominance" `Quick test_r9;
          Alcotest.test_case "R10 rng ownership" `Quick test_r10;
          Alcotest.test_case "R6 campaign cache shape" `Quick test_r6_campaign;
          Alcotest.test_case "R10 campaign steal shape" `Quick
            test_r10_campaign;
          Alcotest.test_case "R11 silence purity" `Quick test_r11;
          Alcotest.test_case "R12 write locality" `Quick test_r12;
          Alcotest.test_case "R14 registry coverage" `Quick test_r14;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "clean fixture" `Quick test_clean;
          Alcotest.test_case "suppressions" `Quick test_suppression;
          Alcotest.test_case "span-scoped suppression" `Quick
            test_suppress_multiline;
          Alcotest.test_case "audit ledger" `Quick test_audit_ledger;
          Alcotest.test_case "finding positions" `Quick test_positions;
          Alcotest.test_case "parse errors" `Quick test_parse_error;
          Alcotest.test_case "type errors" `Quick test_type_error;
          Alcotest.test_case "json output" `Quick test_json;
        ] );
    ]
