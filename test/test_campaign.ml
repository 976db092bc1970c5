(* Campaign runner: spec expansion, journal round-trips, and the crash
   recovery contract of DESIGN.md §14 — a campaign killed after an
   arbitrary prefix of cells and resumed from its journal must produce
   output byte-identical to an uninterrupted run, at every domain count,
   schedule, and cache setting, while re-running zero journaled cells. *)

open Rn_campaign
open Rn_broadcast

let () = Protocols.ensure_registered ()

(* Force real worker domains so domains 2/4 genuinely cross the pool on
   small machines (the hardware cap would otherwise degrade every lane to
   the calling domain and the byte-identity checks would be vacuous). *)
let () =
  Atomic.set Rn_radio.Runner.Pool.size_cap
    (max 8 (Atomic.get Rn_radio.Runner.Pool.size_cap))

let parse_ok text =
  match Spec.parse text with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "spec rejected: %s" msg

let parse_err text =
  match Spec.parse text with
  | Ok _ -> Alcotest.failf "spec accepted: %s" text
  | Error msg -> msg

let small_spec =
  "{\"topo\":\"path\",\"n\":10}\n"
  ^ "{\"topo\":\"layered\",\"depth\":3,\"width\":3,\"p\":0.5,\"seeds\":[1,2]}\n"
  ^ "# a comment line\n" ^ "{\"proto\":\"decay\"}\n" ^ "{\"proto\":\"cr\"}\n"
  ^ "{\"seeds\":[1,2,3]}\n"

(* --- spec ----------------------------------------------------------- *)

let test_spec_expansion () =
  let spec = parse_ok small_spec in
  let instances = Spec.instances spec in
  let cells = Spec.cells spec in
  Alcotest.(check int) "instances" 3 (Array.length instances);
  Alcotest.(check int) "cells = 3 topos * 2 protos * 3 seeds" 18
    (Array.length cells);
  Alcotest.(check string)
    "first instance label" "path(n=10)"
    (Spec.instance_label instances.(0));
  Alcotest.(check string)
    "seeded instance label" "layered(depth=3,width=3,p=0.5,tseed=2)"
    (Spec.instance_label instances.(2));
  Array.iteri
    (fun i (c : Spec.cell) ->
      Alcotest.(check int) "idx is position" i c.idx;
      Alcotest.(check int) "key is 16 hex chars" 16 (String.length c.key))
    cells;
  Alcotest.(check string)
    "first cell label" "path(n=10)|decay|seed=1"
    cells.(0).label;
  (* keys are distinct and schedule-independent: derived only from labels *)
  let keys = Array.to_list (Array.map (fun (c : Spec.cell) -> c.key) cells) in
  let sorted = List.sort_uniq String.compare keys in
  Alcotest.(check int) "keys distinct" (List.length keys) (List.length sorted)

let test_spec_build_deterministic () =
  let spec = parse_ok small_spec in
  let inst = (Spec.instances spec).(1) in
  let a = Spec.build inst and b = Spec.build inst in
  Alcotest.(check int)
    "same node count" (Rn_graph.Graph.n a) (Rn_graph.Graph.n b);
  let da = Rn_graph.Gen.dot a and db = Rn_graph.Gen.dot b in
  Alcotest.(check string) "byte-identical rebuild" da db

let test_spec_errors () =
  let has needle msg =
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" msg needle)
      true
      (let rec find i =
         i + String.length needle <= String.length msg
         && (String.equal (String.sub msg i (String.length needle)) needle
            || find (i + 1))
       in
       find 0)
  in
  has "unknown generator" (parse_err "{\"topo\":\"moebius\",\"n\":4}\n{\"proto\":\"decay\"}");
  has "unknown field" (parse_err "{\"topo\":\"path\",\"n\":4,\"m\":2}\n{\"proto\":\"decay\"}");
  has "deterministic" (parse_err "{\"topo\":\"path\",\"n\":4,\"seeds\":[1]}\n{\"proto\":\"decay\"}");
  has "no \"proto\"" (parse_err "{\"topo\":\"path\",\"n\":4}");
  has "no \"topo\"" (parse_err "{\"proto\":\"decay\"}");
  has "duplicate" (parse_err "{\"topo\":\"path\",\"n\":4}\n{\"proto\":\"decay\"}\n{\"proto\":\"decay\"}");
  has "needs integer" (parse_err "{\"topo\":\"path\"}\n{\"proto\":\"decay\"}");
  has "spec line 2" (parse_err "{\"topo\":\"path\",\"n\":4}\nnot json\n{\"proto\":\"decay\"}")

(* --- journal --------------------------------------------------------- *)

let test_journal_roundtrip () =
  let line =
    Journal.line ~idx:17 ~key:"00ff00ff00ff00ff" ~cell:"path(n=4)|decay|seed=1"
      ~rounds:42 ~delivered:true
      ~details:[ ("phase_rounds", "12,8"); ("note", "a\"b\\c") ]
  in
  (match Journal.parse_line line with
  | Some (idx, key, rounds) ->
      Alcotest.(check int) "idx" 17 idx;
      Alcotest.(check string) "key" "00ff00ff00ff00ff" key;
      Alcotest.(check int) "rounds" 42 rounds
  | None -> Alcotest.fail "journal line failed to parse");
  Alcotest.(check (option (triple int string int)))
    "garbage line rejected" None
    (Journal.parse_line "{\"idx\":3,\"key\":\"ab");
  Alcotest.(check (option (triple int string int)))
    "non-journal object rejected" None
    (Journal.parse_line "{\"rounds\":3}")

(* Regression for ISSUE 10 satellite: a journal line torn inside the
   details can still close as valid JSON with idx/key/rounds intact —
   before the end-of-record seal, merge/resume mistook it for a complete
   cell. *)
let test_journal_truncated_but_valid_json () =
  let full =
    Journal.line ~idx:5 ~key:"00ff00ff00ff00ff" ~cell:"path(n=4)|decay|seed=1"
      ~rounds:42 ~delivered:true
      ~details:[ ("phase_rounds", "12,8"); ("gst_rounds", "9") ]
  in
  (match Journal.parse_line full with
  | Some _ -> ()
  | None -> Alcotest.fail "sealed full line must parse");
  (* byte-level truncation at the start of the details, re-closed by the
     torn byte stream: the result is valid JSON carrying idx/key/rounds *)
  let cut =
    let rec find i =
      if i + 4 > String.length full then Alcotest.fail "no details found"
      else if String.equal (String.sub full i 4) ",\"d_" then i
      else find (i + 1)
    in
    find 0
  in
  let torn = String.sub full 0 cut ^ "}" in
  (match Rn_util.Jsons.parse_obj torn with
  | Ok fields ->
      (* the trap: the torn line still looks complete field-wise *)
      Alcotest.(check (option int))
        "torn line still has idx" (Some 5)
        (Rn_util.Jsons.int_mem "idx" fields)
  | Error _ -> Alcotest.fail "torn line should still be valid JSON");
  Alcotest.(check (option (triple int string int)))
    "torn-but-valid-JSON line rejected" None (Journal.parse_line torn);
  (* an unsealed (pre-ISSUE-10) line is rejected too: resume re-runs it *)
  let unsealed =
    "{\"idx\":5,\"key\":\"00ff00ff00ff00ff\",\"cell\":\"c\",\"rounds\":42,\
     \"delivered\":true}"
  in
  Alcotest.(check (option (triple int string int)))
    "unsealed line rejected" None (Journal.parse_line unsealed);
  (* a glued line (torn tail + later record appended) must not parse even
     when the glue point makes the bytes scan as one JSON object *)
  let glued = String.sub full 0 cut ^ String.sub full cut (String.length full - cut) ^ "" in
  Alcotest.(check (option (triple int string int)))
    "identity glue still parses (sanity)" (Some (5, "00ff00ff00ff00ff", 42))
    (Journal.parse_line glued);
  let padded =
    (* extra bytes between details and seal: length check must fail *)
    let l = String.length full in
    String.sub full 0 (l - 1) ^ ",\"d_x\":\"1\"}"
  in
  Alcotest.(check (option (triple int string int)))
    "seal not last field rejected" None (Journal.parse_line padded)

(* One verdict for resume, the supervisor and the merge: a line is its
   cell's only when sealed, in range and keyed to that cell. *)
let test_journal_classify () =
  let cells = Spec.cells (parse_ok small_spec) in
  let c = cells.(2) in
  let line ~idx ~key =
    Journal.line ~idx ~key ~cell:c.Spec.label ~rounds:7 ~delivered:true
      ~details:[]
  in
  let verdict l =
    match Journal.classify cells l with
    | Journal.Torn -> "torn"
    | Journal.Stale -> "stale"
    | Journal.Cell { idx; rounds } -> Printf.sprintf "cell %d rounds %d" idx rounds
  in
  let ok = line ~idx:2 ~key:c.Spec.key in
  Alcotest.(check string) "own cell" "cell 2 rounds 7" (verdict ok);
  Alcotest.(check string) "torn" "torn"
    (verdict (String.sub ok 0 (String.length ok - 2)));
  Alcotest.(check string) "other cell's key" "stale"
    (verdict (line ~idx:2 ~key:cells.(3).Spec.key));
  Alcotest.(check string) "index past the spec" "stale"
    (verdict (line ~idx:(Array.length cells) ~key:c.Spec.key));
  Alcotest.(check string) "negative index" "stale"
    (verdict (line ~idx:(-1) ~key:c.Spec.key))

(* --- campaign runs --------------------------------------------------- *)

let run_collect ?domains ?journal ?resume_lines ?abort_after spec =
  let buf = Buffer.create 4096 in
  let stats =
    Campaign.run ?domains ?journal ?resume_lines ?abort_after
      ~emit:(fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      spec
  in
  (Buffer.contents buf, stats)

let test_run_complete () =
  let spec = parse_ok small_spec in
  let out, stats = run_collect ~domains:1 spec in
  Alcotest.(check int) "all cells executed" 18 stats.Campaign.executed;
  Alcotest.(check int) "none replayed" 0 stats.Campaign.replayed;
  Alcotest.(check bool) "not aborted" false stats.Campaign.aborted;
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "one line per cell" 18 (List.length lines);
  (* output is in cell-index order and parses as journal lines *)
  List.iteri
    (fun i line ->
      match Journal.parse_line line with
      | Some (idx, key, _) ->
          Alcotest.(check int) "line order" i idx;
          Alcotest.(check string) "key matches spec" (Spec.cells spec).(i).key
            key
      | None -> Alcotest.failf "unparseable output line %d" i)
    lines

let test_run_schedule_independent () =
  let spec = parse_ok small_spec in
  let reference, _ = run_collect ~domains:1 spec in
  List.iter
    (fun domains ->
      let out, stats = run_collect ~domains spec in
      Alcotest.(check string)
        (Printf.sprintf "bytes at domains=%d" domains)
        reference out;
      Alcotest.(check int)
        "executed all" 18 stats.Campaign.executed)
    [ 1; 2; 4; 8 ]

let test_abort_zero () =
  let spec = parse_ok small_spec in
  let journal = Buffer.create 256 in
  let out, stats =
    run_collect ~domains:2 ~abort_after:0
      ~journal:(fun l ->
        Buffer.add_string journal l;
        Buffer.add_char journal '\n')
      spec
  in
  Alcotest.(check bool) "aborted" true stats.Campaign.aborted;
  Alcotest.(check string) "nothing journaled" "" (Buffer.contents journal);
  Alcotest.(check string) "nothing emitted" "" out

let test_resume_after_corrupt_tail () =
  let spec = parse_ok small_spec in
  let reference, _ = run_collect ~domains:1 spec in
  let journal = Buffer.create 1024 in
  let _, stats =
    run_collect ~domains:1 ~abort_after:7
      ~journal:(fun l ->
        Buffer.add_string journal l;
        Buffer.add_char journal '\n')
      spec
  in
  Alcotest.(check bool) "aborted" true stats.Campaign.aborted;
  (* chop the journal mid-line, as a kill between write and flush would *)
  let j = Buffer.contents journal in
  let torn = String.sub j 0 (String.length j - 9) in
  let lines =
    List.filter
      (fun l -> not (String.equal l ""))
      (String.split_on_char '\n' torn)
  in
  let out, stats = run_collect ~domains:2 ~resume_lines:lines spec in
  Alcotest.(check string) "resume == uninterrupted" reference out;
  Alcotest.(check int) "torn line replays short" 6 stats.Campaign.replayed;
  Alcotest.(check int) "only the rest re-ran" 12 stats.Campaign.executed

let test_resume_ignores_stale_lines () =
  let spec = parse_ok small_spec in
  let reference, _ = run_collect ~domains:1 spec in
  let stale =
    [
      (* right shape, wrong key: a journal from a different spec *)
      Journal.line ~idx:0 ~key:"beefbeefbeefbeef" ~cell:"path(n=9)|decay|seed=1"
        ~rounds:3 ~delivered:true ~details:[];
      "not json at all";
    ]
  in
  let out, stats = run_collect ~resume_lines:stale spec in
  Alcotest.(check string) "stale journal is harmless" reference out;
  Alcotest.(check int) "nothing replayed" 0 stats.Campaign.replayed;
  Alcotest.(check int) "everything re-ran" 18 stats.Campaign.executed

(* --- QCheck: crash at a random prefix, resume, compare bytes ---------- *)

let spec_gen =
  QCheck.Gen.(
    let topo_pool =
      [
        "{\"topo\":\"path\",\"n\":11}";
        "{\"topo\":\"star\",\"n\":9}";
        "{\"topo\":\"grid\",\"w\":3,\"h\":4}";
        "{\"topo\":\"layered\",\"depth\":3,\"width\":3,\"p\":0.5,\"seeds\":[1,2]}";
        "{\"topo\":\"disk\",\"n\":12,\"radius\":0.6,\"seeds\":[7]}";
      ]
    and proto_pool =
      [ "{\"proto\":\"decay\"}"; "{\"proto\":\"cr\"}"; "{\"proto\":\"mmv\",\"k\":2}" ]
    in
    let pick_slice pool =
      (* a random non-empty contiguous slice, preserving pool order
         (specs reject duplicate cells, so each line appears at most
         once) *)
      int_range 0 (List.length pool - 1) >>= fun start ->
      int_range 1 (List.length pool - start) >>= fun len ->
      return (List.filteri (fun i _ -> i >= start && i < start + len) pool)
    in
    pick_slice topo_pool >>= fun topos ->
    pick_slice proto_pool >>= fun protos ->
    int_range 1 3 >>= fun nseeds ->
    let seeds =
      "{\"seeds\":" ^ Rn_util.Jsons.int_array (List.init nseeds (fun i -> i + 1))
      ^ "}"
    in
    return (String.concat "\n" (topos @ protos @ [ seeds ])))

let crash_recovery_prop (spec_text, cut_frac, domains) =
  let spec = parse_ok spec_text in
  let total = Array.length (Spec.cells spec) in
  let reference, _ = run_collect ~domains:1 spec in
  let cut = int_of_float (cut_frac *. float_of_int total) in
  let journal = Buffer.create 1024 in
  let _, aborted_stats =
    run_collect ~domains ~abort_after:cut
      ~journal:(fun l ->
        Buffer.add_string journal l;
        Buffer.add_char journal '\n')
      spec
  in
  let lines =
    List.filter
      (fun l -> not (String.equal l ""))
      (String.split_on_char '\n' (Buffer.contents journal))
  in
  let out, stats = run_collect ~domains ~resume_lines:lines spec in
  if not (String.equal out reference) then
    QCheck.Test.fail_reportf "resumed bytes differ (domains=%d cut=%d)@.%s"
      domains cut spec_text;
  if stats.Campaign.replayed <> List.length lines then
    QCheck.Test.fail_reportf "journaled %d but replayed %d"
      (List.length lines) stats.Campaign.replayed;
  (* zero re-runs of journaled cells *)
  if stats.Campaign.executed <> total - stats.Campaign.replayed then
    QCheck.Test.fail_reportf "executed %d, expected %d re-runs only"
      stats.Campaign.executed
      (total - stats.Campaign.replayed);
  if cut < total && not aborted_stats.Campaign.aborted then
    QCheck.Test.fail_reportf "abort_after %d of %d did not abort" cut total;
  true

let crash_recovery =
  QCheck.Test.make ~count:25 ~name:"campaign crash recovery (QCheck)"
    (QCheck.make
       QCheck.Gen.(
         spec_gen >>= fun s ->
         float_bound_inclusive 1.0 >>= fun frac ->
         oneofl [ 1; 2; 4 ] >>= fun d -> return (s, frac, d)))
    crash_recovery_prop

let () =
  Alcotest.run "campaign"
    [
      ( "spec",
        [
          Alcotest.test_case "expansion" `Quick test_spec_expansion;
          Alcotest.test_case "deterministic build" `Quick
            test_spec_build_deterministic;
          Alcotest.test_case "errors" `Quick test_spec_errors;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "truncated-but-valid-JSON line rejected" `Quick
            test_journal_truncated_but_valid_json;
          Alcotest.test_case "classify torn, stale, cell" `Quick
            test_journal_classify;
        ] );
      ( "run",
        [
          Alcotest.test_case "complete run" `Quick test_run_complete;
          Alcotest.test_case "schedule independence" `Quick
            test_run_schedule_independent;
          Alcotest.test_case "abort after zero" `Quick test_abort_zero;
          Alcotest.test_case "resume after torn tail" `Quick
            test_resume_after_corrupt_tail;
          Alcotest.test_case "stale journal ignored" `Quick
            test_resume_ignores_stale_lines;
        ] );
      ( "recovery",
        [ QCheck_alcotest.to_alcotest crash_recovery ] );
    ]
