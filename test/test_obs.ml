(* The observability layer: registry mechanics (ring wraparound, phase
   clamping, histogram binning), export formatting, the Lemma-2.2/2.4
   analyses on hand-checkable inputs — and the acceptance property that a
   metrics registry filled by a sparse-engine Decay run exports
   byte-identical text to the dense run. *)

open Rn_util
open Rn_graph
module Topo = Rn_graph.Gen
open Rn_broadcast
module M = Rn_obs.Metrics
module Export = Rn_obs.Export
module Analysis = Rn_obs.Analysis

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_create_validation () =
  List.iter
    (fun (what, mk) ->
      Alcotest.check_raises what
        (Invalid_argument ("Metrics.create: " ^ what ^ " < 1"))
        mk)
    [
      ("phases", fun () -> ignore (M.create ~phases:0 ()));
      ("ring", fun () -> ignore (M.create ~ring:0 ()));
      ("hist_bins", fun () -> ignore (M.create ~hist_bins:0 ()));
      ("hist_width", fun () -> ignore (M.create ~hist_width:0 ()));
    ]

let test_totals_and_phases () =
  let m = M.create ~phases:3 () in
  M.record_round m ~round:0 ~transmissions:4 ~deliveries:2 ~collisions:1;
  M.set_phase m 1;
  M.record_round m ~round:1 ~transmissions:3 ~deliveries:1 ~collisions:0;
  M.record_round m ~round:2 ~transmissions:5 ~deliveries:0 ~collisions:2;
  (* phase ids at/beyond [phases] clamp into the last bin *)
  M.set_phase m 99;
  Alcotest.(check int) "clamped phase" 2 (M.current_phase m);
  M.record_round m ~round:3 ~transmissions:1 ~deliveries:1 ~collisions:0;
  Alcotest.(check int) "rounds" 4 (M.rounds m);
  Alcotest.(check int) "tx" 13 (M.transmissions m);
  Alcotest.(check int) "deliveries" 4 (M.deliveries m);
  Alcotest.(check int) "collisions" 3 (M.collisions m);
  Alcotest.(check int) "phase 0 rounds" 1 (M.phase_rounds m 0);
  Alcotest.(check int) "phase 1 rounds" 2 (M.phase_rounds m 1);
  Alcotest.(check int) "phase 1 tx" 8 (M.phase_transmissions m 1);
  Alcotest.(check int) "phase 2 (clamped) deliveries" 1 (M.phase_deliveries m 2);
  Alcotest.(check int) "phases_used" 3 (M.phases_used m);
  Alcotest.check_raises "out-of-range phase read"
    (Invalid_argument "Metrics.phase_rounds") (fun () ->
      ignore (M.phase_rounds m 3))

let test_ring_wraparound () =
  let m = M.create ~ring:4 () in
  Alcotest.(check int) "capacity" 4 (M.ring_capacity m);
  for r = 0 to 5 do
    M.record_round m ~round:r ~transmissions:(10 + r) ~deliveries:r
      ~collisions:0
  done;
  Alcotest.(check int) "length saturates" 4 (M.ring_length m);
  (* chronological, oldest first: rounds 2,3,4,5 survive *)
  List.iteri
    (fun i expect ->
      let round, _, tx, del, _ = M.ring_get m i in
      Alcotest.(check int) (Printf.sprintf "slot %d round" i) expect round;
      Alcotest.(check int) "slot tx" (10 + expect) tx;
      Alcotest.(check int) "slot deliveries" expect del)
    [ 2; 3; 4; 5 ];
  Alcotest.check_raises "ring_get range"
    (Invalid_argument "Metrics.ring_get") (fun () -> ignore (M.ring_get m 4))

let test_histogram () =
  let m = M.create ~hist_bins:4 ~hist_width:3 () in
  (* bins: [0,2] [3,5] [6,8] [9,∞) — the last bin absorbs overflow *)
  M.record_receive_rounds m [| 0; 2; 3; 8; 100; -1; -7 |];
  M.observe_receive_round m 11;
  Alcotest.(check int) "negatives skipped" 6 (M.hist_count m);
  Alcotest.(check int) "bin 0" 2 (M.hist_get m 0);
  Alcotest.(check int) "bin 1" 1 (M.hist_get m 1);
  Alcotest.(check int) "bin 2" 1 (M.hist_get m 2);
  Alcotest.(check int) "bin 3 (clamped)" 2 (M.hist_get m 3)

let test_reset () =
  let m = M.create ~phases:4 ~ring:8 () in
  M.set_phase m 2;
  M.record_round m ~round:0 ~transmissions:1 ~deliveries:1 ~collisions:1;
  M.observe_receive_round m 3;
  M.reset m;
  Alcotest.(check int) "rounds" 0 (M.rounds m);
  Alcotest.(check int) "phase back to 0" 0 (M.current_phase m);
  Alcotest.(check int) "ring emptied" 0 (M.ring_length m);
  Alcotest.(check int) "hist emptied" 0 (M.hist_count m);
  Alcotest.(check int) "phases_used" 0 (M.phases_used m);
  Alcotest.(check int) "capacity kept" 8 (M.ring_capacity m)

(* ------------------------------------------------------------------ *)
(* Export formatting *)

let test_export_formats () =
  let m = M.create ~phases:4 ~ring:8 ~hist_bins:8 ~hist_width:2 () in
  M.record_round m ~round:0 ~transmissions:3 ~deliveries:1 ~collisions:0;
  M.set_phase m 1;
  M.record_round m ~round:1 ~transmissions:2 ~deliveries:2 ~collisions:1;
  M.record_receive_rounds m [| 1; 2; 5 |];
  Alcotest.(check (list string)) "round jsonl"
    [
      {|{"round":0,"phase":0,"tx":3,"deliveries":1,"collisions":0}|};
      {|{"round":1,"phase":1,"tx":2,"deliveries":2,"collisions":1}|};
    ]
    (Export.round_jsonl m);
  Alcotest.(check (list string)) "phases csv"
    [ "phase,rounds,tx,deliveries,collisions"; "0,1,3,1,0"; "1,1,2,2,1" ]
    (Export.phases_csv m);
  Alcotest.(check (list string)) "hist csv"
    [ "bin,round_lo,round_hi,count"; "0,0,1,1"; "1,2,3,1"; "2,4,5,1" ]
    (Export.hist_csv m);
  Alcotest.(check string) "summary"
    {|{"rounds":2,"tx":5,"deliveries":3,"collisions":1,"phases":2,"receives":3}|}
    (Export.summary_json m)

(* ------------------------------------------------------------------ *)
(* Analysis: Lemma 2.2 / 2.4 helpers on hand-checkable inputs *)

let test_decay_phases_path () =
  (* Path 0-1-2-3, source 0, ladder 2; node 1 receives in phase 0, node 2
     only in phase 2 (round 5), node 3 never.  Hand check:
     phase 0: eligible {1} (only informed node is the source), delivered
     {1}, informed at end {0,1};
     phase 1: eligible {2} (neighbor 1 now informed), delivered {} — the
     zero-ratio phase, first receive falls outside;
     phase 2: eligible {2}, delivered {2}, informed {0,1,2}.  Phases run
     only to the last receive round, so node 3's eligibility after that
     is never scored. *)
  let g = Topo.path 4 in
  let received = [| 0; 1; 5; -1 |] in
  let stats =
    Analysis.decay_phases ~offsets:(Graph.offsets g) ~targets:(Graph.targets g)
      ~received_round:received ~source:0 ~ladder:2
  in
  let expect =
    [ (0, 0, 1, 1, 2); (1, 2, 1, 0, 2); (2, 4, 1, 1, 3) ]
  in
  Alcotest.(check int) "phase count" (List.length expect) (List.length stats);
  List.iter2
    (fun (p, s, e, d, ie) st ->
      Alcotest.(check int) "phase" p st.Analysis.phase;
      Alcotest.(check int) "start" s st.Analysis.start_round;
      Alcotest.(check int) "eligible" e st.Analysis.eligible;
      Alcotest.(check int) "delivered" d st.Analysis.delivered;
      Alcotest.(check int) "informed_end" ie st.Analysis.informed_end)
    expect stats;
  Alcotest.(check (float 1e-9)) "ratio" 1.0
    (Analysis.delivery_ratio (List.hd stats));
  Alcotest.(check bool) "empty phase ratio is nan" true
    (Float.is_nan
       (Analysis.delivery_ratio
          { Analysis.phase = 0; start_round = 0; eligible = 0; delivered = 0;
            informed_end = 0 }));
  Alcotest.(check (float 1e-9)) "min ratio sees the zero phase" 0.0
    (Analysis.min_delivery_ratio stats);
  Alcotest.(check bool) "min ratio nan when nothing qualifies" true
    (Float.is_nan (Analysis.min_delivery_ratio ~min_eligible:5 stats))

let test_shrink_factors () =
  Alcotest.(check (list (float 1e-9))) "plain halving" [ 2.0; 2.0 ]
    (Analysis.shrink_factors [ 8; 4; 2 ]);
  Alcotest.(check (list (float 1e-9))) "terminal zero" [ 4.0; infinity ]
    (Analysis.shrink_factors [ 8; 2; 0 ]);
  Alcotest.(check (list (float 1e-9))) "zero prefix skipped" [ 3.0 ]
    (Analysis.shrink_factors [ 0; 6; 2 ]);
  Alcotest.(check (list (float 1e-9))) "short input" []
    (Analysis.shrink_factors [ 5 ])

(* ------------------------------------------------------------------ *)
(* Acceptance property: sparse Decay fills the registry byte-identically *)

(* Everything Export can say about a registry, as one string. *)
let export_fingerprint m =
  String.concat "\n"
    (Export.round_jsonl m @ Export.phases_jsonl m @ Export.phases_csv m
    @ Export.hist_csv m
    @ [ Export.summary_json m ])

let decay_fingerprint engine ~seed ~graph ~ladder () =
  let m = M.create ~phases:128 ~ring:4096 ~hist_bins:128 ~hist_width:ladder () in
  let rng = Rng.create ~seed in
  Rn_radio.Drive.with_engine engine (fun () ->
      ignore (Decay.broadcast ~metrics:m ~rng ~graph ~source:0 ()));
  export_fingerprint m

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"Decay obs export: sparse ≡ dense" ~count:60
      (make
         ~print:(fun (n, extra, seed) ->
           Printf.sprintf "(n=%d,extra=%d,seed=%d)" n extra seed)
         Gen.(tup3 (int_range 2 48) (int_range 0 40) (int_range 0 100_000)))
      (fun (n, extra, seed) ->
        let rng = Rng.create ~seed in
        let graph = Topo.random_connected ~rng ~n ~extra in
        let ladder = max 1 (Ilog.clog n) in
        String.equal
          (decay_fingerprint Rn_radio.Engine.Dense ~seed ~graph ~ladder ())
          (decay_fingerprint Rn_radio.Engine.Sparse ~seed ~graph ~ladder ()));
  ]

(* And once on a fixed layered topology — the E-scale shape, unit-style so
   a failure prints the diff. *)
let test_decay_obs_layered () =
  let mkgraph () =
    Topo.layered_random ~rng:(Rng.create ~seed:5) ~depth:8 ~width:16 ~p:0.35
  in
  let graph = mkgraph () in
  let ladder = Ilog.clog (Graph.n graph) in
  Alcotest.(check string)
    "sparse export ≡ dense"
    (decay_fingerprint Rn_radio.Engine.Dense ~seed:42 ~graph ~ladder ())
    (decay_fingerprint Rn_radio.Engine.Sparse ~seed:42 ~graph ~ladder ());
  (* the registry saw real traffic — guard against a vacuous pass *)
  let m = M.create ~hist_width:ladder () in
  let r =
    Decay.broadcast ~metrics:m ~rng:(Rng.create ~seed:42) ~graph ~source:0 ()
  in
  (match r.Decay.outcome with
  | Rn_radio.Engine.Completed _ -> ()
  | Rn_radio.Engine.Out_of_budget _ -> Alcotest.fail "broadcast did not finish");
  Alcotest.(check bool) "rounds recorded" true (M.rounds m > 0);
  Alcotest.(check bool) "receives observed" true (M.hist_count m > 0);
  Alcotest.(check bool) "several phases used" true (M.phases_used m > 1)

let () =
  Alcotest.run "rn_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "totals and phase bins" `Quick
            test_totals_and_phases;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "receive histogram" `Quick test_histogram;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ("export", [ Alcotest.test_case "formats" `Quick test_export_formats ]);
      ( "analysis",
        [
          Alcotest.test_case "decay phases (path)" `Quick
            test_decay_phases_path;
          Alcotest.test_case "shrink factors" `Quick test_shrink_factors;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "layered Decay export, sparse ≡ dense" `Quick
            test_decay_obs_layered;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
