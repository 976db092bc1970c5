(* Integration and unit tests for the paper's protocols: Decay (Lemma 2.2,
   Lemma 3.2), recruiting (Lemma 2.3), bipartite assignment (Lemmas 2.4,
   2.5), layering, distributed GST construction (Theorem 2.1, Lemma 3.10),
   the MMV GST schedule (Lemma 3.3) and the end-to-end broadcast pipelines
   (Theorems 1.1, 1.2, 1.3). *)

open Rn_util
open Rn_graph
module Topo = Rn_graph.Gen
open Rn_radio
open Rn_broadcast

let rng seed = Rng.create ~seed

let completed = function
  | Engine.Completed _ -> true
  | Engine.Out_of_budget _ -> false

(* ------------------------------------------------------------------ *)
(* Decay *)

let test_decay_probability_ladder () =
  Alcotest.(check (float 1e-9)) "round 0" 0.5 (Decay.probability ~ladder:4 0);
  Alcotest.(check (float 1e-9)) "round 3" 0.0625 (Decay.probability ~ladder:4 3);
  Alcotest.(check (float 1e-9)) "wraps" 0.5 (Decay.probability ~ladder:4 4)

let test_decay_broadcast_delivers () =
  List.iter
    (fun g ->
      let r = Decay.broadcast ~rng:(rng 11) ~graph:g ~source:0 () in
      Alcotest.(check bool) "completed" true (completed r.Decay.outcome);
      Array.iteri
        (fun v rr ->
          Alcotest.(check bool) (Printf.sprintf "node %d got it" v) true (rr >= 0))
        r.Decay.received_round)
    [ Topo.path 20; Topo.star 20; Topo.grid ~w:5 ~h:4; Topo.complete 12 ]

let test_decay_single_node () =
  let r = Decay.broadcast ~rng:(rng 1) ~graph:(Topo.path 1) ~source:0 () in
  Alcotest.(check int) "0 rounds" 0 (Engine.rounds_of_outcome r.Decay.outcome)

let test_decay_respects_distance () =
  (* No node can receive before its BFS distance. *)
  let g = Topo.path 12 in
  let r = Decay.broadcast ~rng:(rng 3) ~graph:g ~source:0 () in
  Array.iteri
    (fun v rr ->
      if v > 0 then
        Alcotest.(check bool) "causality" true (rr >= v - 1))
    r.Decay.received_round

let test_decay_mmv_noising_delivers () =
  let g = Topo.grid ~w:6 ~h:4 in
  let levels = Bfs.levels g ~src:0 in
  let r = Decay.mmv_broadcast ~noising:true ~rng:(rng 5) ~graph:g ~levels ~source:0 () in
  Alcotest.(check bool) "MMV decay completes despite noise" true
    (completed r.Decay.outcome)

let test_decay_mmv_silent_delivers () =
  let g = Topo.grid ~w:6 ~h:4 in
  let levels = Bfs.levels g ~src:0 in
  let r = Decay.mmv_broadcast ~noising:false ~rng:(rng 5) ~graph:g ~levels ~source:0 () in
  Alcotest.(check bool) "silent variant completes" true (completed r.Decay.outcome)

let test_cr_ladder_values () =
  Alcotest.(check int) "n=1024,D=256" (Ilog.clog 4 + 1)
    (Decay.cr_ladder ~n:1024 ~diameter:256);
  Alcotest.(check bool) "small ratio floors at log 2 + 1" true
    (Decay.cr_ladder ~n:16 ~diameter:16 >= 2)

(* ------------------------------------------------------------------ *)
(* Recruiting (Lemma 2.3) *)

let run_recruiting seed ~reds ~blues ~p =
  let r = Rng.create ~seed in
  let g = Topo.bipartite_random ~rng:r ~reds ~blues ~p in
  ( g,
    Recruiting.run_standalone ~rng:(Rng.split r) ~params:Params.default
      ~graph:g
      ~reds:(Array.init reds (fun i -> i))
      ~blues:(Array.init blues (fun i -> reds + i))
      () )

let test_recruiting_covers_all () =
  for seed = 1 to 10 do
    let _, o = run_recruiting seed ~reds:8 ~blues:20 ~p:0.3 in
    Alcotest.(check bool) "all covered" true o.Recruiting.all_covered;
    Alcotest.(check bool) "classes consistent" true o.Recruiting.classes_consistent
  done

let test_recruiting_parents_are_neighbors () =
  let g, o = run_recruiting 42 ~reds:6 ~blues:15 ~p:0.4 in
  List.iter
    (fun (b, r) ->
      Alcotest.(check bool) "parent adjacent" true (Graph.mem_edge g b r))
    o.Recruiting.recruited

let test_recruiting_red_classes_match () =
  let _, o = run_recruiting 7 ~reds:5 ~blues:12 ~p:0.5 in
  (* Count children per red from the blue side and compare. *)
  let count = Hashtbl.create 8 in
  List.iter
    (fun (_, r) ->
      Hashtbl.replace count r (1 + Option.value ~default:0 (Hashtbl.find_opt count r)))
    o.Recruiting.recruited;
  ()

let test_recruiting_single_pair () =
  let g = Graph.create ~n:2 ~edges:[ (0, 1) ] in
  let o =
    Recruiting.run_standalone ~rng:(rng 1) ~params:Params.default ~graph:g
      ~reds:[| 0 |] ~blues:[| 1 |] ()
  in
  Alcotest.(check (list (pair int int))) "recruited" [ (1, 0) ] o.Recruiting.recruited

let test_recruiting_uncoverable_blue () =
  (* A blue with no red neighbor is left out, and that is not a failure. *)
  let g = Graph.create ~n:3 ~edges:[ (0, 1) ] in
  let o =
    Recruiting.run_standalone ~rng:(rng 1) ~params:Params.default ~graph:g
      ~reds:[| 0 |] ~blues:[| 1; 2 |] ()
  in
  Alcotest.(check bool) "covered ones recruited" true o.Recruiting.all_covered;
  Alcotest.(check (list (pair int int))) "only blue 1" [ (1, 0) ] o.Recruiting.recruited

(* ------------------------------------------------------------------ *)
(* Bipartite assignment (Lemmas 2.4 / 2.5) *)

let test_assignment_assigns_everyone () =
  for seed = 1 to 8 do
    let r = Rng.create ~seed in
    let reds = 8 and blues = 18 in
    let g = Topo.bipartite_random ~rng:r ~reds ~blues ~p:0.25 in
    let blue_ranks = Array.make (reds + blues) 0 in
    for b = reds to reds + blues - 1 do
      blue_ranks.(b) <- 1 + Rng.int r 3
    done;
    let o =
      Bipartite_assignment.run_standalone ~rng:(Rng.split r)
        ~params:Params.default ~graph:g
        ~reds:(Array.init reds (fun i -> i))
        ~blues:(Array.init blues (fun i -> reds + i))
        ~blue_ranks ()
    in
    for b = reds to reds + blues - 1 do
      Alcotest.(check bool) "assigned" true (o.Bipartite_assignment.parents.(b) >= 0);
      Alcotest.(check bool) "parent is red" true (o.Bipartite_assignment.parents.(b) < reds)
    done;
    (* Ranking rule per red. *)
    for v = 0 to reds - 1 do
      let children =
        List.filter
          (fun b -> o.Bipartite_assignment.parents.(b) = v)
          (List.init blues (fun i -> reds + i))
      in
      let expected =
        match children with
        | [] -> 0
        | cs ->
            let rmax = List.fold_left (fun a c -> max a blue_ranks.(c)) 0 cs in
            let cnt = List.length (List.filter (fun c -> blue_ranks.(c) = rmax) cs) in
            if cnt >= 2 then rmax + 1 else rmax
      in
      Alcotest.(check int) (Printf.sprintf "red %d rank" v) expected
        o.Bipartite_assignment.ranks.(v)
    done;
    (* Blues know their parent's rank (property needed by footnote 3). *)
    for b = reds to reds + blues - 1 do
      let p = o.Bipartite_assignment.parents.(b) in
      Alcotest.(check int) "parent rank knowledge"
        o.Bipartite_assignment.ranks.(p)
        o.Bipartite_assignment.parent_rank.(b)
    done
  done

let test_assignment_epoch_shrinkage_recorded () =
  let r = Rng.create ~seed:4 in
  let reds = 12 and blues = 30 in
  let g = Topo.bipartite_random ~rng:r ~reds ~blues ~p:0.3 in
  let blue_ranks = Array.make (reds + blues) 1 in
  let o =
    Bipartite_assignment.run_standalone ~rng:(Rng.split r)
      ~params:Params.default ~graph:g
      ~reds:(Array.init reds (fun i -> i))
      ~blues:(Array.init blues (fun i -> reds + i))
      ~blue_ranks ()
  in
  Alcotest.(check bool) "history nonempty" true
    (List.length o.Bipartite_assignment.epoch_history >= 1);
  List.iter
    (fun (rank, active) ->
      Alcotest.(check int) "rank 1 only" 1 rank;
      Alcotest.(check bool) "active in range" true (active >= 0 && active <= reds))
    o.Bipartite_assignment.epoch_history

(* ------------------------------------------------------------------ *)
(* Layering *)

let test_collision_wave_exact_levels () =
  List.iter
    (fun g ->
      let r = Layering.collision_wave ~graph:g ~sources:[| 0 |] () in
      Alcotest.(check (array int)) "levels = BFS" (Bfs.levels g ~src:0)
        r.Layering.levels;
      Alcotest.(check int) "rounds = eccentricity" (Bfs.eccentricity g 0)
        r.Layering.rounds)
    [ Topo.path 17; Topo.grid ~w:5 ~h:5; Topo.star 9; Topo.complete 7 ]

let test_collision_wave_needs_cd () =
  (* On a star with >= 2 arms... actually: two transmitters at round 1
     collide at every second-layer listener; with CD the wave still
     advances.  Check a diamond: 0-1, 0-2, 1-3, 2-3. *)
  let g = Graph.create ~n:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let r = Layering.collision_wave ~graph:g ~sources:[| 0 |] () in
  Alcotest.(check (array int)) "diamond levels" [| 0; 1; 1; 2 |] r.Layering.levels

let test_decay_bfs_levels () =
  for seed = 1 to 6 do
    let r = Rng.create ~seed in
    let g = Topo.random_connected ~rng:r ~n:40 ~extra:30 in
    let res = Layering.decay_bfs ~rng:(Rng.split r) ~graph:g ~sources:[| 0 |] () in
    Alcotest.(check (array int))
      (Printf.sprintf "seed %d levels" seed)
      (Bfs.levels g ~src:0) res.Layering.levels
  done

let test_decay_bfs_multi_source () =
  let g = Topo.path 9 in
  let res = Layering.decay_bfs ~rng:(rng 2) ~graph:g ~sources:[| 0; 8 |] () in
  Alcotest.(check (array int)) "multi-source"
    (Bfs.multi_levels g ~sources:[| 0; 8 |])
    res.Layering.levels

let test_layering_duplicate_sources () =
  (* A repeated source counts once: it must not bring [stop] forward while
     node 4 is still unlabeled. *)
  let g = Topo.path 5 in
  let sources = [| 0; 0 |] in
  let w = Layering.collision_wave ~graph:g ~sources () in
  Alcotest.(check (array int)) "wave levels" [| 0; 1; 2; 3; 4 |] w.Layering.levels;
  Alcotest.(check int) "wave rounds" 4 w.Layering.rounds;
  let d = Layering.decay_bfs ~rng:(rng 3) ~graph:g ~sources () in
  Alcotest.(check (array int)) "decay BFS levels" [| 0; 1; 2; 3; 4 |]
    d.Layering.levels

(* The all-node layerings, as they were before each wave woke only its
   front; the differential property below holds the front-only code to
   them. *)
module Reference = struct
  let decay_bfs ?(params = Params.default) ?max_rounds ?engine ~rng ~graph
      ~sources () =
    let n = Graph.n graph in
    let ladder = Params.phase_len ~n in
    let epoch_len = Params.whp_phases params ~n * ladder in
    let max_rounds =
      match max_rounds with
      | Some m -> m
      | None -> params.Params.max_round_factor * (n + 2) * epoch_len
    in
    let node_rng = Rng.split_n rng n in
    let levels = Array.make n (-1) in
    Array.iter (fun s -> levels.(s) <- 0) sources;
    let labeled = Atomic.make (Array.length sources) in
    let epoch_of round = round / epoch_len in
    let decide ~round ~node =
      let lvl = levels.(node) in
      if lvl >= 0 && lvl <= epoch_of round then begin
        if Rng.coin_pow2 node_rng.(node) ((round mod ladder) + 1) then
          Engine.Transmit Cmsg.Probe
        else Engine.Listen
      end
      else if lvl < 0 then Engine.Listen
      else Engine.Sleep
    in
    let deliver ~round ~node reception =
      match reception with
      | Engine.Received Cmsg.Probe ->
          if levels.(node) < 0 then begin
            levels.(node) <- epoch_of round + 1;
            Atomic.incr labeled
          end
      | Engine.Received _ | Engine.Silence | Engine.Collision -> ()
    in
    let protocol = { Engine.decide; deliver } in
    let stop ~round = Atomic.get labeled = n && round mod epoch_len = 0 in
    let outcome =
      Drive.run ?engine ~graph ~detection:Engine.No_collision_detection
        ~protocol ~stop ~max_rounds ()
    in
    (levels, Engine.rounds_of_outcome outcome)

  let collision_wave ?max_rounds ~graph ~sources () =
    let n = Graph.n graph in
    let max_rounds = match max_rounds with Some m -> m | None -> n + 1 in
    let levels = Array.make n (-1) in
    Array.iter (fun s -> levels.(s) <- 0) sources;
    let labeled = Atomic.make (Array.length sources) in
    let decide ~round ~node =
      let lvl = levels.(node) in
      if lvl >= 0 && lvl <= round then Engine.Transmit Cmsg.Beacon
      else if lvl < 0 then Engine.Listen
      else Engine.Sleep
    in
    let deliver ~round ~node reception =
      match reception with
      | Engine.Received _ | Engine.Collision ->
          if levels.(node) < 0 then begin
            levels.(node) <- round + 1;
            Atomic.incr labeled
          end
      | Engine.Silence -> ()
    in
    let outcome =
      Drive.run ~graph ~detection:Engine.Collision_detection
        ~protocol:{ Engine.decide; deliver }
        ~stop:(fun ~round:_ -> Atomic.get labeled = n)
        ~max_rounds ()
    in
    (levels, Engine.rounds_of_outcome outcome)

  let run_guess ~graph ~source ~t =
    let n = Graph.n graph in
    let level = Array.make n (-1) in
    level.(source) <- 0;
    let boundary_hit = Array.make n false in
    let echo = Array.make n false in
    let source_heard_echo = Atomic.make false in
    let decide ~round ~node =
      if round < t then
        if level.(node) = round then Engine.Transmit Cmsg.Beacon
        else if level.(node) < 0 then Engine.Listen
        else Engine.Sleep
      else if round = t then
        if level.(node) < 0 then Engine.Transmit Cmsg.Beacon else Engine.Listen
      else begin
        let l = level.(node) in
        if l < 0 then Engine.Sleep
        else if round = (2 * t) + 1 - l then begin
          if boundary_hit.(node) || echo.(node) then Engine.Transmit Cmsg.Beacon
          else Engine.Sleep
        end
        else if round = (2 * t) - l then Engine.Listen
        else Engine.Sleep
      end
    in
    let deliver ~round ~node reception =
      match reception with
      | Engine.Silence -> ()
      | Engine.Received _ | Engine.Collision ->
          if round < t then begin
            if level.(node) < 0 then level.(node) <- round + 1
          end
          else if round = t then boundary_hit.(node) <- true
          else begin
            let l = level.(node) in
            if l >= 0 && round = (2 * t) - l then begin
              echo.(node) <- true;
              if node = source then Atomic.set source_heard_echo true
            end
          end
    in
    ignore
      (Drive.run ~graph ~detection:Engine.Collision_detection
         ~protocol:{ Engine.decide; deliver }
         ~stop:(fun ~round:_ -> false)
         ~max_rounds:((2 * t) + 2)
         ());
    (level, Atomic.get source_heard_echo || boundary_hit.(source))

  (* [Diameter_estimate.run]'s doubling loop, as (estimate, rounds,
     levels), or [None] where it fails to converge. *)
  let estimate ~graph ~source =
    let n = Graph.n graph in
    let max_rounds = 16 * (n + 4) in
    let rec go t spent =
      if spent > max_rounds then None
      else
        let levels, too_small = run_guess ~graph ~source ~t in
        let spent = spent + (2 * t) + 2 in
        if too_small then go (2 * t) spent else Some (t, spent, levels)
    in
    go 1 0
end

(* Random graphs of one or two random connected components (the second
   unreachable from the first), with 1–3 distinct sources. *)
let arb_layering =
  QCheck.make
    ~print:(fun (n1, n2, extra, seed, k) ->
      Printf.sprintf "(n1=%d,n2=%d,extra=%d,seed=%d,sources=%d)" n1 n2 extra
        seed k)
    QCheck.Gen.(
      map
        (fun ((n1, n2, extra), (seed, k)) -> (n1, n2, extra, seed, k))
        (pair
           (triple (int_range 1 40) (frequency [ (2, return 0); (1, int_range 1 8) ])
              (int_range 0 40))
           (pair (int_range 0 10_000) (int_range 1 3))))

let layering_instance (n1, n2, extra, seed, k) =
  let r = Rng.create ~seed in
  let a = Topo.random_connected ~rng:r ~n:n1 ~extra in
  let edges =
    if n2 = 0 then Graph.edges a
    else
      let b = Topo.random_connected ~rng:r ~n:n2 ~extra:(extra / 4) in
      Graph.edges a @ List.map (fun (u, v) -> (u + n1, v + n1)) (Graph.edges b)
  in
  let n = n1 + n2 in
  let g = Graph.create ~n ~edges in
  let picked = Array.make n false in
  let sources =
    List.init k (fun _ -> Rng.int r n)
    |> List.filter (fun v ->
           let fresh = not picked.(v) in
           picked.(v) <- true;
           fresh)
    |> Array.of_list
  in
  (g, sources, seed)

let layering_matches_reference =
  QCheck.Test.make ~name:"front-only layerings = all-node reference" ~count:60
    arb_layering (fun spec ->
      let g, sources, seed = layering_instance spec in
      let n = Graph.n g in
      (* Two epochs past the deepest reachable level: enough for the
         reachable part to finish; a node out of reach runs both to the
         budget. *)
      let depth = Bfs.max_level (Bfs.multi_levels g ~sources) in
      let max_rounds =
        (depth + 3) * Params.whp_phases Params.default ~n * Params.phase_len ~n
      in
      let ref_levels, ref_rounds =
        Reference.decay_bfs ~max_rounds ~engine:Engine.Dense ~rng:(rng seed)
          ~graph:g ~sources ()
      in
      List.iter
        (fun engine ->
          let r =
            Layering.decay_bfs ~max_rounds ~engine ~rng:(rng seed) ~graph:g
              ~sources ()
          in
          if r.Layering.levels <> ref_levels || r.Layering.rounds <> ref_rounds
          then
            QCheck.Test.fail_reportf "decay_bfs: rounds %d vs reference %d"
              r.Layering.rounds ref_rounds)
        [ Engine.Dense; Engine.Sparse; Engine.Sharded 2 ];
      let w = Layering.collision_wave ~graph:g ~sources () in
      let ref_levels, ref_rounds =
        Reference.collision_wave ~graph:g ~sources ()
      in
      if w.Layering.levels <> ref_levels || w.Layering.rounds <> ref_rounds then
        QCheck.Test.fail_reportf "collision_wave: rounds %d vs reference %d"
          w.Layering.rounds ref_rounds;
      (* The estimator requires a connected graph. *)
      let source = sources.(0) in
      if Array.for_all (fun l -> l >= 0) (Bfs.levels g ~src:source) then begin
        let r = Diameter_estimate.run ~graph:g ~source () in
        let got =
          ( r.Diameter_estimate.estimate,
            r.Diameter_estimate.rounds,
            r.Diameter_estimate.levels )
        in
        if Some got <> Reference.estimate ~graph:g ~source then
          QCheck.Test.fail_report "Diameter_estimate.run differs from reference"
      end;
      true)

(* ------------------------------------------------------------------ *)
(* Distributed GST construction (Theorem 2.1) *)

let construct ?(mode = Gst_distributed.Pipelined) ?(learn_vd = true) g seed =
  Gst_distributed.construct ~mode ~learn_vd ~rng:(rng seed) ~graph:g
    ~roots:[| 0 |] ()

let test_distributed_gst_valid_and_spanning () =
  List.iteri
    (fun i g ->
      let r = construct g (100 + i) in
      (match Gst.validate r.Gst_distributed.gst with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "spans" (Graph.n g) (Gst.size r.Gst_distributed.gst))
    [
      Topo.path 24;
      Topo.star 16;
      Topo.grid ~w:6 ~h:4;
      Topo.balanced_tree ~arity:3 ~depth:3;
      Topo.random_connected ~rng:(rng 9) ~n:60 ~extra:70;
      Topo.unit_disk ~rng:(rng 10) ~n:50 ~radius:0.25;
    ]

let test_distributed_gst_sequential_mode () =
  let g = Topo.random_connected ~rng:(rng 12) ~n:50 ~extra:40 in
  let r = construct ~mode:Gst_distributed.Sequential g 13 in
  match Gst.validate r.Gst_distributed.gst with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_distributed_gst_learned_vd_matches () =
  for seed = 1 to 6 do
    let g = Topo.random_connected ~rng:(rng (200 + seed)) ~n:48 ~extra:60 in
    let r = construct g seed in
    Alcotest.(check (array int)) "vd = centralized recomputation"
      (Gst.virtual_distances r.Gst_distributed.gst)
      r.Gst_distributed.vd
  done

let test_distributed_gst_parent_rank_knowledge () =
  let g = Topo.grid ~w:5 ~h:5 in
  let r = construct g 31 in
  let gst = r.Gst_distributed.gst in
  Array.iteri
    (fun v p ->
      if p >= 0 then
        Alcotest.(check int)
          (Printf.sprintf "node %d knows parent rank" v)
          gst.Gst.ranks.(p)
          r.Gst_distributed.parent_rank.(v))
    gst.Gst.parents

let test_distributed_gst_ring_band () =
  (* Construction restricted to a band with multi-root layering. *)
  let g = Topo.path 12 in
  let levels = Array.make 12 (-1) in
  for v = 3 to 8 do
    levels.(v) <- v - 3
  done;
  let r =
    Gst_distributed.construct ~layering:(Gst_distributed.Given_layering levels)
      ~learn_vd:true ~rng:(rng 77) ~graph:g ~roots:[| 3 |] ()
  in
  Alcotest.(check int) "band size" 6 (Gst.size r.Gst_distributed.gst);
  match Gst.validate r.Gst_distributed.gst with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_distributed_gst_no_fixups_expected () =
  let g = Topo.random_connected ~rng:(rng 55) ~n:60 ~extra:60 in
  let r = construct g 56 in
  Alcotest.(check int) "class fixups" 0 r.Gst_distributed.class_fixups

(* ------------------------------------------------------------------ *)
(* GST broadcast schedule (Lemma 3.3, Theorem 1.2 machinery) *)

let test_schedule_slots_disjoint () =
  (* Fast slots are even, slow slots odd; a node is never in both. *)
  for round = 0 to 200 do
    for level = 0 to 5 do
      for rank = 1 to 4 do
        let fast = Gst_broadcast.fast_slot ~clogn:5 ~level ~rank ~round in
        let slow = Gst_broadcast.slow_slot ~level_or_vd:level ~round in
        Alcotest.(check bool) "not both" false (fast && slow)
      done
    done
  done

let test_schedule_fast_cadence () =
  (* Every node is fast-scheduled exactly once per 6 clogn rounds. *)
  let clogn = 4 in
  let hits = ref 0 in
  for round = 0 to (6 * clogn) - 1 do
    if Gst_broadcast.fast_slot ~clogn ~level:2 ~rank:3 ~round then incr hits
  done;
  Alcotest.(check int) "once per cycle" 1 !hits

let test_schedule_slow_cadence () =
  let hits = ref 0 in
  for round = 0 to 5 do
    if Gst_broadcast.slow_slot ~level_or_vd:7 ~round then incr hits
  done;
  Alcotest.(check int) "once per 6 rounds" 1 !hits

let test_gst_broadcast_single () =
  List.iteri
    (fun i g ->
      let gst = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
      let vd = Gst.virtual_distances gst in
      let msgs = [| Rn_coding.Bitvec.random (rng 1) 32 |] in
      let r =
        Gst_broadcast.run ~rng:(rng (300 + i)) ~gst ~vd ~msgs ~sources:[| 0 |] ()
      in
      Alcotest.(check bool) "completed" true (completed r.Gst_broadcast.outcome);
      Alcotest.(check bool) "payloads ok" true r.Gst_broadcast.payloads_ok)
    [ Topo.path 30; Topo.grid ~w:6 ~h:5; Topo.balanced_tree ~arity:2 ~depth:4 ]

let test_gst_broadcast_silent_variant () =
  let g = Topo.grid ~w:5 ~h:5 in
  let gst = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
  let vd = Gst.virtual_distances gst in
  let msgs = [| Rn_coding.Bitvec.random (rng 1) 32 |] in
  let r =
    Gst_broadcast.run ~noise_when_empty:false ~rng:(rng 17) ~gst ~vd ~msgs
      ~sources:[| 0 |] ()
  in
  Alcotest.(check bool) "silent completes" true (completed r.Gst_broadcast.outcome)

let test_gst_broadcast_multi_sources () =
  (* Forest with several roots, all holding the messages (ring scenario). *)
  let g = Topo.grid ~w:6 ~h:3 in
  let roots = [| 0; 1; 2; 3; 4; 5 |] in
  let gst = Gst.build_centralized ~graph:g ~roots () in
  let vd = Gst.virtual_distances gst in
  let msgs = Multi_broadcast.random_messages (rng 2) ~k:4 ~msg_len:16 in
  let r = Gst_broadcast.run ~rng:(rng 23) ~gst ~vd ~msgs ~sources:roots () in
  Alcotest.(check bool) "completed" true (completed r.Gst_broadcast.outcome);
  Alcotest.(check bool) "payloads" true r.Gst_broadcast.payloads_ok

(* ------------------------------------------------------------------ *)
(* Rings and handoffs *)

let test_rings_decompose () =
  let levels = [| 0; 1; 2; 3; 4; 5; 6 |] in
  let t = Rings.decompose ~levels ~width:3 in
  Alcotest.(check int) "count" 3 t.Rings.count;
  Alcotest.(check (array int)) "roots ring1" [| 3 |] (Rings.roots t 1);
  Alcotest.(check (array int)) "outer ring0" [| 2 |] (Rings.outer_boundary t 0);
  Alcotest.(check (array int)) "ring-local levels"
    [| -1; -1; -1; 0; 1; 2; -1 |]
    (Rings.ring_levels t 1)

let test_rings_charged_rounds () =
  Alcotest.(check int) "2x max" 84 (Rings.charged_parallel_rounds [ 10; 42; 7 ]);
  Alcotest.(check int) "empty" 0 (Rings.charged_parallel_rounds [])

let test_handoff_single () =
  let g = Topo.path 6 in
  let r =
    Rings.handoff_single ~rng:(rng 3) ~graph:g ~holders:[| 2 |]
      ~receivers:[| 3 |] ()
  in
  Alcotest.(check bool) "delivered" true r.Rings.delivered

let test_handoff_repeated_receiver () =
  (* A receiver listed twice is one receiver: hearing the message once
     satisfies it. *)
  let g = Topo.path 6 in
  let r =
    Rings.handoff_single ~rng:(rng 3) ~graph:g ~holders:[| 2 |]
      ~receivers:[| 3; 3 |] ()
  in
  Alcotest.(check bool) "delivered" true r.Rings.delivered

let test_handoff_fec_batch () =
  (* Boundary layer of 3 holders, 4 receivers, batch of 5. *)
  let edges =
    List.concat_map (fun h -> List.map (fun r -> (h, r)) [ 3; 4; 5; 6 ]) [ 0; 1; 2 ]
  in
  let g = Graph.create ~n:7 ~edges in
  let msgs = Multi_broadcast.random_messages (rng 4) ~k:5 ~msg_len:24 in
  let r, decoded =
    Rings.handoff_fec ~rng:(rng 5) ~graph:g ~holders:[| 0; 1; 2 |]
      ~receivers:[| 3; 4; 5; 6 |] ~msgs ()
  in
  Alcotest.(check bool) "delivered" true r.Rings.delivered;
  match decoded with
  | Some out ->
      Alcotest.(check bool) "batch intact" true
        (Array.for_all2 Rn_coding.Bitvec.equal out msgs)
  | None -> Alcotest.fail "no decode"

(* ------------------------------------------------------------------ *)
(* End-to-end theorems *)

let test_theorem_1_1 () =
  List.iteri
    (fun i g ->
      let r = Single_broadcast.run ~rng:(rng (400 + i)) ~graph:g ~source:0 () in
      Alcotest.(check bool) "delivered" true r.Single_broadcast.delivered;
      Alcotest.(check bool) "every node" true
        (Array.for_all (fun b -> b) r.Single_broadcast.received))
    [
      Topo.path 40;
      Topo.grid ~w:7 ~h:4;
      Topo.cluster_path ~rng:(rng 41) ~clusters:6 ~size:6 ~p_intra:0.5;
      Topo.star 20;
    ]

let test_theorem_1_1_ring_choices () =
  let g = Topo.path 30 in
  List.iter
    (fun rings ->
      let r = Single_broadcast.run ~rings ~rng:(rng 44) ~graph:g ~source:0 () in
      Alcotest.(check bool) "delivered" true r.Single_broadcast.delivered)
    [
      Single_broadcast.Auto;
      Single_broadcast.Ring_count 1;
      Single_broadcast.Ring_count 5;
      Single_broadcast.Ring_width 7;
    ]

let test_theorem_1_2 () =
  let g = Topo.layered_random ~rng:(rng 50) ~depth:8 ~width:5 ~p:0.4 in
  List.iter
    (fun k ->
      let r = Multi_broadcast.known ~rng:(rng (60 + k)) ~graph:g ~source:0 ~k () in
      Alcotest.(check bool) "delivered" true r.Multi_broadcast.delivered;
      Alcotest.(check bool) "payloads" true r.Multi_broadcast.payloads_ok)
    [ 1; 3; 9 ]

let test_theorem_1_3 () =
  let g = Topo.cluster_path ~rng:(rng 70) ~clusters:5 ~size:7 ~p_intra:0.4 in
  List.iter
    (fun k ->
      let r = Multi_broadcast.unknown ~rng:(rng (80 + k)) ~graph:g ~source:0 ~k () in
      Alcotest.(check bool) "delivered" true r.Multi_broadcast.delivered;
      Alcotest.(check bool) "payloads" true r.Multi_broadcast.payloads_ok)
    [ 1; 5; 12 ]

let test_baseline_routing () =
  let g = Topo.grid ~w:5 ~h:4 in
  let r = Baselines.routing_multi ~rng:(rng 90) ~graph:g ~source:0 ~k:6 () in
  Alcotest.(check bool) "delivered" true r.Baselines.delivered;
  Array.iteri
    (fun v c ->
      Alcotest.(check bool) (Printf.sprintf "node %d complete" v) true (c >= 0))
    r.Baselines.complete_round

let test_baseline_sequential () =
  let g = Topo.grid ~w:5 ~h:4 in
  let r = Baselines.sequential_multi ~rng:(rng 91) ~graph:g ~source:0 ~k:4 () in
  Alcotest.(check bool) "delivered" true r.Baselines.delivered

let test_baseline_cr () =
  let g = Topo.path 32 in
  let r = Decay.broadcast ~diameter:31 ~rng:(rng 92) ~graph:g ~source:0 () in
  Alcotest.(check bool) "completed" true (completed r.Decay.outcome)

(* ------------------------------------------------------------------ *)
(* Golden values *)

(* The Decay and CR baselines, the recruiting, bipartite-assignment
   and distributed-GST machines, and the registry entries over the
   centralized and distributed GST, pinned draw for draw: each digest is the
   MD5 of a canonical rendering of one run's outputs (3 graphs x 3 seeds
   per family).  How these modules store their state, or which nodes the
   engine wakes each round, must never show here. *)

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let int_pairs l =
  String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l)

let bip_graphs =
  List.map
    (fun (name, seed, reds, blues, p) ->
      (name, (reds, blues, Topo.bipartite_random ~rng:(rng seed) ~reds ~blues ~p)))
    [
      ("bip6x14", 1, 6, 14, 0.35);
      ("bip10x30", 2, 10, 30, 0.2);
      ("bip16x40", 3, 16, 40, 0.15);
    ]

let golden_graphs =
  [
    ("layered", Topo.layered_random ~rng:(rng 5) ~depth:6 ~width:6 ~p:0.3);
    ("random", Topo.random_connected ~rng:(rng 9) ~n:40 ~extra:40);
    ("grid", Topo.grid ~w:7 ~h:6);
  ]

let render_decay (r : Decay.result) =
  let s = r.Decay.stats in
  Printf.sprintf "%d|%d|%d|%d|%d|%s" s.Engine.rounds s.Engine.transmissions
    s.Engine.deliveries s.Engine.collisions s.Engine.busy_rounds
    (ints r.Decay.received_round)

let golden_decay ~seed g =
  render_decay (Decay.broadcast ~rng:(rng seed) ~graph:g ~source:0 ())

(* CR also pins its metrics phases: one phase per truncated³+full cycle. *)
let golden_cr ~seed g =
  let m = Rn_obs.Metrics.create () in
  let r =
    Decay.broadcast ~diameter:(Bfs.eccentricity g 0) ~metrics:m
      ~rng:(rng seed) ~graph:g ~source:0 ()
  in
  String.concat "\n" (render_decay r :: Rn_obs.Export.phases_jsonl m)

let golden_recruiting ~seed (reds, blues, g) =
  let o =
    Recruiting.run_standalone ~rng:(rng seed) ~params:Params.default ~graph:g
      ~reds:(Array.init reds Fun.id)
      ~blues:(Array.init blues (fun i -> reds + i))
      ()
  in
  Printf.sprintf "%d|%b|%b|%s" o.Recruiting.rounds o.Recruiting.all_covered
    o.Recruiting.classes_consistent
    (int_pairs o.Recruiting.recruited)

let golden_assignment ~seed (reds, blues, g) =
  let blue_ranks = Array.init (reds + blues) (fun v -> 1 + (v mod 3)) in
  let o =
    Bipartite_assignment.run_standalone ~rng:(rng seed) ~params:Params.default
      ~graph:g
      ~reds:(Array.init reds Fun.id)
      ~blues:(Array.init blues (fun i -> reds + i))
      ~blue_ranks ()
  in
  Printf.sprintf "%d|%s|%s|%s|%s" o.Bipartite_assignment.rounds
    (ints o.Bipartite_assignment.parents)
    (ints o.Bipartite_assignment.ranks)
    (ints o.Bipartite_assignment.parent_rank)
    (int_pairs o.Bipartite_assignment.epoch_history)

let golden_sequential_gst ~seed g =
  let r =
    Gst_distributed.construct ~mode:Gst_distributed.Sequential ~rng:(rng seed)
      ~graph:g ~roots:[| 0 |] ()
  in
  Printf.sprintf "%d|%d|%s|%s|%s" r.Gst_distributed.total_rounds
    r.Gst_distributed.assignment_rounds
    (ints r.Gst_distributed.gst.Gst.parents)
    (ints r.Gst_distributed.gst.Gst.ranks)
    (ints r.Gst_distributed.parent_rank)

let golden_entry name ~seed g =
  Protocols.ensure_registered ();
  match Registry.find name with
  | None -> Alcotest.fail ("unregistered " ^ name)
  | Some e ->
      let r = e.Registry.run ~seed ~graph:g ~source:0 () in
      Printf.sprintf "%d|%b|%s" r.Registry.rounds r.Registry.delivered
        (String.concat ";"
           (List.map (fun (k, v) -> k ^ "=" ^ v) r.Registry.details))

let golden_runs family graphs run =
  List.concat_map
    (fun (gname, g) ->
      List.map
        (fun seed ->
          ( Printf.sprintf "%s %s seed=%d" family gname seed,
            fun () -> run ~seed g ))
        [ 1; 2; 3 ])
    graphs

let golden_families =
  [
    ("decay", golden_runs "decay" golden_graphs golden_decay);
    ("cr", golden_runs "cr" golden_graphs golden_cr);
    ("recruiting", golden_runs "recruiting" bip_graphs golden_recruiting);
    ("assignment", golden_runs "assignment" bip_graphs golden_assignment);
    ( "sequential gst",
      golden_runs "sequential-gst" golden_graphs golden_sequential_gst );
    ("gst", golden_runs "gst" golden_graphs (golden_entry "gst"));
    ("known", golden_runs "known" golden_graphs (golden_entry "known"));
    ("gst-dist", golden_runs "gst-dist" golden_graphs (golden_entry "gst-dist"));
    ("thm11", golden_runs "thm11" golden_graphs (golden_entry "thm11"));
    ("unknown", golden_runs "unknown" golden_graphs (golden_entry "unknown"));
  ]

let golden =
  [
    ("decay layered seed=1", "35e945a5e78f4cbf7b62f4f237adce41");
    ("decay layered seed=2", "66f086873b8f9fe37541c3943b96ae52");
    ("decay layered seed=3", "ded09458b329662ba4f62f658ee73566");
    ("decay random seed=1", "a560854c16509828c2774b8d4f6b0e2e");
    ("decay random seed=2", "747db4b00a7499d345dc5804a51e12f0");
    ("decay random seed=3", "ea6463536377da19d12fcb69584e30c6");
    ("decay grid seed=1", "980dd8d39f1571e050c0dba654311a4b");
    ("decay grid seed=2", "a09ffba64d162192c1162bbf714f931d");
    ("decay grid seed=3", "0a6da78a77b8512d639906358a66c35b");
    ("cr layered seed=1", "20745afafbcc99c28ca63926a22e2068");
    ("cr layered seed=2", "06a9b19e45ea454f7525df93e6a3bf55");
    ("cr layered seed=3", "670decba644c2508f67b605de7652e3b");
    ("cr random seed=1", "de83bcc263a47518718b3d7a7b0fbc9d");
    ("cr random seed=2", "ffc8b7311b33b9631b5a85e2af1540f5");
    ("cr random seed=3", "e27eeb1ec538d090955fdf97c07bab98");
    ("cr grid seed=1", "4a745fae2768550835422e273fe4ee21");
    ("cr grid seed=2", "e2b8df15191750b51136dc1baa6b89ce");
    ("cr grid seed=3", "19420700f96ea9d63fa12d408cb82fab");
    ("recruiting bip6x14 seed=1", "82f5872a3114c67f6816df6cffd6f4f3");
    ("recruiting bip6x14 seed=2", "0bd56bcf19a74770b76c639564d2a033");
    ("recruiting bip6x14 seed=3", "97e289367aef888d03681231fc850554");
    ("recruiting bip10x30 seed=1", "6e43eb142fe91bcd1842504167397378");
    ("recruiting bip10x30 seed=2", "52882cd736397ffa6a33eae71b0dc10a");
    ("recruiting bip10x30 seed=3", "9a82b93fdbbda300c3f0c076f287bd25");
    ("recruiting bip16x40 seed=1", "482da3253526227e832b994ce2146b91");
    ("recruiting bip16x40 seed=2", "0f4f4039c9b2661c12307787e6b92c6e");
    ("recruiting bip16x40 seed=3", "c404a9c0add8c002bf2bd961c77811cb");
    ("assignment bip6x14 seed=1", "f3c9bc66dbc77b11877e34c07e625d6a");
    ("assignment bip6x14 seed=2", "6b39b4e7dfe137aed0929b07157edc0e");
    ("assignment bip6x14 seed=3", "28b4cbb33cc12e2fba52974978d09622");
    ("assignment bip10x30 seed=1", "8898b31834cc7d42f2a76f76c8764e42");
    ("assignment bip10x30 seed=2", "498080895fbf8a7b7e24da9052e841b7");
    ("assignment bip10x30 seed=3", "4905578b42cb2fc0a4e4a7d028e485ad");
    ("assignment bip16x40 seed=1", "19febade2235097a2b915952e137f7cd");
    ("assignment bip16x40 seed=2", "580f99ef036de2ce6056e84e389c3a86");
    ("assignment bip16x40 seed=3", "8609ccf2f2bdcfb7c50b26b7f9bf3517");
    ("sequential-gst layered seed=1", "1cdbfbdf1738907f45437525f6d84630");
    ("sequential-gst layered seed=2", "72add6e5313f6bbe2b26e6491eac75e8");
    ("sequential-gst layered seed=3", "61843173a7a207780b1b4423671a590e");
    ("sequential-gst random seed=1", "fbb5234c7121ec569c023a8cf4ef81a2");
    ("sequential-gst random seed=2", "e137237e65a25fdf9d733291569f267f");
    ("sequential-gst random seed=3", "aee5a4caa8f8a3d76de41a057ced42d9");
    ("sequential-gst grid seed=1", "e7ac5eca72ac47fb4ba1c19b523c3f8c");
    ("sequential-gst grid seed=2", "2a5ac3f15a3afad3411e2b62a2210e83");
    ("sequential-gst grid seed=3", "a849624643fa611d94e4016a76def02a");
    ("gst layered seed=1", "39673c415e7455840b9b79184b935892");
    ("gst layered seed=2", "090544211fb247171c290ab05cef5285");
    ("gst layered seed=3", "6a943e66ce85053b52b758dd11e038ca");
    ("gst random seed=1", "cf991a9698de4d1fe88aeb9c05a6fadb");
    ("gst random seed=2", "d88b9e2023630ef2f55ee321fea8883b");
    ("gst random seed=3", "33334b25eee2c50263391e715554762c");
    ("gst grid seed=1", "cd1e59933bf9d41c412fd6fb35532953");
    ("gst grid seed=2", "34449abb3ebdebcba79c7869db12786b");
    ("gst grid seed=3", "5cb81a0477801134c1b907bb99d4379a");
    ("known layered seed=1", "f044a557e7554c386cef46756aea162e");
    ("known layered seed=2", "4165f4f21903620536368abf27e48fbb");
    ("known layered seed=3", "0695c092e9ce6e56f05c36641d1b0158");
    ("known random seed=1", "372f99bfd3bbd1cb8a8d692ccfcaccac");
    ("known random seed=2", "1b00a98d553f3e5c7246b18103a80815");
    ("known random seed=3", "c02aa036216be10c04ae5b2c2b9f1479");
    ("known grid seed=1", "69e7cd8fd8227b2d395b9f1119c92f62");
    ("known grid seed=2", "d3423a1675bd5039b81d0a23c4c38dab");
    ("known grid seed=3", "a9e33510b4cc9cfc99a54156e7cae2ad");
    ("gst-dist layered seed=1", "407e08d96fe15740af35c5e1eb88be48");
    ("gst-dist layered seed=2", "3f7dfe6e37977f1acf6b410f7c848546");
    ("gst-dist layered seed=3", "3c424a2211a8894c3d9df5b0965168ad");
    ("gst-dist random seed=1", "2e8a3bbe5d11b3666f41eef9363de6d7");
    ("gst-dist random seed=2", "732134dedd00833828fd2e0175ef360e");
    ("gst-dist random seed=3", "813cb46cc7d7640d50324db32dc5aea8");
    ("gst-dist grid seed=1", "fa313fb92dc64089477389d8d47e6e7d");
    ("gst-dist grid seed=2", "e11506634875cef4e4fbbfa15858a710");
    ("gst-dist grid seed=3", "6107460dd5304a3d8966a3eaa3950f4f");
    ("thm11 layered seed=1", "56ac9f833ebaa37e346dfe6f643aec28");
    ("thm11 layered seed=2", "def81d5264cc30b31046240582928ee4");
    ("thm11 layered seed=3", "33dab6b9364c46d62950b608df0ac7a7");
    ("thm11 random seed=1", "5fbd2ced995f912cb7212df3b70fd87b");
    ("thm11 random seed=2", "d16b924d4a27f36e71da863e57a905ac");
    ("thm11 random seed=3", "c3fb1f2b82831186e0f4a9ef88f03345");
    ("thm11 grid seed=1", "e1b982c0fe8f3712ea6d3048f6a7dcb8");
    ("thm11 grid seed=2", "250f8be7968110fb3517725f3797aa13");
    ("thm11 grid seed=3", "8c029146553d11f82e8a25913d9299d7");
    ("unknown layered seed=1", "51121013df13a2cc356d8be34d698a45");
    ("unknown layered seed=2", "54ddb5d59545d1b6ce2209dff827c9e3");
    ("unknown layered seed=3", "0db9996ba1933f2816e49ce82fccac0d");
    ("unknown random seed=1", "10a403b2c8eab59206481a36620ff6f2");
    ("unknown random seed=2", "7dcb8fa44f7127a9eb5c36a8a84ad1f1");
    ("unknown random seed=3", "aec27164e0274dc0505fd3e45514e7b0");
    ("unknown grid seed=1", "99f582fd47b2c51cae9356264b45adf0");
    ("unknown grid seed=2", "518efc7b94d45001e761480d32591c96");
    ("unknown grid seed=3", "0ee5354b0782558b70d60ba295026735");
  ]

let golden_case (family, runs) =
  Alcotest.test_case family `Quick (fun () ->
      List.iter
        (fun (key, render) ->
          match List.assoc_opt key golden with
          | None -> Alcotest.fail ("no golden value for " ^ key)
          | Some want ->
              Alcotest.(check string) key want
                (Digest.to_hex (Digest.string (render ()))))
        runs)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let arb_graph =
  QCheck.make
    ~print:(fun (n, extra, seed) ->
      Printf.sprintf "(n=%d,extra=%d,seed=%d)" n extra seed)
    QCheck.Gen.(triple (int_range 2 50) (int_range 0 60) (int_range 0 10_000))

let graph_of (n, extra, seed) =
  Topo.random_connected ~rng:(Rng.create ~seed) ~n ~extra

(* The eager Theorem 1.1 reference: build every ring's forest through
   [front] first, then spread ring by ring.  [Single_broadcast.run]
   builds each ring just before its spread; the records must agree. *)
let eager_single_broadcast ~rings ~params ~seed ~graph =
  let rng = Rng.create ~seed in
  let f = Single_broadcast.front ~rings ~params ~rng ~graph ~source:0 () in
  let rings_t = f.Single_broadcast.rings in
  let count = rings_t.Rings.count in
  let built = List.init count f.Single_broadcast.build in
  let msg = [| Rn_coding.Bitvec.random rng 32 |] in
  let received = Array.make (Graph.n graph) false in
  received.(0) <- true;
  let rounds_broadcast = ref 0 and ok = ref true in
  List.iteri
    (fun j (r : Gst_distributed.result) ->
      let roots = Rings.roots rings_t j in
      if !ok && not (Array.for_all (fun v -> received.(v)) roots) then
        ok := false;
      if !ok then begin
        let b =
          Gst_broadcast.run ~params ~rng:(Rng.split rng) ~gst:r.gst ~vd:r.vd
            ~msgs:msg ~sources:roots ()
        in
        rounds_broadcast := !rounds_broadcast + b.Gst_broadcast.rounds;
        if completed b.Gst_broadcast.outcome then
          Array.iteri
            (fun v dr -> if dr >= 0 then received.(v) <- true)
            b.Gst_broadcast.decode_round
        else ok := false;
        if !ok && j + 1 < count then begin
          let receivers = Rings.roots rings_t (j + 1) in
          let h =
            Rings.handoff_single ~params ~rng:(Rng.split rng) ~graph
              ~holders:(Rings.outer_boundary rings_t j) ~receivers ()
          in
          rounds_broadcast := !rounds_broadcast + h.Rings.rounds;
          if h.Rings.delivered then
            Array.iter (fun v -> received.(v) <- true) receivers
          else ok := false
        end
      end)
    built;
  let slowest =
    List.fold_left (fun m (r : Gst_distributed.result) -> max m r.total_rounds)
      0 built
  in
  let rounds_layering = f.Single_broadcast.rounds_layering in
  {
    Single_broadcast.delivered = !ok && Array.for_all Fun.id received;
    rounds_total = rounds_layering + (2 * slowest) + !rounds_broadcast;
    rounds_layering;
    rounds_construction = 2 * slowest;
    rounds_broadcast = !rounds_broadcast;
    ring_count = count;
    ring_width = rings_t.Rings.width;
    received;
  }

(* Random layered graphs under every ring choice, with the default
   budgets and with [max_round_factor = 0], under which the first in-ring
   spread runs out of budget: the later rings are still built and still
   count towards the charged construction cost. *)
let ring_by_ring_matches_eager =
  QCheck.Test.make ~name:"Theorem 1.1 ring by ring = eager rings" ~count:12
    QCheck.(
      quad (int_range 1 12) (int_range 1 4) (int_range 0 1000) bool)
    (fun (depth, width, seed, tight) ->
      let graph =
        Topo.layered_random ~rng:(rng seed) ~depth ~width ~p:0.3
      in
      let params =
        if tight then { Params.default with Params.max_round_factor = 0 }
        else Params.default
      in
      List.for_all
        (fun rings ->
          let r =
            Single_broadcast.run ~rings ~params ~rng:(rng (seed + 1)) ~graph
              ~source:0 ()
          in
          let e = eager_single_broadcast ~rings ~params ~seed:(seed + 1) ~graph in
          if r <> e then
            QCheck.Test.fail_reportf
              "depth %d width %d seed %d tight %b: rounds %d/%d vs eager \
               %d/%d, delivered %b vs %b"
              depth width seed tight r.Single_broadcast.rounds_total
              r.Single_broadcast.rounds_construction
              e.Single_broadcast.rounds_total
              e.Single_broadcast.rounds_construction
              r.Single_broadcast.delivered e.Single_broadcast.delivered;
          r.Single_broadcast.delivered = not tight)
        Single_broadcast.[ Auto; Ring_width 1; Ring_width (depth + 1) ])

let qcheck_tests =
  let open QCheck in
  [
    ring_by_ring_matches_eager;
    layering_matches_reference;
    Test.make ~name:"decay broadcast always delivers" ~count:60 arb_graph
      (fun spec ->
        let g = graph_of spec in
        let r = Decay.broadcast ~rng:(rng 1) ~graph:g ~source:0 () in
        completed r.Decay.outcome
        && Array.for_all (fun rr -> rr >= 0) r.Decay.received_round);
    Test.make ~name:"collision wave = BFS levels" ~count:80 arb_graph
      (fun spec ->
        let g = graph_of spec in
        let r = Layering.collision_wave ~graph:g ~sources:[| 0 |] () in
        r.Layering.levels = Bfs.levels g ~src:0);
    Test.make ~name:"distributed GST validates" ~count:40 arb_graph
      (fun spec ->
        let g = graph_of spec in
        let r =
          Gst_distributed.construct ~rng:(rng 2) ~graph:g ~roots:[| 0 |] ()
        in
        match Gst.validate r.Gst_distributed.gst with
        | Ok () -> Gst.size r.Gst_distributed.gst = Graph.n g
        | Error _ -> false);
    Test.make ~name:"distributed vd = virtual distances" ~count:25 arb_graph
      (fun spec ->
        let g = graph_of spec in
        let r =
          Gst_distributed.construct ~learn_vd:true ~rng:(rng 3) ~graph:g
            ~roots:[| 0 |] ()
        in
        r.Gst_distributed.vd = Gst.virtual_distances r.Gst_distributed.gst);
    Test.make ~name:"GST broadcast delivers and decodes" ~count:30
      (pair arb_graph (int_range 1 6))
      (fun (spec, k) ->
        let g = graph_of spec in
        let gst = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
        let vd = Gst.virtual_distances gst in
        let msgs = Multi_broadcast.random_messages (rng 4) ~k ~msg_len:16 in
        let r = Gst_broadcast.run ~rng:(rng 5) ~gst ~vd ~msgs ~sources:[| 0 |] () in
        completed r.Gst_broadcast.outcome && r.Gst_broadcast.payloads_ok);
    Test.make ~name:"Theorem 1.1 delivers on random graphs" ~count:15 arb_graph
      (fun spec ->
        let g = graph_of spec in
        let r = Single_broadcast.run ~rng:(rng 6) ~graph:g ~source:0 () in
        r.Single_broadcast.delivered);
  ]

let () =
  Alcotest.run "protocols"
    [
      ( "decay",
        [
          Alcotest.test_case "probability ladder" `Quick test_decay_probability_ladder;
          Alcotest.test_case "broadcast delivers" `Quick test_decay_broadcast_delivers;
          Alcotest.test_case "single node" `Quick test_decay_single_node;
          Alcotest.test_case "causality" `Quick test_decay_respects_distance;
          Alcotest.test_case "MMV noising" `Quick test_decay_mmv_noising_delivers;
          Alcotest.test_case "MMV silent" `Quick test_decay_mmv_silent_delivers;
          Alcotest.test_case "CR ladder" `Quick test_cr_ladder_values;
        ] );
      ( "recruiting",
        [
          Alcotest.test_case "covers all blues" `Quick test_recruiting_covers_all;
          Alcotest.test_case "parents adjacent" `Quick test_recruiting_parents_are_neighbors;
          Alcotest.test_case "red classes" `Quick test_recruiting_red_classes_match;
          Alcotest.test_case "single pair" `Quick test_recruiting_single_pair;
          Alcotest.test_case "uncoverable blue" `Quick test_recruiting_uncoverable_blue;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "assigns everyone, ranks correct" `Slow
            test_assignment_assigns_everyone;
          Alcotest.test_case "epoch history" `Quick
            test_assignment_epoch_shrinkage_recorded;
        ] );
      ( "layering",
        [
          Alcotest.test_case "collision wave exact" `Quick
            test_collision_wave_exact_levels;
          Alcotest.test_case "collision wave diamond" `Quick test_collision_wave_needs_cd;
          Alcotest.test_case "decay BFS" `Quick test_decay_bfs_levels;
          Alcotest.test_case "decay BFS multi-source" `Quick test_decay_bfs_multi_source;
          Alcotest.test_case "duplicate sources" `Quick test_layering_duplicate_sources;
        ] );
      ( "gst_distributed",
        [
          Alcotest.test_case "valid and spanning" `Slow
            test_distributed_gst_valid_and_spanning;
          Alcotest.test_case "sequential mode" `Quick test_distributed_gst_sequential_mode;
          Alcotest.test_case "learned vd" `Slow test_distributed_gst_learned_vd_matches;
          Alcotest.test_case "parent rank knowledge" `Quick
            test_distributed_gst_parent_rank_knowledge;
          Alcotest.test_case "ring band" `Quick test_distributed_gst_ring_band;
          Alcotest.test_case "no class fixups" `Quick test_distributed_gst_no_fixups_expected;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "slots disjoint" `Quick test_schedule_slots_disjoint;
          Alcotest.test_case "fast cadence" `Quick test_schedule_fast_cadence;
          Alcotest.test_case "slow cadence" `Quick test_schedule_slow_cadence;
          Alcotest.test_case "single broadcast" `Quick test_gst_broadcast_single;
          Alcotest.test_case "silent variant" `Quick test_gst_broadcast_silent_variant;
          Alcotest.test_case "multi-root sources" `Quick test_gst_broadcast_multi_sources;
        ] );
      ( "rings",
        [
          Alcotest.test_case "decompose" `Quick test_rings_decompose;
          Alcotest.test_case "charged rounds" `Quick test_rings_charged_rounds;
          Alcotest.test_case "single handoff" `Quick test_handoff_single;
          Alcotest.test_case "repeated receiver" `Quick test_handoff_repeated_receiver;
          Alcotest.test_case "FEC handoff" `Quick test_handoff_fec_batch;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "1.1 single broadcast" `Slow test_theorem_1_1;
          Alcotest.test_case "1.1 ring choices" `Slow test_theorem_1_1_ring_choices;
          Alcotest.test_case "1.2 known topology" `Slow test_theorem_1_2;
          Alcotest.test_case "1.3 unknown topology" `Slow test_theorem_1_3;
          Alcotest.test_case "routing baseline" `Quick test_baseline_routing;
          Alcotest.test_case "sequential baseline" `Quick test_baseline_sequential;
          Alcotest.test_case "CR baseline" `Quick test_baseline_cr;
        ] );
      ("golden", List.map golden_case golden_families);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
