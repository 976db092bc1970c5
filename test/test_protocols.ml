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

let test_decay_exponent_ladder () =
  let e = Decay.exponent ~ladder:4 in
  Alcotest.(check int) "round 0" 1 (e 0);
  Alcotest.(check int) "round L-1" 4 (e 3);
  Alcotest.(check int) "wraps at L" 1 (e 4);
  Alcotest.(check int) "second phase" 3 (e 6);
  Alcotest.(check int) "ladder 1" 1 (Decay.exponent ~ladder:1 5);
  (* The CR cycle with short = 2, full = 4: three truncated phases
     (exponent ~ladder:short r), then one full phase
     (exponent ~ladder:full (r - 6)). *)
  let short = 2 and full = 4 in
  let truncated = 3 * short in
  let cr r =
    let r = r mod (truncated + full) in
    if r < truncated then Decay.exponent ~ladder:short r
    else Decay.exponent ~ladder:full (r - truncated)
  in
  Alcotest.(check (list int)) "CR cycle"
    [ 1; 2; 1; 2; 1; 2; 1; 2; 3; 4; 1; 2 ]
    (List.init 12 cr);
  let m = Decay.mmv_exponent ~ladder:4 in
  Alcotest.(check (list int)) "mmv ladder, negative steps wrap"
    [ 2; 3; 0; 1; 2; 3; 0; 1 ]
    (List.map m [ -6; -5; -4; -3; -2; -1; 0; 1 ])

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
   front, and the assignment phase's per-level control; the differential
   properties below hold the current code to them. *)
module Reference = struct
  let decay_bfs ?(params = Params.default) ?max_rounds ~rng ~graph ~sources
      () =
    let n = Graph.n graph in
    let ladder = Params.phase_len ~n in
    let epoch_len = Params.whp_rounds params ~n in
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
      Drive.run ~graph ~detection:Engine.No_collision_detection ~protocol
        ~stop ~max_rounds ()
    in
    (levels, Engine.rounds_of_outcome outcome)

  let collision_wave ~graph ~sources () =
    let n = Graph.n graph in
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
        ~max_rounds:(n + 1) ()
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

  (* The assignment phase's per-round control before it cached each pair's
     state, kept verbatim as a reference over the public
     [Bipartite_assignment] API: an owner lookup through [finished] on
     every decide and delivery, an [after_round] over every level of the
     round's slot and a [stop] that walks the finished pairs.
     [Gst_distributed.construct]
     with a given layering must reproduce its parents, ranks, parent ranks,
     round count and counters exactly. *)
  let run_assignment ~mode ~params ~detection ~rng ~graph ~levels
      ~level_nodes () =
    let n = Graph.n graph in
    let scale_n = n in
    let depth = Array.length level_nodes - 1 in
    let parents = Array.make n (-1) in
    let ranks = Array.make n 0 in
    let parent_rank = Array.make n (-1) in
    if depth <= 0 then begin
      Array.iteri (fun v l -> if l = 0 then ranks.(v) <- 1) levels;
      (parents, ranks, parent_rank, 0, 0, 0)
    end
    else begin
      let at_level l = level_nodes.(l) in
      let pos = Array.make n (-1) in
      Array.iter (Array.iteri (fun i v -> pos.(v) <- i)) level_nodes;
      Array.iter (fun v -> ranks.(v) <- 1) (at_level depth);
      let leaf_inited = Array.make (depth + 1) false in
      leaf_inited.(depth) <- true;
      let blocks = Array.make (depth + 1) None in
      let block l = match blocks.(l) with Some b -> b | None -> assert false in
      let finished_pair l = Bipartite_assignment.finished (block l) in
      let leaf_init l =
        if not leaf_inited.(l) then begin
          Array.iter (fun v -> if ranks.(v) = 0 then ranks.(v) <- 1) (at_level l);
          leaf_inited.(l) <- true
        end
      in
      let ready_for l ~rank =
        if l = depth then true
        else begin
          let below = block (l + 1) in
          let fin = Bipartite_assignment.finished below in
          if fin then leaf_init l;
          fin || Bipartite_assignment.current_rank below < rank - 1
        end
      in
      for l = 1 to depth do
        blocks.(l) <-
          Some
            (Bipartite_assignment.create ~rng:(Rng.split rng) ~params ~scale_n
               ~graph ~reds:(at_level (l - 1)) ~blues:(at_level l) ~pos
               ~parents ~ranks ~parent_rank ~ready:(ready_for l) ())
      done;
      let current = ref depth in
      let rec done_from l = l < 1 || (finished_pair l && done_from (l - 1)) in
      let owner_level ~round ~node =
        let l = levels.(node) in
        if l < 0 then 0
        else
          match mode with
          | Gst_distributed.Sequential ->
              let c = !current in
              if (l = c || l = c - 1) && not (finished_pair c) then c else 0
          | Gst_distributed.Pipelined ->
              let slot = round mod 3 in
              if l >= 1 && l <= depth && l mod 3 = slot && not (finished_pair l)
              then l
              else if
                l + 1 >= 1
                && l + 1 <= depth
                && (l + 1) mod 3 = slot
                && not (finished_pair (l + 1))
              then l + 1
              else 0
      in
      let decide ~round ~node =
        let l = owner_level ~round ~node in
        if l = 0 then Engine.Sleep
        else Bipartite_assignment.decide (block l) ~node
      in
      let deliver ~round ~node reception =
        let l = owner_level ~round ~node in
        if l > 0 then Bipartite_assignment.deliver (block l) ~node reception
      in
      let after_round ~round =
        match mode with
        | Gst_distributed.Sequential ->
            let c = !current in
            if not (finished_pair c) then Bipartite_assignment.advance (block c);
            while !current > 1 && finished_pair !current do
              leaf_init (!current - 1);
              decr current
            done
        | Gst_distributed.Pipelined ->
            let slot = round mod 3 in
            for l = 1 to depth do
              if l mod 3 = slot && not (finished_pair l) then
                Bipartite_assignment.advance (block l)
            done
      in
      let ladder = Ilog.clog (max 2 scale_n) in
      let max_rounds =
        params.Params.max_round_factor * ((depth + 2) * Ilog.pow ladder 5)
        + 10_000
      in
      let first_of_slot slot = if slot = 0 then 3 else slot in
      let rec put_slot l buf k =
        if l > depth then k
        else put_slot (l + 3) buf (Bipartite_assignment.awake (block l) buf k)
      in
      let decide_active ~round (buf : int array) =
        match mode with
        | Gst_distributed.Sequential ->
            Bipartite_assignment.awake (block !current) buf 0
        | Gst_distributed.Pipelined -> put_slot (first_of_slot (round mod 3)) buf 0
      in
      let protocol = { Engine.decide; deliver } in
      let stop ~round:_ = done_from depth in
      let outcome =
        Drive.run ~decide_active ~graph ~detection ~protocol ~after_round
          ~stop ~max_rounds ()
      in
      let rounds =
        match outcome with
        | Engine.Completed r -> r
        | Engine.Out_of_budget _ ->
            failwith "Reference: assignment phase exhausted its budget"
      in
      leaf_init 0;
      let sum f =
        Array.fold_left
          (fun acc b -> match b with Some b -> acc + f b | None -> acc)
          0 blocks
      in
      ( parents,
        ranks,
        parent_rank,
        rounds,
        sum Bipartite_assignment.class_fixups,
        sum Bipartite_assignment.fallback_reactivations )
    end
end

(* Random graphs of one or two random connected components (the second
   unreachable from the first), with 1–3 distinct sources. *)
let arb_layering =
  QCheck.(
    pair
      (triple (Qarb.int_range 1 40)
         (frequency ~shrink:Shrink.int
            [ (2, always 0); (1, Qarb.int_range 1 8) ])
         (Qarb.int_range 0 40))
      (pair (Qarb.int_range 0 10_000) (Qarb.int_range 1 3))
    |> map
         ~rev:(fun (n1, n2, extra, seed, k) -> ((n1, n2, extra), (seed, k)))
         (fun ((n1, n2, extra), (seed, k)) -> (n1, n2, extra, seed, k))
    |> set_print (fun (n1, n2, extra, seed, k) ->
           Printf.sprintf "(n1=%d,n2=%d,extra=%d,seed=%d,sources=%d)" n1 n2
             extra seed k))

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
        (depth + 3) * Params.whp_rounds Params.default ~n
      in
      let ref_levels, ref_rounds =
        Drive.with_engine Engine.Dense (fun () ->
            Reference.decay_bfs ~max_rounds ~rng:(rng seed) ~graph:g ~sources
              ())
      in
      List.iter
        (fun engine ->
          let r =
            Drive.with_engine engine (fun () ->
                Layering.decay_bfs ~max_rounds ~rng:(rng seed) ~graph:g
                  ~sources ())
          in
          if r.Layering.levels <> ref_levels || r.Layering.rounds <> ref_rounds
          then
            QCheck.Test.fail_reportf "decay_bfs: rounds %d vs reference %d"
              r.Layering.rounds ref_rounds)
        [ Engine.Dense; Engine.Sparse ];
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
  let r, decoded_ok =
    Rings.handoff_fec ~rng:(rng 5) ~graph:g ~holders:[| 0; 1; 2 |]
      ~receivers:[| 3; 4; 5; 6 |] ~msgs ()
  in
  Alcotest.(check bool) "delivered" true r.Rings.delivered;
  Alcotest.(check bool) "batch intact" true decoded_ok

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
(* Exact law of the Decay ladder *)

(* A listener with [d] transmitting neighbours, each sending independently
   with probability p_r in round r, hears in round r with probability
   q_r = d·p_r·(1 − p_r)^(d−1), so the number of rounds until it first
   hears has the exact law P(rounds > t) = Π_{r<t} (1 − q_r).  The cases
   below test the simulated round counts against that law by chi-square.
   Each law spells its exponents out again ((r mod L) + 1, and the CR
   cycle), independently of [Decay.exponent], so a wrong ladder in the
   code fails the test instead of moving the oracle with it.

   Fixed design: N = 4000 runs per case, each run on its own [Rng.split]
   of the case's master stream [Rng.create ~seed:(1000 + d)] (the CR case:
   seed 1000); α = 0.001 over the six cases, Bonferroni, so each case
   needs p ≥ α/6. *)

let law_runs = 4000
let law_alpha = 0.001 /. 6.0

(* ln Γ(a) for a positive multiple of 1/2: Γ(1) = 1, Γ(1/2) = √π and
   Γ(a + 1) = a·Γ(a). *)
let rec log_gamma_half a =
  if a = 1.0 then 0.0
  else if a = 0.5 then 0.5 *. log Float.pi
  else log (a -. 1.0) +. log_gamma_half (a -. 1.0)

(* P(χ²_df > x) = Q(df/2, x/2), the regularized upper incomplete gamma:
   one minus the power series of the lower one below y = a + 1, the
   continued fraction (modified Lentz) above it. *)
let chi2_sf ~df x =
  let a = float_of_int df /. 2.0 and y = x /. 2.0 in
  if y <= 0.0 then 1.0
  else
    let front = exp ((a *. log y) -. y -. log_gamma_half a) in
    if y < a +. 1.0 then
      let rec sum k term acc =
        let term = term *. y /. (a +. float_of_int k) in
        if term < 1e-17 *. acc then acc else sum (k + 1) term (acc +. term)
      in
      1.0 -. (front *. sum 1 (1.0 /. a) (1.0 /. a))
    else
      let tiny = 1e-300 in
      let rec frac i b c d h =
        let an = -.float_of_int i *. (float_of_int i -. a) and b = b +. 2.0 in
        let d = (an *. d) +. b in
        let d = 1.0 /. if Float.abs d < tiny then tiny else d in
        let c = b +. (an /. c) in
        let c = if Float.abs c < tiny then tiny else c in
        let h = h *. d *. c in
        if Float.abs ((d *. c) -. 1.0) < 1e-15 || i > 10_000 then h
        else frac (i + 1) b c d h
      in
      let b = y +. 1.0 -. a in
      front *. frac 1 b (1.0 /. tiny) (1.0 /. b) (1.0 /. b)

(* Chi-square of the observed round counts ([rounds] ≥ 1) against the law
   whose per-round hearing probability is [q r] (round r counted from 0).
   Cells are runs of consecutive round counts merged until each expects at
   least 5 runs; the tail from the last cell on is pooled into it. *)
let chi2_against_law ~q rounds =
  let n = float_of_int (Array.length rounds) in
  (* [cells] holds (first round count, probability), last cell first. *)
  let rec build t surv lo acc cells =
    if surv *. n < 5.0 then
      match cells with
      | (lo', p') :: rest when (acc +. surv) *. n < 5.0 ->
          (lo', p' +. acc +. surv) :: rest
      | _ -> (lo, acc +. surv) :: cells
    else
      let p = surv *. q (t - 1) in
      let surv = surv -. p and acc = acc +. p in
      if acc *. n >= 5.0 then build (t + 1) surv (t + 1) 0.0 ((lo, acc) :: cells)
      else build (t + 1) surv lo acc cells
  in
  let cells = Array.of_list (List.rev (build 1 1.0 1 0.0 [])) in
  let k = Array.length cells in
  let observed = Array.make k 0 in
  Array.iter
    (fun r ->
      let rec cell i = if i + 1 < k && fst cells.(i + 1) <= r then cell (i + 1) else i in
      observed.(cell 0) <- observed.(cell 0) + 1)
    rounds;
  let chi2 = ref 0.0 in
  Array.iteri
    (fun i (_, p) ->
      let e = n *. p in
      let dev = float_of_int observed.(i) -. e in
      chi2 := !chi2 +. (dev *. dev /. e))
    cells;
  (!chi2, k - 1)

let check_law ?(alpha = law_alpha) what ~q rounds =
  let chi2, df = chi2_against_law ~q rounds in
  let p = chi2_sf ~df chi2 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: chi2 = %.1f over %d cells, p = %.2g >= %.2g" what
       chi2 (df + 1) p alpha)
    true (p >= alpha)

let test_chi2_sf () =
  (* df = 2 is the exponential: P(χ²_2 > x) = e^{−x/2}; the others are
     table quantiles (0.999 at df 1 and 10, 0.01 at df 10). *)
  List.iter
    (fun x ->
      Alcotest.(check (float 1e-12)) (Printf.sprintf "df=2 x=%g" x)
        (exp (-.x /. 2.0)) (chi2_sf ~df:2 x))
    [ 0.5; 3.0; 20.0 ];
  Alcotest.(check (float 1e-5)) "df=1 at 10.828" 0.001 (chi2_sf ~df:1 10.828);
  Alcotest.(check (float 1e-5)) "df=10 at 29.588" 0.001 (chi2_sf ~df:10 29.588);
  Alcotest.(check (float 1e-4)) "df=10 at 2.558" 0.99 (chi2_sf ~df:10 2.558);
  Alcotest.(check (float 1e-12)) "far tail" 0.0 (chi2_sf ~df:9 1e6)

(* Rings.handoff_single on a star: holders 1 … d, receiver the centre. *)
let test_handoff_exact_law () =
  List.iter
    (fun d ->
      let graph = Topo.star (d + 1) in
      let ladder = Params.phase_len ~n:(d + 1) in
      let q r =
        let p = ldexp 1.0 (-((r mod ladder) + 1)) in
        float_of_int d *. p *. ((1.0 -. p) ** float_of_int (d - 1))
      in
      let master = Rng.create ~seed:(1000 + d) in
      let holders = Array.init d (fun i -> i + 1) in
      let rounds =
        Array.init law_runs (fun _ ->
            let r =
              Rings.handoff_single ~rng:(Rng.split master) ~graph ~holders
                ~receivers:[| 0 |] ()
            in
            if not r.Rings.delivered then Alcotest.fail "handoff not delivered";
            r.Rings.rounds)
      in
      check_law (Printf.sprintf "handoff d=%d ladder=%d" d ladder) ~q rounds)
    [ 1; 2; 3; 16; 255 ]

(* Decay.broadcast's CR cycle from the centre of a star: every leaf has
   one informed neighbour and all hear the centre's first transmission.
   At n = 17 and diameter 9 the cycle is three truncated phases of 2
   rounds, then one full phase of 5. *)
let test_cr_cycle_exact_law () =
  let n = 17 and diameter = 9 in
  let graph = Topo.star n in
  let full = Params.phase_len ~n in
  let short = min full (Decay.cr_ladder ~n ~diameter) in
  Alcotest.(check (pair int int)) "short < full" (2, 5) (short, full);
  let q r =
    let r = r mod ((3 * short) + full) in
    let e = if r < 3 * short then (r mod short) + 1 else r - (3 * short) + 1 in
    ldexp 1.0 (-e)
  in
  let master = Rng.create ~seed:1000 in
  let rounds =
    Array.init law_runs (fun _ ->
        let r =
          Decay.broadcast ~diameter ~rng:(Rng.split master) ~graph ~source:0 ()
        in
        match r.Decay.outcome with
        | Engine.Completed t -> t
        | Engine.Out_of_budget _ -> Alcotest.fail "CR run not completed")
  in
  check_law "CR cycle d=1" ~q rounds

(* Decay.mmv_broadcast on K_{1,d,1}: source 0 (level 0), level-1 nodes
   1 … d, receiver d + 1 adjacent to all of them.  The source's step-0
   slot (round 1, exponent 0) informs every level-1 node; from then on
   the receiver can hear only in the level-1 slots, rounds 2 + 3s, where
   each level-1 node transmits with probability p_s = 2^(−(s mod L)),
   L = Params.phase_len (d + 2).  So received_round = 2 + 3S with
   P(S > s) = Π_{s' ≤ s} (1 − d·p_s'·(1 − p_s')^(d−1)); the exponent is
   spelled out here, apart from [Decay.mmv_exponent].  The receiver's own
   slot is ≡ 0 (mod 3) and nobody it could inform listens to it, so its
   noise changes nothing: the [noising = false] run of every seed must
   give the same receptions.

   Fixed design: N = 4000 runs per d ∈ {2, 3, 16}, each on its own
   [Rng.split] of [Rng.create ~seed:(2000 + d)]; α = 0.001 over the three
   cases, Bonferroni. *)
let test_mmv_exact_law () =
  List.iter
    (fun d ->
      let n = d + 2 in
      let graph =
        Graph.create ~n
          ~edges:
            (List.concat
               (List.init d (fun i -> [ (0, i + 1); (i + 1, d + 1) ])))
      in
      let levels =
        Array.init n (fun v -> if v = 0 then 0 else if v <= d then 1 else 2)
      in
      let ladder = Params.phase_len ~n in
      let q s =
        let p = ldexp 1.0 (-(s mod ladder)) in
        float_of_int d *. p *. ((1.0 -. p) ** float_of_int (d - 1))
      in
      let master = Rng.create ~seed:(2000 + d) in
      let steps =
        Array.init law_runs (fun _ ->
            let rng = Rng.split master in
            let run noising =
              let r =
                Decay.mmv_broadcast ~noising ~rng:(Rng.copy rng) ~graph ~levels
                  ~source:0 ()
              in
              if not (completed r.Decay.outcome) then
                Alcotest.fail "MMV run not completed";
              r.Decay.received_round
            in
            let rr = run true in
            if rr <> run false then
              Alcotest.fail "noising = false received at different rounds";
            Array.iteri
              (fun v t ->
                if v >= 1 && v <= d && t <> 1 then
                  Alcotest.failf "level-1 node %d received at %d, not 1" v t)
              rr;
            let t = rr.(d + 1) in
            if t < 2 || (t - 2) mod 3 <> 0 then
              Alcotest.failf "receiver heard at round %d, not 2 + 3s" t;
            ((t - 2) / 3) + 1)
      in
      check_law ~alpha:(0.001 /. 3.0)
        (Printf.sprintf "MMV K_{1,%d,1} ladder=%d" d ladder)
        ~q steps)
    [ 2; 3; 16 ]

(* On a path the level-(l−1) node's step-0 slot is round l, where it
   transmits with probability 1 to its only listener: every node receives
   at round = its level, under both [noising] values. *)
let test_mmv_path_exact () =
  let n = 12 in
  let graph = Topo.path n in
  let levels = Bfs.levels graph ~src:0 in
  for seed = 1 to 200 do
    List.iter
      (fun noising ->
        let r =
          Decay.mmv_broadcast ~noising ~rng:(Rng.create ~seed) ~graph ~levels
            ~source:0 ()
        in
        Alcotest.(check (array int))
          (Printf.sprintf "seed %d noising %b" seed noising)
          (Array.init n Fun.id) r.Decay.received_round)
      [ true; false ]
  done

(* ------------------------------------------------------------------ *)
(* Golden values *)

(* The Decay and CR baselines, the recruiting, bipartite-assignment
   and distributed-GST machines, and the registry entries over the
   centralized and distributed GST, pinned draw for draw: each digest is the
   MD5 of a canonical rendering of one run's outputs (3 graphs x 3 seeds
   per family; "gst-dist strict" adds both construction modes).  The
   strict families run fixed budgets ([adaptive = false]), so a stage
   that ends at the wrong round shows here even when oracle exits hide
   it.  How these modules store their state, or which nodes the engine
   wakes each round, must never show here. *)

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

let strict_params = { Params.default with Params.adaptive = false }

let render_assignment o =
  Printf.sprintf "%d|%s|%s|%s|%s" o.Bipartite_assignment.rounds
    (ints o.Bipartite_assignment.parents)
    (ints o.Bipartite_assignment.ranks)
    (ints o.Bipartite_assignment.parent_rank)
    (int_pairs o.Bipartite_assignment.epoch_history)

let golden_assignment ~params ~seed (reds, blues, g) =
  let blue_ranks = Array.init (reds + blues) (fun v -> 1 + (v mod 3)) in
  let o =
    Bipartite_assignment.run_standalone ~rng:(rng seed) ~params
      ~graph:g
      ~reds:(Array.init reds Fun.id)
      ~blues:(Array.init blues (fun i -> reds + i))
      ~blue_ranks ()
  in
  render_assignment o

(* Identify's oracle exit waits for the first phase boundary: its goal
   ("every eligible red next to an unassigned primary is active") holds
   vacuously when no primary has an unranked red neighbour.  Red 0 serves
   blue 1 (rank 2) and blue 2 (rank 1); at n = 3 the ladder is 2 rounds,
   and [c_whp = 1] gives Stage III of rank 2 a budget of two phases.  On
   these seeds blue 2 never hears red 0's announcement there, so at rank 1
   Identify opens with its goal already true; it must still run one phase
   (2 rounds) before the epoch starts and the end-of-epoch net attaches
   blue 2 to red 0. *)
let golden_vacuous_identify ~seed g =
  let o =
    Bipartite_assignment.run_standalone ~rng:(rng seed)
      ~params:{ Params.default with Params.c_whp = 1 }
      ~graph:g ~reds:[| 0 |] ~blues:[| 1; 2 |] ~blue_ranks:[| 0; 2; 1 |] ()
  in
  render_assignment o

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

let golden_gst_strict mode ~seed g =
  let r =
    Gst_distributed.construct ~mode ~learn_vd:true ~params:strict_params
      ~rng:(rng seed) ~graph:g ~roots:[| 0 |] ()
  in
  Printf.sprintf "%d|%d|%d|%s|%s|%s" r.Gst_distributed.total_rounds
    r.Gst_distributed.assignment_rounds r.Gst_distributed.vd_rounds
    (ints r.Gst_distributed.gst.Gst.parents)
    (ints r.Gst_distributed.gst.Gst.ranks)
    (ints r.Gst_distributed.vd)

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
    ( "assignment",
      golden_runs "assignment" bip_graphs
        (golden_assignment ~params:Params.default) );
    ( "assignment strict",
      golden_runs "assignment-strict" bip_graphs
        (golden_assignment ~params:strict_params) );
    ( "assignment vacuous identify",
      List.map
        (fun seed ->
          ( Printf.sprintf "assignment-vacuous-identify seed=%d" seed,
            fun () ->
              golden_vacuous_identify ~seed
                (Graph.create ~n:3 ~edges:[ (0, 1); (0, 2) ]) ))
        [ 10; 16; 20 ] );
    ( "sequential gst",
      golden_runs "sequential-gst" golden_graphs golden_sequential_gst );
    ("gst", golden_runs "gst" golden_graphs (golden_entry "gst"));
    ("known", golden_runs "known" golden_graphs (golden_entry "known"));
    ("gst-dist", golden_runs "gst-dist" golden_graphs (golden_entry "gst-dist"));
    ( "gst-dist strict",
      golden_runs "gst-dist-strict sequential" golden_graphs
        (golden_gst_strict Gst_distributed.Sequential)
      @ golden_runs "gst-dist-strict pipelined" golden_graphs
          (golden_gst_strict Gst_distributed.Pipelined) );
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
    ("assignment-strict bip6x14 seed=1", "5f3f03d37789015c62d82a324041072f");
    ("assignment-strict bip6x14 seed=2", "73c75f1fab98ad898d96825ce90bae47");
    ("assignment-strict bip6x14 seed=3", "138c6b624cfac9d41bc64dd1d16673b6");
    ("assignment-strict bip10x30 seed=1", "ce1624528a6c2c280c28750e67189e18");
    ("assignment-strict bip10x30 seed=2", "4d64742576927ea767267829217aa86f");
    ("assignment-strict bip10x30 seed=3", "439001f03dde5f8d9db99f9dbc94638b");
    ("assignment-strict bip16x40 seed=1", "0183000366ebc3db58f1fbbf609526f5");
    ("assignment-strict bip16x40 seed=2", "7af28905017f328283b38f35c9701b31");
    ("assignment-strict bip16x40 seed=3", "9a42b5dc6367a6f771d655ff0b088184");
    ("assignment-vacuous-identify seed=10", "54400bea93a8cfb2b42852fb7f7f8a48");
    ("assignment-vacuous-identify seed=16", "e87f5f44e07e123821059a8f9b819afa");
    ("assignment-vacuous-identify seed=20", "ee12595d32d674b24ebe6bf63d3687ff");
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
    ("gst-dist-strict sequential layered seed=1", "5060911bd39eea20a91d5ab685fc3c83");
    ("gst-dist-strict sequential layered seed=2", "6832a70e4d1f2674091b912e45760acb");
    ("gst-dist-strict sequential layered seed=3", "19c1970fb34f952b5104c990b91705b7");
    ("gst-dist-strict sequential random seed=1", "5e3f6b51081f263769c64818215baebf");
    ("gst-dist-strict sequential random seed=2", "75b59e457f78028a3a00ecdb005a91ee");
    ("gst-dist-strict sequential random seed=3", "88342b87ce282278ba863f0105f2dd34");
    ("gst-dist-strict sequential grid seed=1", "2d77448c3e4888ae795099b3c596cb35");
    ("gst-dist-strict sequential grid seed=2", "b322e1894ac226aa8b354969fb6d99ad");
    ("gst-dist-strict sequential grid seed=3", "efc3ba5e7ec433b059599012dd8a3e6e");
    ("gst-dist-strict pipelined layered seed=1", "9b55a1112079775bebc0ae7633e25aef");
    ("gst-dist-strict pipelined layered seed=2", "37ad95e78194f0bc97975cb8a0cd9c8a");
    ("gst-dist-strict pipelined layered seed=3", "4ecfcd75634196c23d4cb00e99a9d9aa");
    ("gst-dist-strict pipelined random seed=1", "fdbf88e2bf360629fdf85a3a3c028493");
    ("gst-dist-strict pipelined random seed=2", "417967c5ad1d10bdcfa1ed83403cd8ef");
    ("gst-dist-strict pipelined random seed=3", "df00bd7e88efb040a81a0683681678d7");
    ("gst-dist-strict pipelined grid seed=1", "838bebbffce9ff7a8d2315826004aacb");
    ("gst-dist-strict pipelined grid seed=2", "975e4aedac7535c3f7dd6ad3e4463fb6");
    ("gst-dist-strict pipelined grid seed=3", "2640123d6ca2b9d7871e5ecb61e3bd47");
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
  QCheck.triple (Qarb.int_range 2 50) (Qarb.int_range 0 60)
    (Qarb.int_range 0 10_000)
  |> QCheck.set_print (fun (n, extra, seed) ->
         Printf.sprintf "(n=%d,extra=%d,seed=%d)" n extra seed)

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
        if completed b.Gst_broadcast.outcome && b.Gst_broadcast.payloads_ok then
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
      quad (Qarb.int_range 1 12) (Qarb.int_range 1 4)
        (Qarb.int_range 0 1000) bool)
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

(* The batch-major Theorem 1.3 reference: every ring's forest is built
   first, then each batch crosses every ring before the next batch starts.
   [Multi_broadcast.unknown] walks ring-major instead, holding one ring at
   a time; it splits the stage streams in this loop's order, so the two
   must agree whenever this one delivers. *)
let batch_major_unknown ~rings ~params ~batch_size ~seed ~graph ~k =
  let rng = Rng.create ~seed and source = 0 in
  let n = Graph.n graph in
  let { Single_broadcast.rings = rings_t; rounds_layering; build } =
    Single_broadcast.front ~rings ~params ~rng ~graph ~source ()
  in
  let levels = rings_t.Rings.levels and rcount = rings_t.Rings.count in
  let ring_gsts = Array.init rcount build in
  let rounds_construction =
    Rings.charged_parallel_rounds
      (Array.to_list
         (Array.map (fun r -> r.Gst_distributed.total_rounds) ring_gsts))
  in
  let msgs = Multi_broadcast.random_messages rng ~k ~msg_len:32 in
  let bcount = Ilog.cdiv k batch_size in
  let batch b =
    Array.sub msgs (b * batch_size) (min batch_size (k - (b * batch_size)))
  in
  let delivered = ref true in
  let payloads_ok = ref true in
  let max_stage = ref 0 in
  let got = Array.make_matrix bcount n false in
  for b = 0 to bcount - 1 do
    let bmsgs = batch b in
    got.(b).(source) <- true;
    for j = 0 to rcount - 1 do
      if !delivered then begin
        let roots = Rings.roots rings_t j in
        if not (Array.for_all (fun v -> got.(b).(v)) roots) then
          delivered := false
        else begin
          let stage_rounds = ref 0 in
          let g = ring_gsts.(j) in
          let r =
            Gst_broadcast.run ~params ~rng:(Rng.split rng)
              ~gst:g.Gst_distributed.gst ~vd:g.Gst_distributed.vd ~msgs:bmsgs
              ~sources:roots ()
          in
          stage_rounds := r.Gst_broadcast.rounds;
          if not r.Gst_broadcast.payloads_ok then payloads_ok := false;
          (match r.Gst_broadcast.outcome with
          | Engine.Completed _ ->
              Array.iteri
                (fun v dr -> if dr >= 0 then got.(b).(v) <- true)
                r.Gst_broadcast.decode_round
          | Engine.Out_of_budget _ -> delivered := false);
          if !delivered && j + 1 < rcount then begin
            let holders = Rings.outer_boundary rings_t j in
            let receivers = Rings.roots rings_t (j + 1) in
            let h, decoded_ok =
              Rings.handoff_fec ~params ~rng:(Rng.split rng) ~graph ~holders
                ~receivers ~msgs:bmsgs ()
            in
            stage_rounds := !stage_rounds + h.Rings.rounds;
            if h.Rings.delivered then begin
              Array.iter (fun v -> got.(b).(v) <- true) receivers;
              if not decoded_ok then payloads_ok := false
            end
            else delivered := false
          end;
          max_stage := max !max_stage !stage_rounds
        end
      end
    done
  done;
  let all_got =
    !delivered
    && Array.for_all
         (fun per_batch ->
           let ok = ref true in
           Array.iteri
             (fun v got_v -> if levels.(v) >= 0 && not got_v then ok := false)
             per_batch;
           !ok)
         got
  in
  let epochs = rcount + bcount - 1 in
  let rounds_dissemination = epochs * 2 * !max_stage in
  {
    Multi_broadcast.rounds_total =
      rounds_layering + rounds_construction + rounds_dissemination;
    rounds_layering;
    rounds_construction;
    rounds_dissemination;
    ring_count = rcount;
    batch_count = bcount;
    epochs;
    delivered = all_got;
    payloads_ok = !payloads_ok;
  }

(* Random layered graphs, several batches, every ring choice.  With the
   default budgets the two walks must give the same record whenever the
   reference delivers (they may run different stages after a failure);
   with [max_round_factor = 0] the first stage fails in both, so the
   records must match outright. *)
let ring_major_matches_batch_major =
  QCheck.Test.make ~name:"Theorem 1.3 ring-major = batch-major reference"
    ~count:12
    QCheck.(
      pair
        (quad (Qarb.int_range 1 12) (Qarb.int_range 1 4)
           (Qarb.int_range 0 1000) bool)
        (pair (Qarb.int_range 1 12) (Qarb.int_range 1 4)))
    (fun ((depth, width, seed, tight), (k, batch_size)) ->
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
            Multi_broadcast.unknown ~params ~rings ~batch_size
              ~rng:(rng (seed + 1)) ~graph ~source:0 ~k ()
          in
          let e =
            batch_major_unknown ~rings ~params ~batch_size ~seed:(seed + 1)
              ~graph ~k
          in
          let same =
            if tight || e.Multi_broadcast.delivered then r = e
            else not r.Multi_broadcast.delivered
          in
          if not same then
            QCheck.Test.fail_reportf
              "depth %d width %d seed %d tight %b k %d batch %d: rounds %d \
               (stage-bound %d) vs reference %d (%d), delivered %b vs %b"
              depth width seed tight k batch_size
              r.Multi_broadcast.rounds_total
              r.Multi_broadcast.rounds_dissemination
              e.Multi_broadcast.rounds_total
              e.Multi_broadcast.rounds_dissemination
              r.Multi_broadcast.delivered e.Multi_broadcast.delivered;
          r.Multi_broadcast.delivered = not tight)
        Single_broadcast.[ Auto; Ring_width 1; Ring_width (depth + 1) ])

(* Random layered graphs in both modes, with and without adaptive
   termination, on both round paths: the cached pair state, the per-slot
   tick sets and the silent-slot skips must leave every assignment byte
   as the reference computes it.  Without adaptive termination every
   stage runs its whole budget (millions of rounds at width 6), so the
   full-scan path takes that case only up to 40 nodes. *)
let assignment_matches_reference =
  QCheck.Test.make ~name:"GST assignment = per-level reference" ~count:8
    QCheck.(
      triple (Qarb.int_range 1 40) (Qarb.int_range 1 6) (Qarb.int_range 0 1000))
    (fun (depth, width, seed) ->
      let graph = Topo.layered_random ~rng:(rng seed) ~depth ~width ~p:0.3 in
      let levels = Bfs.levels graph ~src:0 in
      let level_nodes = Bfs.by_level levels in
      List.for_all
        (fun (mode, adaptive, engine) ->
          let params = { Params.default with Params.adaptive } in
          let detection = Engine.No_collision_detection in
          let r, (parents, ranks, parent_rank, rounds, fixups, fallbacks) =
            Drive.with_engine engine (fun () ->
                ( Gst_distributed.construct ~mode
                    ~layering:(Gst_distributed.Given_layering levels) ~params
                    ~detection ~rng:(rng (seed + 1)) ~graph ~roots:[| 0 |] (),
                  Reference.run_assignment ~mode ~params ~detection
                    ~rng:(rng (seed + 1)) ~graph ~levels ~level_nodes () ))
          in
          let gst = r.Gst_distributed.gst in
          let same =
            gst.Gst.parents = parents && gst.Gst.ranks = ranks
            && r.Gst_distributed.parent_rank = parent_rank
            && r.Gst_distributed.assignment_rounds = rounds
            && r.Gst_distributed.class_fixups = fixups
            && r.Gst_distributed.fallback_reactivations = fallbacks
          in
          if not same then
            QCheck.Test.fail_reportf
              "depth %d width %d seed %d %s adaptive %b %s: %d rounds vs \
               reference %d"
              depth width seed
              (match mode with
              | Gst_distributed.Sequential -> "sequential"
              | Gst_distributed.Pipelined -> "pipelined")
              adaptive
              (match engine with Engine.Dense -> "dense" | _ -> "sparse")
              r.Gst_distributed.assignment_rounds rounds;
          same)
        (List.concat_map
           (fun mode ->
             List.concat_map
               (fun adaptive ->
                 List.filter_map
                   (fun engine ->
                     if adaptive || engine = Engine.Sparse || Graph.n graph <= 40
                     then Some (mode, adaptive, engine)
                     else None)
                   [ Engine.Sparse; Engine.Dense ])
               [ true; false ])
           Gst_distributed.[ Sequential; Pipelined ]))

let qcheck_tests =
  let open QCheck in
  [
    ring_by_ring_matches_eager;
    ring_major_matches_batch_major;
    layering_matches_reference;
    assignment_matches_reference;
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
      (pair arb_graph (Qarb.int_range 1 6))
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
          Alcotest.test_case "exponent ladder" `Quick test_decay_exponent_ladder;
          Alcotest.test_case "broadcast delivers" `Quick test_decay_broadcast_delivers;
          Alcotest.test_case "single node" `Quick test_decay_single_node;
          Alcotest.test_case "causality" `Quick test_decay_respects_distance;
          Alcotest.test_case "MMV noising" `Quick test_decay_mmv_noising_delivers;
          Alcotest.test_case "MMV silent" `Quick test_decay_mmv_silent_delivers;
          Alcotest.test_case "CR ladder" `Quick test_cr_ladder_values;
        ] );
      ( "exact law",
        [
          Alcotest.test_case "chi-square tail" `Quick test_chi2_sf;
          Alcotest.test_case "ring handoff on a star" `Quick
            test_handoff_exact_law;
          Alcotest.test_case "CR cycle, one neighbour" `Quick
            test_cr_cycle_exact_law;
          Alcotest.test_case "MMV ladder on K_{1,d,1}" `Quick
            test_mmv_exact_law;
          Alcotest.test_case "MMV ladder on a path" `Quick test_mmv_path_exact;
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
