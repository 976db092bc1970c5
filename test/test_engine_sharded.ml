(* Equivalence of the d-lane fast engine ([Engine_sparse.run ~domains],
   reached as [Drive.run ~engine:(Sharded d)]) with the full-scan serial
   engine: same outcome, same per-node deliver log (order within each node
   included), same after_round sequence, same stats — for any graph,
   schedule and detection mode, for every lane count, and through
   [Drive.run], which drops an active set under [Sharded].  Like the
   one-lane path, every lane elides the [Silence] delivery of a listener
   with no transmitting neighbour (the R11 silence-purity contract), so
   logs are compared with [Silence] filtered from both sides, exactly as
   in test_engine_sparse; the collision counts in stats pin the
   collided-Silence deliveries both engines perform.  The deliver log is
   an array indexed by node (each lane appends only to its own nodes'
   cells), so the observation itself respects the engine's per-node-state
   contract and works unchanged under parallel delivery. *)

open Rn_util
open Rn_graph
module Topo = Rn_graph.Gen
open Rn_radio

(* Equivalence must hold under true multi-domain execution; on small
   machines the pool's hardware cap would otherwise degrade every sharded
   run to the calling domain. *)
let () =
  Atomic.set Runner.Pool.size_cap (max 8 (Atomic.get Runner.Pool.size_cap))

(* A random but deterministic schedule, same construction as the serial
   equivalence suite: action of (round, node) precomputed from the seed,
   messages tagged so cross-wiring is visible. *)
let make_script ~rng ~n ~rounds =
  Array.init rounds (fun r ->
      Array.init n (fun v ->
          match Rng.int rng 4 with
          | 0 -> Engine.Sleep
          | 1 | 2 -> Engine.Listen
          | _ -> Engine.Transmit ((r * 10_000) + v)))

type 'msg observation = {
  obs_outcome : Engine.outcome;
  obs_logs : (int * 'msg Engine.reception) list array;  (* per node *)
  obs_after : int list;
  obs_stats : Engine.stats;
}

let observing ~n ~script k =
  let logs = Array.make (max n 1) [] in
  let after = ref [] in
  let stats = Engine.fresh_stats () in
  let decide ~round ~node =
    if round < Array.length script then script.(round).(node) else Engine.Listen
  in
  let deliver ~round ~node reception =
    logs.(node) <- (round, reception) :: logs.(node)
  in
  let outcome =
    k ~stats
      ~after_round:(fun ~round -> after := round :: !after)
      ~protocol:{ Engine.decide; deliver }
  in
  {
    obs_outcome = outcome;
    obs_logs = logs;
    obs_after = !after;
    obs_stats = stats;
  }

let observe_serial ~graph ~detection ~script ~max_rounds () =
  observing ~n:(Graph.n graph) ~script (fun ~stats ~after_round ~protocol ->
      Engine.run ~stats ~after_round ~graph ~detection ~protocol
        ~stop:(fun ~round:_ -> false)
        ~max_rounds ())

(* Through [Drive.run], so a test may hand the sharded mode an active set
   and check that dropping it changes nothing. *)
let observe_sharded ?decide_active ~domains ~graph ~detection ~script
    ~max_rounds () =
  observing ~n:(Graph.n graph) ~script (fun ~stats ~after_round ~protocol ->
      Drive.run ~engine:(Engine.Sharded domains) ~stats ~after_round
        ?decide_active ~graph ~detection ~protocol
        ~stop:(fun ~round:_ -> false)
        ~max_rounds ())

let drop_silence logs =
  Array.map (List.filter (fun (_, r) -> r <> Engine.Silence)) logs

let same_observation a b =
  a.obs_outcome = b.obs_outcome
  && drop_silence a.obs_logs = drop_silence b.obs_logs
  && a.obs_after = b.obs_after && a.obs_stats = b.obs_stats

let arb_case =
  QCheck.make
    ~print:(fun (n, extra, rounds, seed, cd) ->
      Printf.sprintf "(n=%d,extra=%d,rounds=%d,seed=%d,cd=%b)" n extra rounds
        seed cd)
    QCheck.Gen.(
      tup5 (int_range 2 40) (int_range 0 30) (int_range 1 12)
        (int_range 0 100_000) bool)

let detection_of cd =
  if cd then Engine.Collision_detection else Engine.No_collision_detection

let setup (n, extra, rounds, seed, cd) =
  let rng = Rng.create ~seed in
  let g = Topo.random_connected ~rng ~n ~extra in
  let script = make_script ~rng ~n ~rounds in
  (g, script, detection_of cd, rounds)

(* Active set = exactly the non-Sleep nodes of the script, ascending, so
   [Drive.run] dropping it under [Sharded] must be invisible. *)
let awake_set script n ~round (buf : int array) =
  let k = ref 0 in
  if round < Array.length script then
    for v = 0 to n - 1 do
      match script.(round).(v) with
      | Engine.Sleep -> ()
      | Engine.Listen | Engine.Transmit _ ->
          buf.(!k) <- v;
          incr k
    done
  else
    for v = 0 to n - 1 do
      buf.(v) <- v;
      incr k
    done;
  !k

let domain_counts = [ 1; 2; 4 ]

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"sharded ≡ serial (full scan), domains 1/2/4" ~count:200
      arb_case
      (fun case ->
        let g, script, detection, rounds = setup case in
        let a = observe_serial ~graph:g ~detection ~script ~max_rounds:rounds () in
        List.for_all
          (fun domains ->
            same_observation a
              (observe_sharded ~domains ~graph:g ~detection ~script
                 ~max_rounds:rounds ()))
          domain_counts);
    Test.make ~name:"sharded ≡ serial (decide_active), domains 1/2/4"
      ~count:150 arb_case
      (fun case ->
        let g, script, detection, rounds = setup case in
        let n = Graph.n g in
        let da = awake_set script n in
        let a = observe_serial ~graph:g ~detection ~script ~max_rounds:rounds () in
        List.for_all
          (fun domains ->
            same_observation a
              (observe_sharded ~decide_active:da ~domains ~graph:g ~detection
                 ~script ~max_rounds:rounds ()))
          domain_counts);
    (* Degenerate sharding as a property: more shards than nodes — most
       lanes own nothing. *)
    Test.make ~name:"sharded ≡ serial with domains > n" ~count:80
      (pair arb_case (int_range 1 12))
      (fun (case, extra_domains) ->
        let g, script, detection, rounds = setup case in
        let domains = Graph.n g + extra_domains in
        let a = observe_serial ~graph:g ~detection ~script ~max_rounds:rounds () in
        let b =
          observe_sharded ~domains ~graph:g ~detection ~script
            ~max_rounds:rounds ()
        in
        same_observation a b);
  ]

(* ------------------------------------------------------------------ *)
(* The spray kernel on dense graphs *)

(* Dense G(n, p) graphs, p >= 0.5, so nearly every transmitter's sorted
   neighbour slice crosses every lane cut, and each round draws its
   transmit probability from {0.9, 0.5, 0.05}: heavy rounds saturate most
   listeners, light ones leave many with exactly one transmitting
   neighbour while sleepers and transmitters (deaf) are still sprayed by
   many.  A lane that sprayed past its [hi] cut, or a delivery that read
   the last sprayer's id under a count other than 1, would show in the
   per-node logs, the stats or the metrics export against [Dense]. *)
let dense_script ~rng ~n ~rounds =
  let probs = [| 0.9; 0.5; 0.05 |] in
  Array.init rounds (fun r ->
      let q = probs.(Rng.int rng (Array.length probs)) in
      Array.init n (fun v ->
          if Rng.bernoulli rng q then Engine.Transmit ((r * 10_000) + v)
          else if Rng.int rng 4 = 0 then Engine.Sleep
          else Engine.Listen))

let export_fingerprint m =
  String.concat "\n"
    (Rn_obs.Export.round_jsonl m
    @ Rn_obs.Export.phases_jsonl m
    @ [ Rn_obs.Export.summary_json m ])

let observe_kernel ~engine ~graph ~detection ~script =
  let rounds = Array.length script in
  let metrics = Rn_obs.Metrics.create ~ring:(rounds + 1) () in
  let obs =
    observing ~n:(Graph.n graph) ~script (fun ~stats ~after_round ~protocol ->
        Drive.run ~engine ~stats ~metrics ~after_round ~graph ~detection
          ~protocol
          ~stop:(fun ~round:_ -> false)
          ~max_rounds:rounds ())
  in
  (obs, export_fingerprint metrics)

let arb_dense =
  QCheck.make
    ~print:(fun (n, pct, rounds, seed, cd) ->
      Printf.sprintf "(n=%d,p=0.%02d,rounds=%d,seed=%d,cd=%b)" n pct rounds
        seed cd)
    QCheck.Gen.(
      tup5 (int_range 8 64) (int_range 50 95) (int_range 1 10)
        (int_range 0 100_000) bool)

let kernel_test =
  QCheck.Test.make ~name:"dense spray: sparse and sharded 2/3/4 ≡ dense"
    ~count:120 arb_dense (fun (n, pct, rounds, seed, cd) ->
      let rng = Rng.create ~seed in
      let graph = Topo.gnp ~rng ~n ~p:(float_of_int pct /. 100.) in
      let script = dense_script ~rng ~n ~rounds in
      let detection = detection_of cd in
      let a, ea = observe_kernel ~engine:Engine.Dense ~graph ~detection ~script in
      List.for_all
        (fun engine ->
          let b, eb = observe_kernel ~engine ~graph ~detection ~script in
          same_observation a b && String.equal ea eb)
        [ Engine.Sparse; Engine.Sharded 2; Engine.Sharded 3; Engine.Sharded 4 ])

(* ------------------------------------------------------------------ *)
(* Degenerate shards, unit-style *)

let listen_all_script rounds n =
  Array.init rounds (fun _ -> Array.make n Engine.Listen)

let check_matches_serial ~graph ~detection ~script ~max_rounds domains_list =
  let a = observe_serial ~graph ~detection ~script ~max_rounds () in
  List.iter
    (fun domains ->
      let b =
        observe_sharded ~domains ~graph ~detection ~script ~max_rounds ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d matches serial" domains)
        true (same_observation a b))
    domains_list

let test_single_node () =
  (* n = 1: no edges, every shard after the first is empty. *)
  let g = Topo.path 1 in
  let script =
    [| [| Engine.Transmit 3 |]; [| Engine.Listen |]; [| Engine.Sleep |] |]
  in
  check_matches_serial ~graph:g ~detection:Engine.Collision_detection ~script
    ~max_rounds:3 [ 1; 2; 3; 8 ]

let test_n_less_than_domains () =
  let rng = Rng.create ~seed:7 in
  let g = Topo.path 2 in
  let script = make_script ~rng ~n:2 ~rounds:6 in
  check_matches_serial ~graph:g ~detection:Engine.No_collision_detection
    ~script ~max_rounds:6 [ 4; 7 ]

let test_empty_shards_star () =
  (* A star's edge mass sits on the hub, so the balanced cuts collapse and
     several interior shards own zero nodes; results must not care. *)
  let n = 100 in
  let g = Topo.star n in
  let rng = Rng.create ~seed:11 in
  let script = make_script ~rng ~n ~rounds:8 in
  check_matches_serial ~graph:g ~detection:Engine.Collision_detection ~script
    ~max_rounds:8 [ 2; 8; 64 ];
  (* and the degenerate awake set: everyone asleep every other round,
     written into the script itself since the d-lane engine always scans
     every node *)
  let script =
    Array.mapi
      (fun round acts ->
        if round mod 2 = 0 then Array.map (fun _ -> Engine.Sleep) acts
        else acts)
      script
  in
  check_matches_serial ~graph:g ~detection:Engine.Collision_detection ~script
    ~max_rounds:8 [ 2; 8 ]

let test_domains_must_be_positive () =
  let g = Topo.path 3 in
  let p =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Engine_sparse.run: domains must be >= 1") (fun () ->
      ignore
        (Engine_sparse.run ~domains:0 ~graph:g
           ~detection:Engine.Collision_detection ~protocol:p
           ~stop:(fun ~round:_ -> false)
           ~max_rounds:1 ()))

(* The active set is a one-lane fast path: lanes own node ranges, and an
   arbitrary id set would cross them. *)
let test_active_set_needs_one_lane () =
  let g = Topo.path 3 in
  let p =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  Alcotest.check_raises "domains = 2 with decide_active rejected"
    (Invalid_argument "Engine_sparse.run: decide_active needs domains = 1")
    (fun () ->
      ignore
        (Engine_sparse.run ~domains:2
           ~decide_active:(fun ~round:_ buf ->
             buf.(0) <- 0;
             1)
           ~graph:g ~detection:Engine.Collision_detection ~protocol:p
           ~stop:(fun ~round:_ -> false)
           ~max_rounds:1 ()))

(* A protocol exception raised inside a lane must shut the pool down
   cleanly and resurface in the caller — deterministically, regardless of
   which lanes also failed. *)
exception Boom of int

let test_lane_exception_propagates () =
  let g = Topo.path 40 in
  let p =
    {
      Engine.decide =
        (fun ~round ~node ->
          if round = 2 && node >= 20 then raise (Boom node) else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  List.iter
    (fun domains ->
      match
        Engine_sparse.run ~domains ~graph:g
          ~detection:Engine.Collision_detection ~protocol:p
          ~stop:(fun ~round:_ -> false)
          ~max_rounds:10 ()
      with
      | _ -> Alcotest.failf "domains=%d: expected Boom" domains
      | exception Boom _ -> ())
    [ 1; 2; 4 ];
  (* The pool must still be usable after the failed run. *)
  let g2 = Topo.path 8 in
  let script = listen_all_script 3 8 in
  check_matches_serial ~graph:g2 ~detection:Engine.Collision_detection
    ~script ~max_rounds:3 [ 4 ]

(* Decay end-to-end: the protocol the d-lane engine was built for, with
   its atomic completion count, across detection modes and shard counts. *)
let test_decay_integration () =
  let open Rn_broadcast in
  List.iter
    (fun seed ->
      let mk () = Rng.create ~seed in
      let graph =
        Topo.layered_random ~rng:(mk ()) ~depth:6 ~width:12 ~p:0.4
      in
      let run engine = Decay.broadcast ~engine ~rng:(mk ()) ~graph ~source:0 () in
      let base = run Engine.Sparse in
      List.iter
        (fun d ->
          let r = run (Engine.Sharded d) in
          Alcotest.(check bool)
            (Printf.sprintf "seed=%d domains=%d ≡ serial" seed d)
            true
            (base.Decay.outcome = r.Decay.outcome
            && base.Decay.received_round = r.Decay.received_round
            && base.Decay.stats = r.Decay.stats))
        [ 1; 2; 3; 4 ])
    [ 1; 2; 3 ]

let () =
  Alcotest.run "engine_sharded"
    [
      ( "degenerate",
        [
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "n < domains" `Quick test_n_less_than_domains;
          Alcotest.test_case "empty shards (star)" `Quick
            test_empty_shards_star;
          Alcotest.test_case "domains >= 1 enforced" `Quick
            test_domains_must_be_positive;
          Alcotest.test_case "decide_active needs one lane" `Quick
            test_active_set_needs_one_lane;
          Alcotest.test_case "lane exception propagates" `Quick
            test_lane_exception_propagates;
        ] );
      ( "decay",
        [ Alcotest.test_case "serial ≡ sharded" `Quick test_decay_integration ]
      );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ("kernel", [ QCheck_alcotest.to_alcotest kernel_test ]);
    ]
