(* Equivalence of the sparse event-driven engine with the serial reference:
   same outcome, same stats, same per-node receive log (modulo the silence
   no-op contract: the sparse path elides zero-transmitter Silence
   deliveries, so logs are compared with Silence entries filtered from both
   sides — collision counts in stats pin the collided-Silence deliveries
   that both engines perform), same after_round sequence, and a
   byte-identical metrics export (per-round ring rows included).  The
   reference is the full-scan Engine.run, which takes no fast path: the
   active set is exercised on the sparse side only.  The fast-forward of
   rounds whose awake set is empty is exercised with an awake set that
   leaves out every node of a script round nobody transmits in, and its
   contract edges (no decide in an empty round, stop inside an empty
   stretch, after_round every round, the simulated/skipped partition) are
   pinned as unit tests. *)

open Rn_util
open Rn_graph
module Topo = Rn_graph.Gen
open Rn_radio

let make_script ~rng ~n ~rounds =
  Array.init rounds (fun r ->
      Array.init n (fun v ->
          match Rng.int rng 4 with
          | 0 -> Engine.Sleep
          | 1 | 2 -> Engine.Listen
          | _ -> Engine.Transmit ((r * 10_000) + v)))

(* Sparse scripts leave most rounds with zero transmitters, so an awake
   set that leaves them empty has real stretches to fast-forward. *)
let make_sparse_script ~rng ~n ~rounds =
  Array.init rounds (fun r ->
      if Rng.int rng 4 <> 0 then
        (* silent round: listeners and sleepers only *)
        Array.init n (fun _ ->
            if Rng.int rng 2 = 0 then Engine.Sleep else Engine.Listen)
      else
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
  obs_export : string;  (* full metrics export, ring rows included *)
}

let export_fingerprint m =
  String.concat "\n"
    (Rn_obs.Export.round_jsonl m
    @ Rn_obs.Export.phases_jsonl m
    @ [ Rn_obs.Export.summary_json m ])

(* [flags], when given, is a per-round passive-flag script: the sparse
   run gets [~passive] holding round 0's flags, and [after_round] installs
   the next round's. *)
let observe ?decide_active ?flags ?hook ~engine ~graph ~detection ~script
    ~max_rounds () =
  let n = Graph.n graph in
  let logs = Array.make (max n 1) [] in
  let after = ref [] in
  let passive = Option.map (fun f -> Array.copy f.(0)) flags in
  let stats = Engine.fresh_stats () in
  let metrics = Rn_obs.Metrics.create ~ring:(max_rounds + 1) () in
  let decide ~round ~node =
    if round < Array.length script then script.(round).(node) else Engine.Listen
  in
  let deliver ~round ~node reception =
    logs.(node) <- (round, reception) :: logs.(node)
  in
  let protocol = { Engine.decide; deliver } in
  let after_round ~round =
    after := round :: !after;
    Option.iter (fun f -> f ~round) hook;
    match (flags, passive) with
    | Some f, Some p when round + 1 < Array.length f ->
        Array.blit f.(round + 1) 0 p 0 n
    | _ -> ()
  in
  let stop ~round:_ = false in
  let outcome =
    match engine with
    | `Dense ->
        Engine.run ~stats ~metrics ~after_round ~graph ~detection ~protocol
          ~stop ~max_rounds ()
    | `Sparse ->
        Engine_sparse.run ~stats ~metrics ~after_round ?decide_active ?passive
          ~validate:true ~graph ~detection ~protocol ~stop ~max_rounds ()
  in
  {
    obs_outcome = outcome;
    obs_logs = logs;
    obs_after = !after;
    obs_stats = stats;
    obs_export = export_fingerprint metrics;
  }

let drop_silence logs =
  Array.map
    (List.filter (fun (_, r) -> r <> Engine.Silence))
    logs

(* Everything compared exactly except raw logs, which are compared modulo
   elided zero-transmitter Silence deliveries. *)
let same_observation_sparse a b =
  a.obs_outcome = b.obs_outcome
  && drop_silence a.obs_logs = drop_silence b.obs_logs
  && a.obs_after = b.obs_after && a.obs_stats = b.obs_stats
  && String.equal a.obs_export b.obs_export

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

let setup ?(sparse = false) (n, extra, rounds, seed, cd) =
  let rng = Rng.create ~seed in
  let g = Topo.random_connected ~rng ~n ~extra in
  let script =
    if sparse then make_sparse_script ~rng ~n ~rounds
    else make_script ~rng ~n ~rounds
  in
  (g, script, detection_of cd, rounds)

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

(* [awake_set], emptied in every script round without a transmitter: its
   listeners can hear only the elided [Silence], so leaving them out
   changes no log, stat or metrics row, and the engine fast-forwards the
   round. *)
let skip_awake_set script n ~round buf =
  if
    round < Array.length script
    && not
         (Array.exists
            (function Engine.Transmit _ -> true | _ -> false)
            script.(round))
  then 0
  else awake_set script n ~round buf

(* A passive-listener schedule.  Each round flags a random subset of the
   nodes passive.  A flagged node transmits now and then and otherwise
   listens; it is in the round's active set when it transmits and, a
   third of the time, when it listens (a passive node in the set must
   not sleep).  An unflagged node sleeps, listens or transmits, and is in
   the set when awake and, a third of the time, when asleep. *)
let make_passive_case ~rng ~n ~rounds =
  let flags =
    Array.init rounds (fun _ -> Array.init n (fun _ -> Rng.bool rng))
  in
  let script =
    Array.init rounds (fun r ->
        Array.init n (fun v ->
            if flags.(r).(v) then
              if Rng.int rng 4 = 0 then Engine.Transmit ((r * 10_000) + v)
              else Engine.Listen
            else
              match Rng.int rng 4 with
              | 0 -> Engine.Sleep
              | 1 | 2 -> Engine.Listen
              | _ -> Engine.Transmit ((r * 10_000) + v)))
  in
  let member =
    Array.init rounds (fun r ->
        Array.init n (fun v ->
            match script.(r).(v) with
            | Engine.Transmit _ -> true
            | Engine.Listen -> (not flags.(r).(v)) || Rng.int rng 3 = 0
            | Engine.Sleep -> Rng.int rng 3 = 0))
  in
  let decide_active ~round (buf : int array) =
    let k = ref 0 in
    Array.iteri
      (fun v m ->
        if m then begin
          buf.(!k) <- v;
          incr k
        end)
      member.(round);
    !k
  in
  (flags, script, decide_active)

(* The whole round's deliver sequence, across all nodes, in call order
   with [Silence] dropped.  The sparse run gets the full scan or an
   ascending active set, the decide orders under which its descending
   delivery is the dense engine's. *)
let deliver_sequence ?decide_active ~engine ~graph ~detection ~script
    ~max_rounds () =
  let seq = ref [] in
  let protocol =
    {
      Engine.decide =
        (fun ~round ~node ->
          if round < Array.length script then script.(round).(node)
          else Engine.Listen);
      deliver =
        (fun ~round ~node reception ->
          if reception <> Engine.Silence then
            seq := (round, node, reception) :: !seq);
    }
  in
  let stop ~round:_ = false in
  let (_ : Engine.outcome) =
    match engine with
    | `Dense -> Engine.run ~graph ~detection ~protocol ~stop ~max_rounds ()
    | `Sparse ->
        Engine_sparse.run ?decide_active ~graph ~detection ~protocol ~stop
          ~max_rounds ()
  in
  List.rev !seq

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"sparse deliver order ≡ dense (±ascending active set)"
      ~count:200
      (pair arb_case bool)
      (fun (case, use_da) ->
        let g, script, detection, rounds = setup case in
        let da =
          if use_da then Some (awake_set script (Graph.n g)) else None
        in
        deliver_sequence ~engine:`Dense ~graph:g ~detection ~script
          ~max_rounds:rounds ()
        = deliver_sequence ?decide_active:da ~engine:`Sparse ~graph:g
            ~detection ~script ~max_rounds:rounds ());
    Test.make ~name:"sparse ≡ dense (full scan)" ~count:300 arb_case
      (fun case ->
        let g, script, detection, rounds = setup case in
        let a =
          observe ~engine:`Dense ~graph:g ~detection ~script
            ~max_rounds:rounds ()
        in
        let b =
          observe ~engine:`Sparse ~graph:g ~detection ~script
            ~max_rounds:rounds ()
        in
        same_observation_sparse a b);
    Test.make ~name:"sparse ≡ dense (decide_active)" ~count:200 arb_case
      (fun case ->
        let g, script, detection, rounds = setup case in
        let da = awake_set script (Graph.n g) in
        let a =
          observe ~engine:`Dense ~graph:g ~detection ~script
            ~max_rounds:rounds ()
        in
        let b =
          observe ~decide_active:da ~engine:`Sparse ~graph:g
            ~detection ~script ~max_rounds:rounds ()
        in
        same_observation_sparse a b);
    Test.make ~name:"sparse+skip ≡ dense (sparse schedules, ±decide_active)"
      ~count:300
      (pair arb_case bool)
      (fun (case, use_da) ->
        let g, script, detection, rounds = setup ~sparse:true case in
        let da =
          if use_da then Some (skip_awake_set script (Graph.n g)) else None
        in
        let a =
          observe ~engine:`Dense ~graph:g ~detection ~script
            ~max_rounds:rounds ()
        in
        let b =
          observe ?decide_active:da ~engine:`Sparse ~graph:g ~detection
            ~script ~max_rounds:rounds ()
        in
        same_observation_sparse a b);
    (* Passive listeners: the engine wakes exactly the flagged nodes
       that a transmitting neighbour reaches, so per-node logs, stats and
       the metrics export equal the same run that decides every awake
       node, and the full scan. *)
    Test.make ~name:"sparse+passive ≡ sparse without ≡ dense" ~count:300
      arb_case
      (fun (n, extra, rounds, seed, cd) ->
        let rng = Rng.create ~seed in
        let g = Topo.random_connected ~rng ~n ~extra in
        let flags, script, da = make_passive_case ~rng ~n ~rounds in
        let detection = detection_of cd in
        let dense =
          observe ~engine:`Dense ~graph:g ~detection ~script
            ~max_rounds:rounds ()
        in
        let awake =
          observe ~decide_active:(awake_set script n) ~engine:`Sparse ~graph:g
            ~detection ~script ~max_rounds:rounds ()
        in
        let passive =
          observe ~decide_active:da ~flags ~engine:`Sparse ~graph:g ~detection
            ~script ~max_rounds:rounds ()
        in
        same_observation_sparse dense passive
        && same_observation_sparse awake passive);
  ]

(* ------------------------------------------------------------------ *)
(* The spray kernel *)

(* Dense G(n, p) graphs, p >= 0.5, where each round draws its transmit
   probability from {0.9, 0.5, 0.05}: heavy rounds saturate most
   listeners, light ones leave many with exactly one transmitting
   neighbour while sleepers and transmitters (deaf) are still sprayed by
   many.  A spray past a transmitter's neighbour slice, or a delivery that
   read the last sprayer's id under a count other than 1, would show in
   the per-node logs, the stats or the metrics export against [Dense]. *)
let dense_script ~rng ~n ~rounds =
  let probs = [| 0.9; 0.5; 0.05 |] in
  Array.init rounds (fun r ->
      let q = probs.(Rng.int rng (Array.length probs)) in
      Array.init n (fun v ->
          if Rng.bernoulli rng q then Engine.Transmit ((r * 10_000) + v)
          else if Rng.int rng 4 = 0 then Engine.Sleep
          else Engine.Listen))

let arb_dense =
  QCheck.make
    ~print:(fun (n, pct, rounds, seed, cd) ->
      Printf.sprintf "(n=%d,p=0.%02d,rounds=%d,seed=%d,cd=%b)" n pct rounds
        seed cd)
    QCheck.Gen.(
      tup5 (int_range 8 64) (int_range 50 95) (int_range 1 10)
        (int_range 0 100_000) bool)

let kernel_test =
  QCheck.Test.make ~name:"dense spray: sparse ≡ dense" ~count:120 arb_dense
    (fun (n, pct, rounds, seed, cd) ->
      let rng = Rng.create ~seed in
      let graph = Topo.gnp ~rng ~n ~p:(float_of_int pct /. 100.) in
      let script = dense_script ~rng ~n ~rounds in
      let detection = detection_of cd in
      same_observation_sparse
        (observe ~engine:`Dense ~graph ~detection ~script ~max_rounds:rounds ())
        (observe ~engine:`Sparse ~graph ~detection ~script ~max_rounds:rounds
           ()))

(* A star's edge mass sits on the hub: one transmitting hub sprays every
   leaf, and every transmitting leaf lands on the hub's one byte.  The
   second half leaves everyone asleep every other round, and the sparse
   run also takes the matching awake set, empty in those rounds. *)
let test_star_hub () =
  let n = 100 in
  let g = Topo.star n in
  let rng = Rng.create ~seed:11 in
  let script = make_script ~rng ~n ~rounds:8 in
  let check ?decide_active what script =
    let a =
      observe ~engine:`Dense ~graph:g ~detection:Engine.Collision_detection
        ~script ~max_rounds:8 ()
    in
    let b =
      observe ?decide_active ~engine:`Sparse ~graph:g
        ~detection:Engine.Collision_detection ~script ~max_rounds:8 ()
    in
    Alcotest.(check bool) what true (same_observation_sparse a b)
  in
  check "star ≡ dense" script;
  let script =
    Array.mapi
      (fun round acts ->
        if round mod 2 = 0 then Array.map (fun _ -> Engine.Sleep) acts
        else acts)
      script
  in
  check "star, idle rounds ≡ dense" script;
  check ~decide_active:(awake_set script n) "star, empty awake sets ≡ dense"
    script

(* A protocol exception leaves the run at once, under both engines, as the
   first raising node's. *)
exception Boom of int

let test_decide_exception_propagates () =
  let g = Topo.path 40 in
  let protocol =
    {
      Engine.decide =
        (fun ~round ~node ->
          if round = 2 && node >= 20 then raise (Boom node) else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  List.iter
    (fun engine ->
      match
        Drive.with_engine engine (fun () ->
            Drive.run ~graph:g ~detection:Engine.Collision_detection ~protocol
              ~stop:(fun ~round:_ -> false)
              ~max_rounds:10 ())
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom v -> Alcotest.(check int) "first raising node" 20 v)
    [ Engine.Dense; Engine.Sparse ]

(* ------------------------------------------------------------------ *)
(* Skip-contract unit tests: a round whose awake set is empty is
   fast-forwarded *)

let listen_protocol () =
  {
    Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
    deliver = (fun ~round:_ ~node:_ _ -> ());
  }

(* Every node when [busy ~round], nobody otherwise. *)
let all_or_none ~n busy ~round (buf : int array) =
  if busy ~round then begin
    for v = 0 to n - 1 do
      buf.(v) <- v
    done;
    n
  end
  else 0

(* decide must never run in a round whose awake set is empty, and
   after_round fires on every round, empty or not. *)
let test_skip_elides_decide () =
  let n = 5 in
  let g = Topo.path n in
  let calls = Array.make 16 0 in
  let p =
    {
      Engine.decide =
        (fun ~round ~node ->
          calls.(round) <- calls.(round) + 1;
          if round = 0 || round = 9 then
            if node = 2 then Engine.Transmit round else Engine.Listen
          else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let after = ref [] in
  let outcome =
    Engine_sparse.run
      ~decide_active:(all_or_none ~n (fun ~round -> round = 0 || round >= 9))
      ~after_round:(fun ~round -> after := round :: !after)
      ~graph:g ~detection:Engine.Collision_detection ~protocol:p
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:12 ()
  in
  Alcotest.(check bool) "out of budget" true (outcome = Engine.Out_of_budget 12);
  for r = 0 to 11 do
    let expected = if r >= 1 && r <= 8 then 0 else n in
    Alcotest.(check int) (Printf.sprintf "decide calls round %d" r) expected
      calls.(r)
  done;
  Alcotest.(check (list int)) "after_round every round"
    (List.init 12 (fun i -> 11 - i))
    !after

(* stop is checked before each round, including inside a stretch of
   empty awake sets. *)
let test_stop_mid_stretch () =
  let g = Topo.path 4 in
  let outcome =
    Engine_sparse.run
      ~decide_active:(fun ~round:_ _ -> 0)
      ~graph:g ~detection:Engine.Collision_detection
      ~protocol:(listen_protocol ())
      ~stop:(fun ~round -> round = 5)
      ~max_rounds:100 ()
  in
  Alcotest.(check bool) "completed at 5" true (outcome = Engine.Completed 5)

(* Rounds whose awake set is empty land in the skipped tally, the others
   in the simulated tally, and the two partition stats.rounds. *)
let test_honest_accounting () =
  let n = 6 in
  let g = Topo.path n in
  let p =
    {
      Engine.decide =
        (fun ~round ~node ->
          if round mod 10 = 0 && node = 0 then Engine.Transmit round
          else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let empty = ref 0 in
  let busy ~round =
    let b = round mod 10 = 0 in
    if not b then incr empty;
    b
  in
  let stats = Engine.fresh_stats () in
  let sim0 = Engine.total_simulated_rounds () in
  let skip0 = Engine.total_skipped_rounds () in
  let outcome =
    Engine_sparse.run ~stats ~decide_active:(all_or_none ~n busy) ~graph:g
      ~detection:Engine.Collision_detection ~protocol:p
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:100 ()
  in
  let sim = Engine.total_simulated_rounds () - sim0 in
  let skip = Engine.total_skipped_rounds () - skip0 in
  Alcotest.(check bool) "budget" true (outcome = Engine.Out_of_budget 100);
  Alcotest.(check int) "clock counts both" 100 stats.Engine.rounds;
  Alcotest.(check int) "simulated = busy rounds only" 10 sim;
  Alcotest.(check int) "skipped = rounds whose set was empty" !empty skip;
  Alcotest.(check int) "skipped = the other 90" 90 skip

(* The passive contract's checked edges: [passive] needs an active set,
   must cover every node, and under [validate] a passive node inside the
   set may not sleep. *)
let test_passive_contract () =
  let g = Topo.path 3 in
  let run ?decide_active ?(validate = false) ~passive decide =
    ignore
      (Engine_sparse.run ?decide_active ~passive ~validate ~graph:g
         ~detection:Engine.Collision_detection
         ~protocol:{ Engine.decide; deliver = (fun ~round:_ ~node:_ _ -> ()) }
         ~stop:(fun ~round:_ -> false)
         ~max_rounds:2 ())
  in
  let listen ~round:_ ~node:_ = Engine.Listen in
  let first ~round:_ (buf : int array) =
    buf.(0) <- 0;
    1
  in
  Alcotest.check_raises "passive without decide_active"
    (Invalid_argument "Engine_sparse.run: passive needs decide_active")
    (fun () -> run ~passive:(Array.make 3 true) listen);
  Alcotest.check_raises "short passive"
    (Invalid_argument "Engine_sparse.run: passive shorter than the node count")
    (fun () -> run ~decide_active:first ~passive:(Array.make 2 true) listen);
  Alcotest.check_raises "sleeping passive node"
    (Invalid_argument
       "Engine_sparse.run: passive node 0 slept in round 0 (a passive node \
        in the active set must listen or transmit)")
    (fun () ->
      run ~decide_active:first ~validate:true ~passive:(Array.make 3 true)
        (fun ~round:_ ~node:_ -> Engine.Sleep))

let test_single_node () =
  let g = Topo.path 1 in
  let script =
    [| [| Engine.Transmit 3 |]; [| Engine.Listen |]; [| Engine.Sleep |] |]
  in
  let a =
    observe ~engine:`Dense ~graph:g
      ~detection:Engine.Collision_detection ~script ~max_rounds:3 ()
  in
  let b =
    observe ~engine:`Sparse ~graph:g
      ~detection:Engine.Collision_detection ~script ~max_rounds:3 ()
  in
  Alcotest.(check bool) "n=1 matches" true (same_observation_sparse a b)

(* Wrapper-level equivalence: the protocol wrappers run on the sparse
   engine by default, so each must give byte-identical results under
   [Drive.with_engine Dense] and [Sparse] from the same seed — the
   per-node RNG streams must advance exactly as under the full scan even
   though the sparse path elides sleeping nodes' decides and
   fast-forwards silent stretches. *)

let test_wrapper_decay () =
  let rng = Rng.create ~seed:421 in
  let g = Topo.random_connected ~rng ~n:60 ~extra:40 in
  let run engine =
    Drive.with_engine engine (fun () ->
        Rn_broadcast.Decay.broadcast ~rng:(Rng.create ~seed:7) ~graph:g
          ~source:0 ())
  in
  let a = run Engine.Dense and b = run Engine.Sparse in
  Alcotest.(check bool) "outcome" true
    (a.Rn_broadcast.Decay.outcome = b.Rn_broadcast.Decay.outcome);
  Alcotest.(check (array int)) "received rounds"
    a.Rn_broadcast.Decay.received_round b.Rn_broadcast.Decay.received_round;
  Alcotest.(check bool) "stats" true
    (a.Rn_broadcast.Decay.stats = b.Rn_broadcast.Decay.stats)

let test_wrapper_cr () =
  let rng = Rng.create ~seed:422 in
  let g = Topo.random_connected ~rng ~n:60 ~extra:30 in
  let run engine =
    Drive.with_engine engine (fun () ->
        Rn_broadcast.Decay.broadcast ~diameter:8 ~rng:(Rng.create ~seed:9)
          ~graph:g ~source:0 ())
  in
  let a = run Engine.Dense and b = run Engine.Sparse in
  Alcotest.(check bool) "outcome" true
    (a.Rn_broadcast.Decay.outcome = b.Rn_broadcast.Decay.outcome);
  Alcotest.(check (array int)) "received rounds"
    a.Rn_broadcast.Decay.received_round b.Rn_broadcast.Decay.received_round;
  Alcotest.(check bool) "stats" true
    (a.Rn_broadcast.Decay.stats = b.Rn_broadcast.Decay.stats)

let test_wrapper_recruiting () =
  let rng = Rng.create ~seed:423 in
  let n = 40 in
  let g = Topo.random_connected ~rng ~n ~extra:60 in
  let reds = Array.init (n / 2) (fun i -> i) in
  let blues = Array.init (n - (n / 2)) (fun i -> (n / 2) + i) in
  let run engine =
    Drive.with_engine engine (fun () ->
        Rn_broadcast.Recruiting.run_standalone ~rng:(Rng.create ~seed:11)
          ~params:Rn_broadcast.Params.default ~graph:g ~reds ~blues ())
  in
  let a = run Engine.Dense in
  Alcotest.(check bool) "outcome record" true (a = run Engine.Sparse)

let test_wrapper_bipartite () =
  let rng = Rng.create ~seed:424 in
  let n = 40 in
  let g = Topo.random_connected ~rng ~n ~extra:60 in
  let reds = Array.init (n / 2) (fun i -> i) in
  let blues = Array.init (n - (n / 2)) (fun i -> (n / 2) + i) in
  let blue_ranks = Array.make n 1 in
  let run engine =
    Drive.with_engine engine (fun () ->
        Rn_broadcast.Bipartite_assignment.run_standalone
          ~rng:(Rng.create ~seed:13) ~params:Rn_broadcast.Params.default
          ~graph:g ~reds ~blues ~blue_ranks ())
  in
  let a = run Engine.Dense in
  Alcotest.(check bool) "outcome record" true (a = run Engine.Sparse)

let test_wrapper_construct () =
  let rng = Rng.create ~seed:425 in
  let g = Topo.random_connected ~rng ~n:50 ~extra:50 in
  List.iter
    (fun mode ->
      let run engine =
        Drive.with_engine engine (fun () ->
            Rn_broadcast.Gst_distributed.construct ~mode ~learn_vd:true
              ~rng:(Rng.create ~seed:17) ~graph:g ~roots:[| 0 |] ())
      in
      let a = run Engine.Dense in
      Alcotest.(check bool) "whole result record" true (a = run Engine.Sparse))
    [ Rn_broadcast.Gst_distributed.Sequential;
      Rn_broadcast.Gst_distributed.Pipelined ]

(* The same whole-record check over random layered graphs, every mode and
   both collision models.  The assignment phase's sparse run wakes only
   each stage's actors (leaving out listeners whose deliveries are
   no-ops), so any actor the enumeration misses shows up as a different
   GST, rank, parent rank or vd. *)
let construct_differential =
  let open QCheck in
  Test.make ~name:"GST construct sparse ≡ dense (layered, modes × detection)"
    ~count:25
    (make
       ~print:(fun (depth, width, p, seed) ->
         Printf.sprintf "(depth=%d,width=%d,p=%.3f,seed=%d)" depth width p seed)
       Gen.(
         quad (int_range 2 8) (int_range 2 10) (float_range 0.2 0.6)
           (int_range 0 100_000)))
    (fun (depth, width, p, seed) ->
      let g = Topo.layered_random ~rng:(Rng.create ~seed) ~depth ~width ~p in
      List.for_all
        (fun (mode, detection) ->
          let run engine =
            Drive.with_engine engine (fun () ->
                Rn_broadcast.Gst_distributed.construct ~mode ~detection
                  ~learn_vd:true ~rng:(Rng.create ~seed:(seed + 1)) ~graph:g
                  ~roots:[| 0 |] ())
          in
          run Engine.Dense = run Engine.Sparse)
        [
          (Rn_broadcast.Gst_distributed.Sequential, Engine.No_collision_detection);
          (Rn_broadcast.Gst_distributed.Sequential, Engine.Collision_detection);
          (Rn_broadcast.Gst_distributed.Pipelined, Engine.No_collision_detection);
          (Rn_broadcast.Gst_distributed.Pipelined, Engine.Collision_detection);
        ])

let test_wrapper_single_broadcast () =
  let rng = Rng.create ~seed:426 in
  let g = Topo.random_connected ~rng ~n:50 ~extra:40 in
  let run engine =
    Drive.with_engine engine (fun () ->
        Rn_broadcast.Single_broadcast.run ~rng:(Rng.create ~seed:19) ~graph:g
          ~source:0 ())
  in
  let a = run Engine.Dense in
  Alcotest.(check bool) "whole result record" true (a = run Engine.Sparse);
  Alcotest.(check bool) "delivered" true a.Rn_broadcast.Single_broadcast.delivered

let test_wrapper_multi_broadcast () =
  let rng = Rng.create ~seed:427 in
  let g = Topo.random_connected ~rng ~n:40 ~extra:40 in
  let run engine =
    Drive.with_engine engine (fun () ->
        Rn_broadcast.Multi_broadcast.unknown ~rng:(Rng.create ~seed:23)
          ~graph:g ~source:0 ~k:4 ())
  in
  let a = run Engine.Dense in
  Alcotest.(check bool) "whole result record" true (a = run Engine.Sparse);
  let runk engine =
    Drive.with_engine engine (fun () ->
        Rn_broadcast.Multi_broadcast.known ~rng:(Rng.create ~seed:29) ~graph:g
          ~source:0 ~k:4 ())
  in
  let ka = runk Engine.Dense in
  Alcotest.(check bool) "known result record" true (ka = runk Engine.Sparse)

(* ------------------------------------------------------------------ *)
(* The engine workspace: every sparse run in a domain reuses one set of
   scratch arrays, handed back by the run before.  Each case below puts
   a run in a state a reused workspace could leak from and checks the
   next run against the full-scan reference, which keeps no scratch. *)

let workspace_case ~seed ~n =
  let rng = Rng.create ~seed in
  let g = Topo.random_connected ~rng ~n ~extra:n in
  let flags, script, decide_active = make_passive_case ~rng ~n ~rounds:8 in
  (g, flags, script, decide_active)

(* The reference, the sparse full scan, and the sparse run with passive
   listeners: a stale reception byte would hide a passive node from the
   wake walk, or hand a listener a packet nobody sent it this run. *)
let observe_both ?hook (g, flags, script, decide_active) =
  let run ?decide_active ?flags engine =
    observe ?decide_active ?flags ?hook ~engine ~graph:g
      ~detection:Engine.Collision_detection ~script ~max_rounds:8 ()
  in
  (run `Dense, run `Sparse, run ~decide_active ~flags `Sparse)

let check_against_dense ?hook what case =
  let dense, scan, passive = observe_both ?hook case in
  Alcotest.(check bool) (what ^ ", full scan ≡ dense") true
    (same_observation_sparse dense scan);
  Alcotest.(check bool) (what ^ ", passive set ≡ dense") true
    (same_observation_sparse dense passive)

exception Stop_here

(* A run that raises never hands its arrays back: neither a bad
   [decide_active] count (raised before any mark of its round) nor an
   exception out of [after_round] (raised with the round's transmitters
   and listeners still marked) can leak into the next run. *)
let test_workspace_after_raise () =
  let ((g, _, script, _) as case) = workspace_case ~seed:11 ~n:30 in
  let n = Graph.n g in
  let protocol =
    {
      Engine.decide = (fun ~round ~node -> script.(round).(node));
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let raises f =
    match f () with
    | (_ : Engine.outcome) -> Alcotest.fail "expected the run to raise"
    | exception (Invalid_argument _ | Stop_here) -> ()
  in
  raises (fun () ->
      Engine_sparse.run
        ~decide_active:(fun ~round buf ->
          if round = 3 then n + 1 else awake_set script n ~round buf)
        ~graph:g ~detection:Engine.Collision_detection ~protocol
        ~stop:(fun ~round:_ -> false)
        ~max_rounds:8 ());
  check_against_dense "after a bad count" case;
  raises (fun () ->
      Engine_sparse.run
        ~after_round:(fun ~round -> if round = 3 then raise Stop_here)
        ~graph:g ~detection:Engine.Collision_detection ~protocol
        ~stop:(fun ~round:_ -> false)
        ~max_rounds:8 ());
  check_against_dense "after a raising after_round" case

(* A run started from [after_round] finds the slot empty (the outer run
   holds the workspace) and builds its own arrays; both runs, and the
   run after them, match the reference.  The inner graph is the smaller,
   so its runs cannot clean the outer run's marks by accident. *)
let test_workspace_nested () =
  let outer = workspace_case ~seed:12 ~n:40 in
  let inner = workspace_case ~seed:13 ~n:10 in
  let nested = ref [] in
  let hook ~round:_ =
    let dense, scan, passive = observe_both inner in
    nested :=
      (same_observation_sparse dense scan
      && same_observation_sparse dense passive)
      :: !nested
  in
  check_against_dense ~hook "outer run" outer;
  Alcotest.(check bool) "every nested run ≡ dense" true
    (!nested <> [] && List.for_all Fun.id !nested);
  check_against_dense "after nesting" outer

(* The workspace only grows: a larger graph builds a larger one, and a
   smaller graph then runs on a workspace longer than its node count. *)
let test_workspace_sizes () =
  List.iteri
    (fun i n ->
      check_against_dense
        (Printf.sprintf "run %d (n = %d)" i n)
        (workspace_case ~seed:(20 + i) ~n))
    [ 12; 90; 12; 3; 90 ]

(* A packet is the protocol's: once the run returns, nothing the engine
   keeps may point to it. *)
let test_workspace_keeps_no_packet () =
  let g = Topo.path 8 in
  let w = Weak.create 1 in
  let transmit_fresh node =
    let packet = Bytes.make 16 (Char.chr node) in
    Weak.set w 0 (Some packet);
    Engine.Transmit packet
  in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node ->
          if node = 3 then transmit_fresh node else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let outcome =
    Drive.run ~graph:g ~detection:Engine.Collision_detection ~protocol
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:5 ()
  in
  Alcotest.(check bool) "ran out of budget" true
    (outcome = Engine.Out_of_budget 5);
  Gc.full_major ();
  Alcotest.(check bool) "last packet collected" false (Weak.check w 0)

(* [Drive.static_active]: the distinct ids, ascending, or [None] when
   they cover every node. *)
let test_static_active () =
  let ids n groups =
    match Drive.static_active ~n groups with
    | None -> None
    | Some da ->
        let buf = Array.make n (-1) in
        let k = da ~round:0 buf in
        Some (Array.to_list (Array.sub buf 0 k))
  in
  Alcotest.(check (option (list int))) "sorted, deduped" (Some [ 1; 3; 4; 7 ])
    (ids 9 [ [| 7; 3; 3 |]; [| 1; 7; 4 |] ]);
  Alcotest.(check (option (list int))) "empty" (Some []) (ids 4 [ [||] ]);
  Alcotest.(check (option (list int))) "covers every node" None
    (ids 3 [ [| 2; 0 |]; [| 1; 0 |] ]);
  Alcotest.check_raises "id out of range"
    (Invalid_argument "Drive.static_active: bad node id") (fun () ->
      ignore (ids 3 [ [| 0; 3 |] ]))

let () =
  Alcotest.run "engine_sparse"
    [
      ( "skip contract",
        [
          Alcotest.test_case "decide elided while skipping" `Quick
            test_skip_elides_decide;
          Alcotest.test_case "stop mid-stretch" `Quick test_stop_mid_stretch;
          Alcotest.test_case "skipped vs simulated accounting" `Quick
            test_honest_accounting;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "passive contract" `Quick test_passive_contract;
        ] );
      ( "kernel",
        [
          QCheck_alcotest.to_alcotest kernel_test;
          Alcotest.test_case "star hub" `Quick test_star_hub;
          Alcotest.test_case "decide exception propagates" `Quick
            test_decide_exception_propagates;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "run after a raising run" `Quick
            test_workspace_after_raise;
          Alcotest.test_case "run nested in after_round" `Quick
            test_workspace_nested;
          Alcotest.test_case "graphs of growing and shrinking size" `Quick
            test_workspace_sizes;
          Alcotest.test_case "no packet kept after the run" `Quick
            test_workspace_keeps_no_packet;
          Alcotest.test_case "static_active ids" `Quick test_static_active;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "Decay dense ≡ sparse" `Quick test_wrapper_decay;
          Alcotest.test_case "CR baseline dense ≡ sparse" `Quick
            test_wrapper_cr;
          Alcotest.test_case "Recruiting dense ≡ sparse" `Quick
            test_wrapper_recruiting;
          Alcotest.test_case "Bipartite dense ≡ sparse" `Quick
            test_wrapper_bipartite;
          Alcotest.test_case "GST construct dense ≡ sparse" `Quick
            test_wrapper_construct;
          Alcotest.test_case "Thm 1.1 pipeline dense ≡ sparse" `Quick
            test_wrapper_single_broadcast;
          Alcotest.test_case "Thm 1.3 pipeline dense ≡ sparse" `Quick
            test_wrapper_multi_broadcast;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (qcheck_tests @ [ construct_differential ]) );
    ]
