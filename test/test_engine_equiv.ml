(* Trace equivalence: the CSR full-scan engine must be observationally
   identical to the seed engine — same deliver-callback sequence (order
   included), same traced events, same stats, same outcome — for any graph,
   schedule and detection mode.  [Reference] below is a verbatim copy of the
   seed list-based engine (pre-CSR), compiled against the same action and
   reception types, so the property pins the rewrite to the original
   semantics bit for bit.  The full scan is in turn the oracle for the
   active-set fast path, which only [Engine_sparse] takes. *)

open Rn_util
open Rn_graph
module Topo = Rn_graph.Gen
open Rn_radio

module Reference = struct
  open Engine

  let run ?stats ?on_round ?after_round ~graph ~detection ~protocol ~stop
      ~max_rounds () =
    let n = Graph.n graph in
    let tx_count = Array.make n 0 in
    let tx_msg = Array.make n None in
    let listening = Array.make n false in
    let transmitters = ref [] in
    let listeners = ref [] in
    let touched = ref [] in
    let record_stat f = match stats with None -> () | Some s -> f s in
    let rec loop round =
      if stop ~round then Completed round
      else if round >= max_rounds then Out_of_budget round
      else begin
        transmitters := [];
        listeners := [];
        let events = ref [] in
        let tracing = on_round <> None in
        for v = 0 to n - 1 do
          match protocol.decide ~round ~node:v with
          | Sleep -> listening.(v) <- false
          | Listen ->
              listening.(v) <- true;
              listeners := v :: !listeners
          | Transmit msg ->
              listening.(v) <- false;
              transmitters := (v, msg) :: !transmitters;
              if tracing then events := Ev_transmit { node = v; msg } :: !events
        done;
        let tx_happened = !transmitters <> [] in
        List.iter
          (fun (t, msg) ->
            record_stat (fun s -> s.transmissions <- s.transmissions + 1);
            Graph.iter_neighbors graph t (fun v ->
                if listening.(v) then begin
                  if tx_count.(v) = 0 then begin
                    touched := v :: !touched;
                    tx_msg.(v) <- Some msg
                  end;
                  tx_count.(v) <- tx_count.(v) + 1
                end))
          !transmitters;
        List.iter
          (fun v ->
            let reception =
              match tx_count.(v) with
              | 0 -> Silence
              | 1 -> (
                  record_stat (fun s -> s.deliveries <- s.deliveries + 1);
                  match tx_msg.(v) with
                  | Some m -> Received m
                  | None -> assert false)
              | _ -> (
                  record_stat (fun s -> s.collisions <- s.collisions + 1);
                  match detection with
                  | Collision_detection -> Collision
                  | No_collision_detection -> Silence)
            in
            if tracing then events := Ev_receive { node = v; reception } :: !events;
            protocol.deliver ~round ~node:v reception)
          !listeners;
        List.iter
          (fun v ->
            tx_count.(v) <- 0;
            tx_msg.(v) <- None)
          !touched;
        touched := [];
        record_stat (fun s ->
            s.rounds <- s.rounds + 1;
            if tx_happened then s.busy_rounds <- s.busy_rounds + 1);
        (match on_round with
        | Some f -> f ~round (List.rev !events)
        | None -> ());
        (match after_round with Some f -> f ~round | None -> ());
        loop (round + 1)
      end
    in
    loop 0
end

(* A random but deterministic schedule: action of (round, node) precomputed
   from the seed, messages tagged so any cross-wiring is visible. *)
let make_script ~rng ~n ~rounds =
  Array.init rounds (fun r ->
      Array.init n (fun v ->
          match Rng.int rng 4 with
          | 0 -> Engine.Sleep
          | 1 | 2 -> Engine.Listen
          | _ -> Engine.Transmit ((r * 10_000) + v)))

let scripted script log =
  let decide ~round ~node =
    if round < Array.length script then script.(round).(node) else Engine.Listen
  in
  let deliver ~round ~node reception =
    log := (round, node, reception) :: !log
  in
  { Engine.decide; deliver }

type 'msg observation = {
  obs_outcome : Engine.outcome;
  obs_log : (int * int * 'msg Engine.reception) list;
  obs_events : (int * 'msg Engine.trace_event list) list;
  obs_after : int list;
  obs_stats : Engine.stats;
}

let observing ~graph:_ ~script k =
  let log = ref [] and events = ref [] and after = ref [] in
  let stats = Engine.fresh_stats () in
  let outcome =
    k ~stats
      ~on_round:(fun ~round evs -> events := (round, evs) :: !events)
      ~after_round:(fun ~round -> after := round :: !after)
      ~protocol:(scripted script log)
  in
  {
    obs_outcome = outcome;
    obs_log = !log;
    obs_events = !events;
    obs_after = !after;
    obs_stats = stats;
  }

let observe_ref ~graph ~detection ~script ~max_rounds =
  observing ~graph ~script (fun ~stats ~on_round ~after_round ~protocol ->
      Reference.run ~stats ~on_round ~after_round ~graph ~detection ~protocol
        ~stop:(fun ~round:_ -> false)
        ~max_rounds ())

let observe_new ~graph ~detection ~script ~max_rounds () =
  observing ~graph ~script (fun ~stats ~on_round ~after_round ~protocol ->
      Engine.run ~stats ~on_round ~after_round ~graph ~detection ~protocol
        ~stop:(fun ~round:_ -> false)
        ~max_rounds ())

(* The sparse engine has no tracing hook; its observation carries no
   events. *)
let observe_active ~decide_active ~graph ~detection ~script ~max_rounds () =
  observing ~graph ~script (fun ~stats ~on_round:_ ~after_round ~protocol ->
      Engine_sparse.run ~stats ~after_round ~decide_active ~validate:true
        ~graph ~detection ~protocol
        ~stop:(fun ~round:_ -> false)
        ~max_rounds ())

let same_observation a b =
  a.obs_outcome = b.obs_outcome && a.obs_log = b.obs_log
  && a.obs_events = b.obs_events && a.obs_after = b.obs_after
  && a.obs_stats = b.obs_stats

(* Active set vs full scan: the sparse engine elides zero-transmitter
   Silence deliveries and delivers in descending decide order, which
   follows the active set's buffer order rather than node order, so the
   logs are compared with Silence dropped and in (round, node) order —
   each node hears at most one reception per round.  Collision counts in the stats
   pin the collided-Silence deliveries both engines perform. *)
let canonical_log log =
  List.sort compare (List.filter (fun (_, _, r) -> r <> Engine.Silence) log)

let same_modulo_frontier ~oracle b =
  oracle.obs_outcome = b.obs_outcome
  && canonical_log oracle.obs_log = canonical_log b.obs_log
  && oracle.obs_after = b.obs_after && oracle.obs_stats = b.obs_stats

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

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"engine trace-equivalent to seed engine" ~count:300
      arb_case
      (fun case ->
        let g, script, detection, rounds = setup case in
        let a = observe_ref ~graph:g ~detection ~script ~max_rounds:rounds in
        let b = observe_new ~graph:g ~detection ~script ~max_rounds:rounds () in
        same_observation a b);
    (* The sparse active-set path with the full node set enumerated must
       match the dense every-node scan. *)
    Test.make ~name:"decide_active(full set) ≡ full scan" ~count:150 arb_case
      (fun case ->
        let g, script, detection, rounds = setup case in
        let n = Graph.n g in
        let a = observe_new ~graph:g ~detection ~script ~max_rounds:rounds () in
        let b =
          observe_active
            ~decide_active:(fun ~round:_ buf ->
              for v = 0 to n - 1 do
                buf.(v) <- v
              done;
              n)
            ~graph:g ~detection ~script ~max_rounds:rounds ()
        in
        same_modulo_frontier ~oracle:a b);
    (* Sparse active sets: enumerating exactly the non-Sleep nodes of the
       script (ascending) is indistinguishable from scanning everyone,
       because the skipped nodes would have slept anyway. *)
    Test.make ~name:"decide_active(awake set) ≡ full scan" ~count:150 arb_case
      (fun case ->
        let g, script, detection, rounds = setup case in
        let n = Graph.n g in
        let a = observe_new ~graph:g ~detection ~script ~max_rounds:rounds () in
        let b =
          observe_active
            ~decide_active:(fun ~round buf ->
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
              !k)
            ~graph:g ~detection ~script ~max_rounds:rounds ()
        in
        same_modulo_frontier ~oracle:a b);
    (* The parallel runner must be bit-identical to a serial map. *)
    Test.make ~name:"Runner.map ≡ serial map" ~count:50
      (pair (int_range 1 20) (int_range 0 10_000))
      (fun (k, seed0) ->
        let seeds = List.init k (fun i -> seed0 + i) in
        let trial ~seed =
          let rng = Rng.create ~seed in
          let g = Topo.random_connected ~rng ~n:12 ~extra:8 in
          let stats = Engine.fresh_stats () in
          let script = make_script ~rng ~n:12 ~rounds:6 in
          let log = ref [] in
          let outcome =
            Engine.run ~stats ~graph:g
              ~detection:Engine.Collision_detection
              ~protocol:(scripted script log)
              ~stop:(fun ~round:_ -> false)
              ~max_rounds:6 ()
          in
          (outcome, !log, stats)
        in
        let serial = List.map (fun seed -> trial ~seed) seeds in
        let par2 = Runner.map ~domains:2 (fun seed -> trial ~seed) seeds in
        let par4 = Runner.map ~domains:4 (fun seed -> trial ~seed) seeds in
        serial = par2 && serial = par4);
  ]

let test_active_set_sleeps_rest () =
  (* Nodes outside the active set sleep: on a path 0-1-2 where the script
     says everyone listens and node 0 transmits, an active set of {0, 1}
     must leave node 2 asleep (no deliver callback). *)
  let g = Topo.path 3 in
  let log = ref [] in
  let decide ~round:_ ~node =
    if node = 0 then Engine.Transmit 7 else Engine.Listen
  in
  let deliver ~round:_ ~node reception = log := (node, reception) :: !log in
  ignore
    (Engine_sparse.run ~graph:g ~detection:Engine.Collision_detection
       ~protocol:{ Engine.decide; deliver }
       ~decide_active:(fun ~round:_ buf ->
         buf.(0) <- 0;
         buf.(1) <- 1;
         2)
       ~stop:(fun ~round:_ -> false)
       ~max_rounds:1 ());
  Alcotest.(check int) "only node 1 delivered" 1 (List.length !log);
  (match !log with
  | [ (1, Engine.Received 7) ] -> ()
  | _ -> Alcotest.fail "node 1 should receive 7");
  ()

let test_active_set_bad_id () =
  let g = Topo.path 3 in
  let p =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  Alcotest.check_raises "out-of-range id"
    (Invalid_argument "Engine_sparse.run: decide_active wrote a bad node id")
    (fun () ->
      ignore
        (Engine_sparse.run ~graph:g ~detection:Engine.Collision_detection ~protocol:p
           ~decide_active:(fun ~round:_ buf ->
             buf.(0) <- 5;
             1)
           ~stop:(fun ~round:_ -> false)
           ~max_rounds:1 ()))

let () =
  Alcotest.run "engine_equiv"
    [
      ( "active-set",
        [
          Alcotest.test_case "inactive nodes sleep" `Quick
            test_active_set_sleeps_rest;
          Alcotest.test_case "bad id rejected" `Quick test_active_set_bad_id;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
