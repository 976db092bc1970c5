(* Edge-case coverage for the parallel trial runner (Runner.map) and the
   fault-injection helpers (Faults) — previously only exercised indirectly
   through the bench smoke. *)

open Rn_util
open Rn_radio
open Rn_broadcast

(* The concurrency tests below (Atomic tally hammering, serial ≡ parallel)
   only bite with real worker domains; on small machines the pool's
   hardware cap would otherwise run every lane in the calling domain. *)
let () =
  Atomic.set Runner.Pool.size_cap (max 8 (Atomic.get Runner.Pool.size_cap))

(* ------------------------------------------------------------------ *)
(* Runner.map edge cases                                               *)

let test_domains_exceed_items () =
  (* 8 domains over 3 items must clamp to 3 and preserve order. *)
  let out = Runner.map ~domains:8 (fun x -> x * x) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "order preserved" [ 1; 4; 9 ] out

let test_domains_zero_clamps () =
  let out = Runner.map ~domains:0 (fun x -> x + 1) [ 10; 20; 30 ] in
  Alcotest.(check (list int)) "domains=0 runs serially" [ 11; 21; 31 ] out;
  let out = Runner.map ~domains:(-3) (fun x -> x + 1) [ 10 ] in
  Alcotest.(check (list int)) "negative domains clamp too" [ 11 ] out

let test_empty_items () =
  let called = ref false in
  let out =
    Runner.map ~domains:4
      (fun x ->
        called := true;
        x)
      []
  in
  Alcotest.(check (list int)) "empty in, empty out" [] out;
  Alcotest.(check bool) "f never called" false !called

let test_single_item_many_domains () =
  let out = Runner.map ~domains:16 string_of_int [ 42 ] in
  Alcotest.(check (list string)) "singleton" [ "42" ] out

let test_map_seed_order () =
  let out =
    Runner.map ~domains:3 (fun seed -> seed * 10) [ 5; 1; 9; 2 ]
  in
  Alcotest.(check (list int)) "seed order preserved" [ 50; 10; 90; 20 ] out

(* Serial-vs-parallel bit-identity: each trial derives everything from its
   seed, so any domain count must reproduce the serial result exactly.
   The trial body runs a real protocol stack to make the property
   meaningful, not just an integer map. *)
let qcheck_bit_identity =
  let open QCheck in
  Test.make ~name:"Runner.map serial == parallel (bit-identical trials)"
    ~count:20
    (pair (int_range 2 8) (list_of_size Gen.(int_range 1 12) small_nat))
    (fun (domains, seeds) ->
      let trial seed =
        let rng = Rng.create ~seed in
        let g =
          Rn_graph.Gen.layered_random ~rng:(Rng.split rng) ~depth:4 ~width:4
            ~p:0.5
        in
        let r = Single_broadcast.run ~rng:(Rng.split rng) ~graph:g ~source:0 () in
        (r.Single_broadcast.rounds_total, r.Single_broadcast.delivered)
      in
      Runner.map ~domains:1 trial seeds = Runner.map ~domains trial seeds)

(* ------------------------------------------------------------------ *)
(* The cross-domain round tally (Engine.simulated_rounds)              *)

let listen_protocol =
  {
    Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
    deliver = (fun ~round:_ ~node:_ _ -> ());
  }

let tiny_star n =
  Rn_graph.Graph.create ~n ~edges:(List.init (n - 1) (fun i -> (0, i + 1)))

let quiet_run ~max_rounds () =
  let (_ : Engine.outcome) =
    Engine.run ~graph:(tiny_star 8) ~detection:Engine.Collision_detection
      ~protocol:listen_protocol
      ~stop:(fun ~round:_ -> false)
      ~max_rounds ()
  in
  ()

(* Every Engine.run bumps the shared Atomic round tally once on exit.
   Hammer it from every domain concurrently: with [trials] runs racing
   their fetch_and_add, the total must equal the serial sum exactly — a
   single lost update (the bug a plain ref would have) shows up as a
   shortfall. *)
let test_concurrent_tally_no_lost_updates () =
  let trials = 64 and rounds_each = 10 in
  let before = Engine.total_simulated_rounds () in
  quiet_run ~max_rounds:rounds_each ();
  let per_run = Engine.total_simulated_rounds () - before in
  Alcotest.(check bool) "one run advances the tally" true (per_run > 0);
  let before_serial = Engine.total_simulated_rounds () in
  let (_ : unit list) =
    Runner.map ~domains:1
      (fun _ -> quiet_run ~max_rounds:rounds_each ())
      (List.init trials Fun.id)
  in
  let serial_delta = Engine.total_simulated_rounds () - before_serial in
  Alcotest.(check int) "serial tally is trials * per-run" (trials * per_run)
    serial_delta;
  let before_par = Engine.total_simulated_rounds () in
  let (_ : unit list) =
    Runner.map ~domains:(Runner.default_domains ())
      (fun _ -> quiet_run ~max_rounds:rounds_each ())
      (List.init trials Fun.id)
  in
  let par_delta = Engine.total_simulated_rounds () - before_par in
  Alcotest.(check int) "concurrent Atomic tally equals the serial sum"
    serial_delta par_delta

(* The tally also feeds real protocol runs fanned out by the bench: the
   delta accumulated across a parallel ensemble must match the serial
   ensemble bit-for-bit, like the results themselves. *)
let test_concurrent_tally_protocol_ensemble () =
  let seeds = List.init 24 (fun i -> 500 + i) in
  let trial ~seed =
    let rng = Rng.create ~seed in
    let g =
      Rn_graph.Gen.layered_random ~rng:(Rng.split rng) ~depth:3 ~width:3 ~p:0.6
    in
    let r = Single_broadcast.run ~rng:(Rng.split rng) ~graph:g ~source:0 () in
    r.Single_broadcast.rounds_total
  in
  let before = Engine.total_simulated_rounds () in
  let serial = Runner.map ~domains:1 (fun seed -> trial ~seed) seeds in
  let serial_delta = Engine.total_simulated_rounds () - before in
  let before = Engine.total_simulated_rounds () in
  let par = Runner.map ~domains:6 (fun seed -> trial ~seed) seeds in
  let par_delta = Engine.total_simulated_rounds () - before in
  Alcotest.(check (list int)) "trial results bit-identical" serial par;
  Alcotest.(check int) "tally delta identical under parallel fan-out"
    serial_delta par_delta;
  Alcotest.(check bool) "tally advanced" true (serial_delta > 0)

(* Alloc budget: reading the Atomic tally from inside the round loop must
   stay off the minor heap — Atomic.get is a plain load and the count is
   an immediate int, so polling it every round keeps the quiet steady
   state at exactly zero minor words (the same budget test_alloc.ml
   proves for the unpolled loop). *)
let test_tally_read_alloc_free () =
  let warmup = 16 and rounds = 256 in
  let marks = [| 0.0; 0.0 |] in
  let sink = [| 0 |] in
  let after_round ~round =
    sink.(0) <- Engine.total_simulated_rounds ();
    if round = warmup then marks.(0) <- Gc.minor_words ()
    else if round = warmup + rounds then marks.(1) <- Gc.minor_words ()
  in
  let (_ : Engine.outcome) =
    Engine.run ~after_round ~graph:(tiny_star 128)
      ~detection:Engine.Collision_detection ~protocol:listen_protocol
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:(warmup + rounds + 2) ()
  in
  Alcotest.(check (float 0.0))
    "polling the round tally allocates zero minor words" 0.0
    (marks.(1) -. marks.(0))

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)

let action_testable =
  Alcotest.testable
    (fun fmt a ->
      Format.pp_print_string fmt
        (match a with
        | Engine.Sleep -> "Sleep"
        | Engine.Listen -> "Listen"
        | Engine.Transmit m -> Printf.sprintf "Transmit %d" m))
    (fun a b ->
      match (a, b) with
      | Engine.Sleep, Engine.Sleep | Engine.Listen, Engine.Listen -> true
      | Engine.Transmit x, Engine.Transmit y -> x = y
      | _ -> false)

let test_jammers_p1_always_jam () =
  let rng = Rng.create ~seed:3 in
  let p =
    Faults.with_jammers ~rng ~jammers:[| 1; 3 |] ~p:1.0 ~noise:(-7)
      listen_protocol
  in
  for round = 0 to 9 do
    Alcotest.check action_testable "jammer transmits noise"
      (Engine.Transmit (-7))
      (p.Engine.decide ~round ~node:1);
    Alcotest.check action_testable "non-jammer falls through" Engine.Listen
      (p.Engine.decide ~round ~node:2)
  done

let test_jammers_p0_never_jam () =
  let rng = Rng.create ~seed:3 in
  let p =
    Faults.with_jammers ~rng ~jammers:[| 0; 2 |] ~p:0.0 ~noise:(-7)
      listen_protocol
  in
  for round = 0 to 9 do
    Alcotest.check action_testable "p=0 jammer never jams" Engine.Listen
      (p.Engine.decide ~round ~node:0)
  done

let test_jammers_deterministic () =
  let mk () =
    Faults.with_jammers ~rng:(Rng.create ~seed:11) ~jammers:[| 0; 1; 2 |]
      ~p:0.5 ~noise:99 listen_protocol
  in
  let a = mk () and b = mk () in
  for round = 0 to 49 do
    for node = 0 to 2 do
      Alcotest.check action_testable "same seed, same jam schedule"
        (a.Engine.decide ~round ~node)
        (b.Engine.decide ~round ~node)
    done
  done

let test_pick_jammers_properties () =
  let rng = Rng.create ~seed:5 in
  let jammers = Faults.pick_jammers ~rng ~n:50 ~count:10 ~exclude:[| 0; 7 |] in
  Alcotest.(check int) "count respected" 10 (Array.length jammers);
  Array.iter
    (fun v ->
      if v = 0 || v = 7 then Alcotest.failf "excluded node %d picked" v;
      if v < 0 || v >= 50 then Alcotest.failf "node %d out of range" v)
    jammers;
  let sorted = Array.copy jammers in
  Array.sort Int.compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then
      Alcotest.failf "duplicate jammer %d" sorted.(i)
  done

let test_pick_jammers_errors () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative count rejected" true
    (raises (fun () ->
         Faults.pick_jammers ~rng:(Rng.create ~seed:1) ~n:5 ~count:(-1)
           ~exclude:[||]));
  Alcotest.(check bool) "count > candidates rejected" true
    (raises (fun () ->
         Faults.pick_jammers ~rng:(Rng.create ~seed:1) ~n:5 ~count:5
           ~exclude:[| 0 |]))

(* End-to-end: a broadcast through a jammed network still completes (the
   jammers only add collisions) and is reproducible from its seed. *)
let test_jammed_broadcast_deterministic () =
  let run_once () =
    let rng = Rng.create ~seed:21 in
    let g =
      Rn_graph.Gen.layered_random ~rng:(Rng.split rng) ~depth:4 ~width:4 ~p:0.5
    in
    let jammers =
      Faults.pick_jammers ~rng:(Rng.split rng) ~n:(Rn_graph.Graph.n g) ~count:2
        ~exclude:[| 0 |]
    in
    let r =
      Single_broadcast.run ~rng:(Rng.split rng) ~graph:g ~source:0 ()
    in
    (Array.to_list jammers, r.Single_broadcast.rounds_total)
  in
  Alcotest.(check (pair (list int) int))
    "jammed run replays bit-identically" (run_once ()) (run_once ())

let () =
  Alcotest.run "runner-faults"
    [
      ( "runner",
        [
          Alcotest.test_case "domains > items" `Quick test_domains_exceed_items;
          Alcotest.test_case "domains = 0 clamps" `Quick
            test_domains_zero_clamps;
          Alcotest.test_case "empty items" `Quick test_empty_items;
          Alcotest.test_case "single item" `Quick test_single_item_many_domains;
          Alcotest.test_case "map seed order" `Quick test_map_seed_order;
          QCheck_alcotest.to_alcotest qcheck_bit_identity;
        ] );
      ( "round tally",
        [
          Alcotest.test_case "no lost updates under concurrent bumps" `Quick
            test_concurrent_tally_no_lost_updates;
          Alcotest.test_case "parallel ensemble tally equals serial" `Quick
            test_concurrent_tally_protocol_ensemble;
          Alcotest.test_case "tally reads stay off the minor heap" `Quick
            test_tally_read_alloc_free;
        ] );
      ( "faults",
        [
          Alcotest.test_case "p=1 always jams" `Quick test_jammers_p1_always_jam;
          Alcotest.test_case "p=0 never jams" `Quick test_jammers_p0_never_jam;
          Alcotest.test_case "jam schedule deterministic" `Quick
            test_jammers_deterministic;
          Alcotest.test_case "pick_jammers properties" `Quick
            test_pick_jammers_properties;
          Alcotest.test_case "pick_jammers errors" `Quick
            test_pick_jammers_errors;
          Alcotest.test_case "jammed broadcast deterministic" `Quick
            test_jammed_broadcast_deterministic;
        ] );
    ]
