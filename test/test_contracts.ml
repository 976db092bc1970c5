(* Dynamic conformance probes for the protocol contracts of DESIGN.md §13,
   run over the live registry so every pipeline a user can reach from
   rbcast/bench is exercised:

   - engine independence: each registered pipeline runs under
     [Drive.with_engine Dense] and [Sparse] on two graphs and three
     seeds, and both modes must return a byte-identical result record —
     the routing rule of [Drive.run] (which fast paths each mode
     consumes) must never show in a result.  No entry is exempt: every
     stage of every pipeline reaches the engines through [Drive.run].
   - R11 silence purity: each registered pipeline runs on the same
     (graph, seed) with [Engine.inject_silence] handing every listener a
     spurious [Silence] before its real reception, under the default
     [Sparse] engine and under [Dense].  Entries declaring [silence_pure]
     must produce byte-identical result records; entries that opted out with a
     reasoned [rblint:allow R11] (the GST self-test family, where silence
     means unsafe) must still run to completion.
   - transmit-buffer contract: [Engine_sparse.run]'s [?validate] debug
     flag must stay quiet on a well-formed [decide_active] and raise —
     naming the offending round — on one that repeats a node id.
     [Drive.run] drops the set under [Dense], which takes no fast path,
     so a repeated id changes nothing there. *)

open Rn_graph
open Rn_radio
open Rn_broadcast

let () = Protocols.ensure_registered ()

let graph =
  Gen.layered_random
    ~rng:(Rn_util.Rng.create ~seed:5)
    ~depth:6 ~width:6 ~p:0.3

let run_entry ?(graph = graph) ?(seed = 42) e =
  e.Registry.run ~k:3 ~seed ~graph ~source:0 ()

let check_result what (a : Registry.result) (b : Registry.result) =
  Alcotest.(check int) (what ^ ": rounds") a.Registry.rounds b.Registry.rounds;
  Alcotest.(check bool)
    (what ^ ": delivered") a.Registry.delivered b.Registry.delivered;
  Alcotest.(check (list (pair string string)))
    (what ^ ": details") a.Registry.details b.Registry.details

(* --------------------------------------------------------------- *)
(* Engine independence                                               *)

let graphs =
  [
    ("layered", graph);
    ( "random",
      Gen.random_connected ~rng:(Rn_util.Rng.create ~seed:9) ~n:40 ~extra:40 );
  ]

let independence_case e =
  Alcotest.test_case e.Registry.name `Quick (fun () ->
      List.iter
        (fun (gname, graph) ->
          List.iter
            (fun seed ->
              check_result
                (Printf.sprintf "%s seed=%d sparse ≡ dense" gname seed)
                (Drive.with_engine Engine.Dense (fun () ->
                     run_entry ~graph ~seed e))
                (Drive.with_engine Engine.Sparse (fun () ->
                     run_entry ~graph ~seed e)))
            [ 1; 42; 1234 ])
        graphs)

let with_injection f =
  Atomic.set Engine.inject_silence true;
  Fun.protect ~finally:(fun () -> Atomic.set Engine.inject_silence false) f

let injection_case e =
  let name = e.Registry.name in
  Alcotest.test_case name `Quick (fun () ->
      let base = run_entry e in
      List.iter
        (fun (mname, engine) ->
          let injected =
            Drive.with_engine engine (fun () ->
                with_injection (fun () -> run_entry e))
          in
          if e.Registry.silence_pure then check_result mname base injected
          else
            (* Silence-as-evidence pipelines legitimately take a different
               trajectory under injection (self-test fallbacks fire); the
               contract is that they remain well-defined, not identical. *)
            Alcotest.(check bool)
              (mname ^ ": completes") true
              (injected.Registry.rounds > 0))
        [ ("default", Engine.Sparse); ("dense", Engine.Dense) ])

(* --------------------------------------------------------------- *)
(* ?validate: the transmit-buffer distinctness check (sparse only)   *)

let null_protocol =
  {
    Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
    deliver = (fun ~round:_ ~node:_ _ -> ());
  }

let small = Gen.path 4

let duplicated ~round:_ dst =
  dst.(0) <- 1;
  dst.(1) <- 1;
  2

let distinct ~round:_ dst =
  for v = 0 to Graph.n small - 1 do
    dst.(v) <- v
  done;
  Graph.n small

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let expect_repeat name runner =
  Alcotest.test_case name `Quick (fun () ->
      match runner () with
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            ("names the repeat and the round: " ^ msg)
            true
            (contains msg "repeated node id 1" && contains msg "round 0")
      | _ -> Alcotest.fail "validate:true accepted a duplicated node id")

let expect_clean name runner =
  Alcotest.test_case name `Quick (fun () ->
      ignore (runner () : Engine.outcome))

let stop ~round:_ = false

(* Under [Dense] the set reaches no engine, so there is nothing to check. *)
let dense decide_active () =
  Drive.with_engine Engine.Dense (fun () ->
      Drive.run ~decide_active ~graph:small
        ~detection:Engine.No_collision_detection ~protocol:null_protocol ~stop
        ~max_rounds:3 ())

let sparse decide_active () =
  Engine_sparse.run ~decide_active ~validate:true ~graph:small
    ~detection:Engine.No_collision_detection ~protocol:null_protocol ~stop
    ~max_rounds:3 ()

(* The probe itself: every engine delivers the spurious [Silence] to every
   listener it delivers to.  On a listen-only round only [Dense] delivers
   at all (the fast engine elides zero-transmitter [Silence]); on the
   alternating schedule below every listener has a transmitting
   neighbour, so every engine delivers to every listener and each node
   counts two receptions per listening round. *)
let test_injection_reaches_listeners () =
  let rounds = 4 in
  let receptions ~decide engine =
    let got = Array.make (Graph.n small) 0 in
    let protocol =
      {
        Engine.decide;
        deliver = (fun ~round:_ ~node _ -> got.(node) <- got.(node) + 1);
      }
    in
    ignore
      (Drive.with_engine engine (fun () ->
           with_injection (fun () ->
               Drive.run ~graph:small ~detection:Engine.No_collision_detection
                 ~protocol ~stop ~max_rounds:rounds ())));
    got
  in
  Alcotest.(check (array int))
    "dense, listen-only"
    (Array.make (Graph.n small) (2 * rounds))
    (receptions ~decide:null_protocol.Engine.decide Engine.Dense);
  (* Path 0-1-2-3: nodes of one parity transmit while the others listen,
     so each listener hears one packet or a collision. *)
  let alternating ~round ~node =
    if (round + node) mod 2 = 0 then Engine.Transmit node else Engine.Listen
  in
  List.iter
    (fun (name, engine) ->
      Alcotest.(check (array int))
        name
        (Array.make (Graph.n small) rounds)
        (receptions ~decide:alternating engine))
    [ ("dense", Engine.Dense); ("sparse", Engine.Sparse) ]

(* --------------------------------------------------------------- *)
(* The engine switch                                                  *)

(* Which route [Drive.run] takes right now, read from behaviour: with an
   awake set that lists no node, [Sparse] decides nobody and
   fast-forwards, while [Dense] drops the set and decides all n nodes in
   every round. *)
let decides_per_round () =
  let rounds = 3 in
  let calls = Atomic.make 0 in
  let protocol =
    {
      null_protocol with
      Engine.decide =
        (fun ~round:_ ~node:_ ->
          Atomic.incr calls;
          Engine.Listen);
    }
  in
  ignore
    (Drive.run
       ~decide_active:(fun ~round:_ _ -> 0)
       ~graph:small ~detection:Engine.No_collision_detection ~protocol ~stop
       ~max_rounds:rounds ()
      : Engine.outcome);
  Atomic.get calls / rounds

let routed what expected =
  Alcotest.(check int)
    (what ^ ": decides per round")
    (match expected with Engine.Dense -> Graph.n small | Engine.Sparse -> 0)
    (decides_per_round ())

let switch_tests =
  [
    Alcotest.test_case "dense decides every node despite an empty set"
      `Quick (fun () ->
        routed "default" Engine.Sparse;
        Drive.with_engine Engine.Dense (fun () -> routed "dense" Engine.Dense));
    Alcotest.test_case "restored after a normal return" `Quick (fun () ->
        Alcotest.(check int)
          "callback result" 7
          (Drive.with_engine Engine.Dense (fun () -> 7));
        routed "after" Engine.Sparse);
    Alcotest.test_case "restored after the callback raises" `Quick (fun () ->
        (match Drive.with_engine Engine.Dense (fun () -> raise Exit) with
        | () -> Alcotest.fail "with_engine swallowed the exception"
        | exception Exit -> ());
        routed "after" Engine.Sparse);
    Alcotest.test_case "nested calls restore the outer mode" `Quick
      (fun () ->
        Drive.with_engine Engine.Dense (fun () ->
            Drive.with_engine Engine.Sparse (fun () ->
                routed "inner" Engine.Sparse);
            routed "outer, after inner" Engine.Dense;
            (try
               Drive.with_engine Engine.Sparse (fun () -> raise Exit)
             with Exit -> ());
            routed "outer, after a raising inner" Engine.Dense);
        routed "after" Engine.Sparse);
    Alcotest.test_case "runner lanes share the mode" `Quick (fun () ->
        let per_lane =
          Drive.with_engine Engine.Dense (fun () ->
              Runner.map ~domains:2 (fun _ -> decides_per_round ()) [ 1; 2 ])
        in
        Alcotest.(check (list int))
          "decides per round, per lane"
          [ Graph.n small; Graph.n small ]
          per_lane);
  ]

let registry_tests =
  [
    Alcotest.test_case "duplicate name rejected" `Quick (fun () ->
        match
          Registry.register
            (match Registry.find "decay" with
            | Some e -> e
            | None -> Alcotest.fail "decay not registered")
        with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "duplicate registration accepted");
    Alcotest.test_case "names cover both arities" `Quick (fun () ->
        let names = Registry.names () in
        List.iter
          (fun n ->
            Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
          [ "decay"; "cr"; "gst"; "thm11"; "known"; "unknown" ]);
    (* A broadcast that cannot reach a component must not claim delivery.
       [cr] and [estimate] raise on a disconnected graph by contract, and
       [gst-dist] judges a construction, not a broadcast. *)
    Alcotest.test_case "two components: not delivered" `Quick (fun () ->
        let graph =
          Graph.create ~n:7 ~edges:[ (0, 1); (1, 2); (2, 3); (4, 5); (5, 6) ]
        in
        List.iter
          (fun name ->
            match Registry.find name with
            | None -> Alcotest.fail (name ^ " not registered")
            | Some e ->
                Alcotest.(check bool)
                  (name ^ " delivered") false
                  (run_entry ~graph e).Registry.delivered)
          [
            "decay"; "mmv"; "gst"; "thm11"; "known"; "unknown"; "routing";
            "sequential";
          ]);
  ]

let () =
  Alcotest.run "contracts"
    [
      ("registry", registry_tests);
      ("engine-switch", switch_tests);
      ("engine-independence", List.map independence_case (Registry.all ()));
      ( "silence-injection",
        Alcotest.test_case "probe reaches every listener" `Quick
          test_injection_reaches_listeners
        :: List.map injection_case (Registry.all ()) );
      ( "validate",
        [
          expect_clean "dense accepts distinct ids" (dense distinct);
          expect_clean "sparse accepts distinct ids" (sparse distinct);
          expect_clean "dense drops the set, repeats and all"
            (dense duplicated);
          expect_repeat "sparse rejects a repeated id" (sparse duplicated);
        ] );
    ]
