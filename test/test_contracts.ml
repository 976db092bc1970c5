(* Dynamic conformance probes for the protocol contracts of DESIGN.md §13,
   run over the live registry so every pipeline a user can reach from
   rbcast/bench is exercised:

   - engine independence: each registered pipeline runs under [Dense]
     and [Sparse] on two graphs and three seeds, and both modes must
     return a byte-identical result record — the routing rule of
     [Drive.run] (which fast paths each mode consumes) must never show in
     a result.  The [mmv], [estimate], [routing] and [sequential] entries
     ignore [?engine] (they always run on the default [Sparse]), so for
     them the check is trivially true.
   - R11 silence purity: each registered pipeline runs on the same
     (graph, seed) with [Engine.inject_silence] handing every listener a
     spurious [Silence] before its real reception, under the default
     [Sparse] engine and under [Dense].  Entries declaring [silence_pure]
     must produce byte-identical result records; entries that opted out with a
     reasoned [rblint:allow R11] (the GST self-test family, where silence
     means unsafe) must still run to completion.
   - transmit-buffer contract: the sparse engine's [?validate] debug flag
     must stay quiet on a well-formed [decide_active] and raise — naming
     the offending round — on one that repeats a node id.  [Drive.run]
     drops both the set and the flag under [Dense], which takes no fast
     path. *)

open Rn_graph
open Rn_radio
open Rn_broadcast

let () = Protocols.ensure_registered ()

let graph =
  Gen.layered_random
    ~rng:(Rn_util.Rng.create ~seed:5)
    ~depth:6 ~width:6 ~p:0.3

let run_entry ?engine ?(graph = graph) ?(seed = 42) e =
  e.Registry.run ~k:3 ?engine ~seed ~graph ~source:0 ()

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
                (run_entry ~engine:Engine.Dense ~graph ~seed e)
                (run_entry ~engine:Engine.Sparse ~graph ~seed e))
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
          let injected = with_injection (fun () -> run_entry ?engine e) in
          if e.Registry.silence_pure then check_result mname base injected
          else
            (* Silence-as-evidence pipelines legitimately take a different
               trajectory under injection (self-test fallbacks fire); the
               contract is that they remain well-defined, not identical. *)
            Alcotest.(check bool)
              (mname ^ ": completes") true
              (injected.Registry.rounds > 0))
        [ ("default", None); ("dense", Some Engine.Dense) ])

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

let driven engine decide_active () =
  Drive.run ~engine ~decide_active ~validate:true ~graph:small
    ~detection:Engine.No_collision_detection ~protocol:null_protocol
    ~stop:(fun ~round:_ -> false)
    ~max_rounds:3 ()

let dense = driven Engine.Dense
let sparse = driven Engine.Sparse

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
      (with_injection (fun () ->
           Drive.run ~engine ~graph:small
             ~detection:Engine.No_collision_detection ~protocol
             ~stop:(fun ~round:_ -> false)
             ~max_rounds:rounds ()));
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
