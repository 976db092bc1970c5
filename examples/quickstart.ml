(* Quickstart: broadcast one message through a random multi-hop radio
   network, with the paper's collision-detection algorithm (Theorem 1.1)
   and with the classic Decay baseline.

   Run with: dune exec examples/quickstart.exe *)

open Rn_util
open Rn_broadcast

let () =
  let rng = Rng.create ~seed:2013 in
  (* A corridor of dense clusters: 96 radios, a long multi-hop diameter. *)
  let graph = Rn_graph.Gen.cluster_path ~rng ~clusters:12 ~size:8 ~p_intra:0.4 in
  let source = 0 in
  let diameter = Rn_graph.Bfs.eccentricity graph source in
  Printf.printf "network: n=%d, m=%d, eccentricity(source)=%d\n\n"
    (Rn_graph.Graph.n graph) (Rn_graph.Graph.m graph) diameter;

  (* Theorem 1.1: collision wave -> rings -> distributed GSTs -> schedule. *)
  let cd = Single_broadcast.run ~rng:(Rng.split rng) ~graph ~source () in
  Printf.printf "with collision detection (Theorem 1.1): %d rounds\n"
    cd.Single_broadcast.rounds_total;
  Printf.printf "  layering %d + construction %d + dissemination %d (%d rings)\n"
    cd.Single_broadcast.rounds_layering cd.Single_broadcast.rounds_construction
    cd.Single_broadcast.rounds_broadcast cd.Single_broadcast.ring_count;
  assert cd.Single_broadcast.delivered;

  (* Baseline: BGI Decay, no collision detection. *)
  let decay = Decay.broadcast ~rng:(Rng.split rng) ~graph ~source () in
  Printf.printf "Decay baseline (no CD):                  %d rounds\n"
    (Rn_radio.Engine.rounds_of_outcome decay.Decay.outcome);

  print_newline ();
  Printf.printf
    "The CD algorithm pays a poly-log setup once; its dissemination cost\n\
     grows additively with the diameter, while Decay pays a log factor on\n\
     every hop.  Sweep the diameter in bench/main.exe (experiment E1) to\n\
     see the shapes and the crossover.\n"
