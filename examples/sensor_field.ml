(* Sensor field: an alarm spreads through a geometric radio network.

   Radio networks model exactly this deployment: sensors scattered over an
   area, each hearing only nearby transmitters, interference when two
   neighbors talk at once.  We drop 120 sensors in the unit square, raise
   an alarm at the sensor closest to a corner, and compare dissemination
   strategies.

   Run with: dune exec examples/sensor_field.exe *)

open Rn_util
open Rn_graph
open Rn_broadcast

let () =
  let rng = Rng.create ~seed:7 in
  let n = 120 in
  let graph = Gen.unit_disk ~rng ~n ~radius:0.14 in
  let source = 0 in
  let ecc = Bfs.eccentricity graph source in
  Printf.printf "sensor field: %d sensors, %d links, %d hops to the farthest sensor\n\n"
    (Graph.n graph) (Graph.m graph) ecc;

  (* 1. Plain Decay flooding. *)
  let decay = Decay.broadcast ~rng:(Rng.split rng) ~graph ~source () in
  let decay_rounds = Rn_radio.Engine.rounds_of_outcome decay.Decay.outcome in

  (* 2. The truncated-ladder (Czumaj-Rytter-style) variant. *)
  let cr =
    Decay.broadcast ~diameter:ecc ~rng:(Rng.split rng) ~graph ~source ()
  in
  let cr_rounds = Rn_radio.Engine.rounds_of_outcome cr.Decay.outcome in

  (* 3. Theorem 1.1 with collision detection. *)
  let cd = Single_broadcast.run ~rng:(Rng.split rng) ~graph ~source () in

  Printf.printf "%-42s %8s\n" "strategy" "rounds";
  Printf.printf "%-42s %8d\n" "Decay flooding [BGI]" decay_rounds;
  Printf.printf "%-42s %8d\n" "truncated Decay [Czumaj-Rytter-style]" cr_rounds;
  Printf.printf "%-42s %8d   (setup %d + spread %d)\n"
    "collision detection [Theorem 1.1]" cd.Single_broadcast.rounds_total
    (cd.Single_broadcast.rounds_layering + cd.Single_broadcast.rounds_construction)
    cd.Single_broadcast.rounds_broadcast;
  assert cd.Single_broadcast.delivered;

  (* Reception-time profile of the Decay flood: how the alarm wave moves. *)
  print_newline ();
  Printf.printf "Decay alarm wavefront (sensors reached per 10-round window):\n";
  let window = 10 in
  let buckets = (decay_rounds / window) + 1 in
  let hist = Array.make buckets 0 in
  Array.iter
    (fun r -> if r >= 0 then hist.(r / window) <- hist.(r / window) + 1)
    decay.Decay.received_round;
  Array.iteri
    (fun i c ->
      if c > 0 then
        Printf.printf "  rounds %3d-%3d | %s %d\n" (i * window)
          (((i + 1) * window) - 1)
          (String.make c '#') c)
    hist;

  (* The GST setup is reusable: once built, every further single-message
     broadcast costs only the dissemination part. *)
  print_newline ();
  Printf.printf
    "Note: the Theorem 1.1 setup (%d rounds here) is a one-time cost; after\n\
     it, each further alarm costs only ~%d rounds on this field.\n"
    (cd.Single_broadcast.rounds_layering + cd.Single_broadcast.rounds_construction)
    cd.Single_broadcast.rounds_broadcast
