(* Round-by-round trace of the radio model on a tiny network.

   Prints every transmission and reception of a Decay broadcast on a
   5-node path, showing the model's mechanics: the probability ladder,
   collisions turning into silence (without CD), and the message hopping
   level by level.

   Run with: dune exec examples/trace_rounds.exe *)

open Rn_util
open Rn_radio
open Rn_broadcast

type msg = Payload

let () =
  let graph = Rn_graph.Gen.path 5 in
  let rng = Rng.create ~seed:6 in
  let n = Rn_graph.Graph.n graph in
  let node_rng = Rng.split_n rng n in
  let has = Array.make n false in
  has.(0) <- true;
  let missing = ref (n - 1) in
  let ladder = Params.phase_len ~n in
  let decide ~round ~node =
    if has.(node) && Rng.coin_pow2 node_rng.(node) (Decay.exponent ~ladder round)
    then Engine.Transmit Payload
    else Engine.Listen
  in
  let deliver ~round:_ ~node reception =
    match reception with
    | Engine.Received Payload ->
        if not has.(node) then begin
          has.(node) <- true;
          decr missing
        end
    | Engine.Silence | Engine.Collision -> ()
  in
  Printf.printf "Decay broadcast on a 5-node path (0-1-2-3-4), source 0.\n";
  Printf.printf "phase ladder length = %d (transmit w.p. 2^-(1 + round mod %d))\n\n"
    ladder ladder;
  let on_round ~round events =
    let holders =
      String.concat ""
        (List.init n (fun v -> if has.(v) then string_of_int v else "."))
    in
    let show = function
      | Engine.Ev_transmit { node; msg = Payload } ->
          Some (Printf.sprintf "%d!" node)
      | Engine.Ev_receive { node; reception = Engine.Received _ } ->
          Some (Printf.sprintf "%d<-msg" node)
      | Engine.Ev_receive { node; reception = Engine.Collision } ->
          Some (Printf.sprintf "%d<-TOP" node)
      | Engine.Ev_receive { reception = Engine.Silence; _ } -> None
    in
    let line = List.filter_map show events in
    if line <> [] then
      Printf.printf "round %3d  holders=%s  %s\n" round holders
        (String.concat "  " line)
  in
  let outcome =
    Engine.run ~on_round ~graph ~detection:Engine.No_collision_detection
      ~protocol:{ Engine.decide; deliver }
      ~stop:(fun ~round:_ -> !missing = 0)
      ~max_rounds:500 ()
  in
  Printf.printf "\nall nodes reached after %d rounds\n"
    (Engine.rounds_of_outcome outcome);

  (* The same network with collision detection: show ⊤ during a forced
     clash, the primitive behind the collision wave of §2.3. *)
  Printf.printf "\nForced clash with collision detection (nodes 0 and 2 transmit):\n";
  let decide ~round:_ ~node =
    if node = 0 || node = 2 then Engine.Transmit Payload else Engine.Listen
  in
  let deliver ~round:_ ~node:_ _ = () in
  ignore
    (Engine.run
       ~on_round:(fun ~round:_ events ->
         List.iter
           (function
             | Engine.Ev_receive { node; reception = Engine.Collision } ->
                 Printf.printf "  node %d hears the collision symbol (TOP)\n" node
             | Engine.Ev_receive { node; reception = Engine.Received _ } ->
                 Printf.printf "  node %d receives cleanly\n" node
             | Engine.Ev_receive { node; reception = Engine.Silence } ->
                 Printf.printf "  node %d hears silence\n" node
             | Engine.Ev_transmit _ -> ())
           events)
       ~graph ~detection:Engine.Collision_detection
       ~protocol:{ Engine.decide; deliver }
       ~stop:(fun ~round -> round >= 1)
       ~max_rounds:1 ())
