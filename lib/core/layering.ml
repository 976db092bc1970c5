open Rn_util
open Rn_graph
open Rn_radio

type result = { levels : int array; rounds : int; stats : Engine.stats }

let decay_bfs ?(params = Params.default) ?max_rounds ?engine ~rng ~graph
    ~sources () =
  let n = Graph.n graph in
  let ladder = Params.phase_len ~n in
  let epoch_len = Params.whp_phases params ~n * ladder in
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None -> params.Params.max_round_factor * (n + 2) * epoch_len
  in
  let node_rng = Rng.split_n rng n in
  let levels = Array.make n (-1) in
  Array.iter (fun s -> levels.(s) <- 0) sources;
  let labeled = Atomic.make (Array.length sources) in
  (* Nodes labeled during epoch [e] have level [e + 1]; they join the
     relays from the next epoch on. *)
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
  let stats = Engine.fresh_stats () in
  let protocol = { Engine.decide; deliver } in
  let stop ~round = Atomic.get labeled = n && round mod epoch_len = 0 in
  (* finish on epoch boundary; no skip hint — labeled nodes draw a coin
     every round, so no round is statically silent. *)
  let outcome =
    Drive.run ?engine ~stats ~graph ~detection:Engine.No_collision_detection
      ~protocol ~stop ~max_rounds ()
  in
  { levels; rounds = Engine.rounds_of_outcome outcome; stats }

let collision_wave ?max_rounds ~graph ~sources () =
  let n = Graph.n graph in
  let max_rounds = match max_rounds with Some m -> m | None -> n + 1 in
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
  let stats = Engine.fresh_stats () in
  let outcome =
    Drive.run ~stats ~graph
      ~detection:Engine.Collision_detection
      ~protocol:{ Engine.decide; deliver }
      ~stop:(fun ~round:_ -> Atomic.get labeled = n)
      ~max_rounds ()
  in
  { levels; rounds = Engine.rounds_of_outcome outcome; stats }
