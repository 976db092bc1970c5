open Rn_util
open Rn_graph
open Rn_radio

let decay_broadcast ?(params = Params.default) ?metrics ~rng ~graph ~source () =
  Decay.broadcast ~params ?metrics ~rng ~graph ~source ()

let cr_broadcast ?(params = Params.default) ?metrics ?engine ~rng ~graph
    ~source ~diameter () =
  let n = Graph.n graph in
  if source < 0 || source >= n then invalid_arg "Baselines.cr_broadcast";
  let full = Params.phase_len ~n in
  let short = min full (Decay.cr_ladder ~n ~diameter) in
  (* Cycle: three truncated phases (fast progress at per-layer degrees
     <= n/D) then one full phase (resolves dense neighborhoods). *)
  let cycle = (3 * short) + full in
  let exponent round =
    let r = round mod cycle in
    if r < 3 * short then (r mod short) + 1 else r - (3 * short) + 1
  in
  let max_rounds = params.Params.max_round_factor * (n + 1) * full in
  let node_rng = Rng.split_n rng n in
  let received_round = Array.make n (-1) in
  received_round.(source) <- 0;
  let missing = Atomic.make (n - 1) in
  let decide ~round ~node =
    if received_round.(node) >= 0 then begin
      if Rng.coin_pow2 node_rng.(node) (exponent round) then
        Engine.Transmit Cmsg.Probe
      else Engine.Listen
    end
    else Engine.Listen
  in
  let deliver ~round ~node reception =
    match reception with
    | Engine.Received Cmsg.Probe ->
        if received_round.(node) < 0 then begin
          received_round.(node) <- round;
          Atomic.decr missing
        end
    | Engine.Received _ | Engine.Silence | Engine.Collision -> ()
  in
  let stats = Engine.fresh_stats () in
  (* Phase annotation: one full short³+full cycle per phase id. *)
  let after_round =
    match metrics with
    | None -> None
    | Some m ->
        Rn_obs.Phase.enter m 0;
        Some
          (fun ~round -> Rn_obs.Phase.enter_of_round m ~len:cycle ~round:(round + 1))
  in
  (* No active set or hint: every node may receive in any round, and the
     holders' probability ladder draws a coin every round. *)
  let outcome =
    Drive.run ?engine ?metrics ?after_round ~stats ~graph
      ~detection:Engine.No_collision_detection
      ~protocol:{ Engine.decide; deliver }
      ~stop:(fun ~round:_ -> Atomic.get missing = 0)
      ~max_rounds ()
  in
  (match metrics with
  | None -> ()
  | Some m ->
      for v = 0 to n - 1 do
        if v <> source then Rn_obs.Metrics.observe_receive_round m received_round.(v)
      done);
  { Decay.outcome; received_round; stats }

type multi_result = {
  rounds : int;
  delivered : bool;
  complete_round : int array;
  stats : Engine.stats;
}

type routing_msg = Plain of int

let routing_multi ?(params = Params.default) ?max_rounds ~rng ~graph ~source
    ~k () =
  let n = Graph.n graph in
  if k < 1 then invalid_arg "Baselines.routing_multi";
  let ladder = Params.phase_len ~n in
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None -> params.Params.max_round_factor * (n + k) * ladder * 4
  in
  let node_rng = Rng.split_n rng n in
  let has = Array.make_matrix n k false in
  let count = Array.make n 0 in
  for i = 0 to k - 1 do
    has.(source).(i) <- true
  done;
  count.(source) <- k;
  let complete_round = Array.make n (-1) in
  complete_round.(source) <- 0;
  let missing = Atomic.make (n - 1) in
  let decide ~round ~node =
    if count.(node) = 0 then Engine.Listen
    else begin
      if Rng.coin_pow2 node_rng.(node) ((round mod ladder) + 1) then begin
        (* Uniform choice among held messages: the classic store-and-forward
           forwarding rule. *)
        let pick = Rng.int node_rng.(node) count.(node) in
        let rec find i seen =
          if has.(node).(i) then
            if seen = pick then i else find (i + 1) (seen + 1)
          else find (i + 1) seen
        in
        Engine.Transmit (Plain (find 0 0))
      end
      else Engine.Listen
    end
  in
  let deliver ~round ~node reception =
    match reception with
    | Engine.Received (Plain i) ->
        if not has.(node).(i) then begin
          has.(node).(i) <- true;
          count.(node) <- count.(node) + 1;
          if count.(node) = k then begin
            complete_round.(node) <- round;
            Atomic.decr missing
          end
        end
    | Engine.Silence | Engine.Collision -> ()
  in
  let stats = Engine.fresh_stats () in
  let outcome =
    Drive.run ~stats ~graph
      ~detection:Engine.No_collision_detection
      ~protocol:{ Engine.decide; deliver }
      ~stop:(fun ~round:_ -> Atomic.get missing = 0)
      ~max_rounds ()
  in
  {
    rounds = Engine.rounds_of_outcome outcome;
    delivered = (match outcome with Engine.Completed _ -> true | _ -> false);
    complete_round;
    stats;
  }

let sequential_multi ?(params = Params.default) ~rng ~graph ~source ~k () =
  if k < 1 then invalid_arg "Baselines.sequential_multi";
  let n = Graph.n graph in
  let stats = Engine.fresh_stats () in
  let complete_round = Array.make n (-1) in
  let rec go i offset delivered =
    if i >= k then (offset, delivered)
    else begin
      let r = Decay.broadcast ~params ~rng:(Rng.split rng) ~graph ~source () in
      let rounds = Engine.rounds_of_outcome r.Decay.outcome in
      stats.Engine.rounds <- stats.Engine.rounds + r.Decay.stats.Engine.rounds;
      stats.Engine.transmissions <-
        stats.Engine.transmissions + r.Decay.stats.Engine.transmissions;
      stats.Engine.deliveries <-
        stats.Engine.deliveries + r.Decay.stats.Engine.deliveries;
      stats.Engine.collisions <-
        stats.Engine.collisions + r.Decay.stats.Engine.collisions;
      stats.Engine.busy_rounds <-
        stats.Engine.busy_rounds + r.Decay.stats.Engine.busy_rounds;
      let ok =
        match r.Decay.outcome with
        | Engine.Completed _ -> true
        | Engine.Out_of_budget _ -> false
      in
      if i = k - 1 then
        Array.iteri
          (fun v rr -> if rr >= 0 then complete_round.(v) <- offset + rr)
          r.Decay.received_round;
      go (i + 1) (offset + rounds) (delivered && ok)
    end
  in
  let total, delivered = go 0 0 true in
  { rounds = total; delivered; complete_round; stats }
