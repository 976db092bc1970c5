open Rn_util
open Rn_graph
open Rn_radio

type multi_result = {
  rounds : int;
  delivered : bool;
  complete_round : int array;
  stats : Engine.stats;
}

type routing_msg = Plain of int

let routing_multi ?(params = Params.default) ~rng ~graph ~source ~k () =
  let n = Graph.n graph in
  if k < 1 then invalid_arg "Baselines.routing_multi";
  let ladder = Params.phase_len ~n in
  let max_rounds = params.Params.max_round_factor * (n + k) * ladder * 4 in
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
      if Rng.coin_pow2 node_rng.(node) (Decay.exponent ~ladder round) then begin
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
