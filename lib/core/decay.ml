open Rn_util
open Rn_graph
open Rn_radio

let exponent ~ladder r = (r mod ladder) + 1

let mmv_exponent ~ladder step = ((step mod ladder) + ladder) mod ladder

type result = {
  outcome : Engine.outcome;
  received_round : int array;
  stats : Engine.stats;
}

type msg = Payload | Noise

let cr_ladder ~n ~diameter =
  if n < 1 || diameter < 0 then invalid_arg "Decay.cr_ladder";
  let ratio = max 2 (Ilog.cdiv n (max 1 diameter)) in
  Ilog.clog ratio + 1

let broadcast ?(params = Params.default) ?diameter ?faults ?metrics ~rng ~graph
    ~source () =
  let n = Graph.n graph in
  if source < 0 || source >= n then invalid_arg "Decay.broadcast: bad source";
  let full = Params.phase_len ~n in
  (* The exponent cycle: three truncated phases 1 … [short] ([truncated]
     rounds; fast progress at per-layer degrees <= n/D), then one full
     phase 1 … [full] (resolves dense neighborhoods).  Classic Decay is
     the cycle with no truncated part. *)
  let short, truncated =
    match diameter with
    | None -> (full, 0)
    | Some diameter ->
        let short = min full (cr_ladder ~n ~diameter) in
        (short, 3 * short)
  in
  let cycle = truncated + full in
  let max_rounds = params.Params.max_round_factor * (n + 1) * full in
  let node_rng = Rng.split_n rng n in
  let received_round = Array.make n (-1) in
  received_round.(source) <- 0;
  (* The only cross-node aggregate: each node's [deliver] decrements it
     once, on first reception.  It is an [Atomic.t], the shared-aggregate
     form R12 accepts without an allow (DESIGN.md §13); everything else
     the callbacks touch is per-node (own RNG stream, own received_round
     cell). *)
  let missing = Atomic.make (n - 1) in
  let cycle_exponent round =
    let r = round mod cycle in
    if r < truncated then exponent ~ladder:short r
    else exponent ~ladder:full (r - truncated)
  in
  (* Every informed node draws on the same exponent in a round, so it is
     computed once per round rather than once per informed node:
     [round_exp] holds round r's exponent while round r decides, and
     [after_round] (called once per round under every engine, skipped
     rounds included) advances it. *)
  let round_exp = ref (cycle_exponent 0) in
  let decide ~round:_ ~node =
    if received_round.(node) >= 0 then
      if Rng.coin_pow2 node_rng.(node) !round_exp then Engine.Transmit Payload
      else Engine.Listen
    else Engine.Listen
  in
  let deliver ~round ~node reception =
    match reception with
    | Engine.Received Payload ->
        if received_round.(node) < 0 then begin
          received_round.(node) <- round;
          Atomic.decr missing
        end
    | Engine.Received Noise | Engine.Silence | Engine.Collision -> ()
  in
  let protocol = { Engine.decide; deliver } in
  let protocol =
    match faults with
    | None -> protocol
    | Some { Faults.jammers; p } ->
        Faults.with_jammers ~rng:(Rng.split rng) ~jammers ~p ~noise:Noise
          protocol
  in
  let stats = Engine.fresh_stats () in
  let stop ~round:_ = Atomic.get missing = 0 in
  (* Phase annotation runs in [after_round], which both engines call once
     per round, so per-phase aggregation does not move with the deliveries
     the sparse engine elides.  Round r belongs to phase r/cycle: Lemma
     2.2's unit for classic Decay, one whole schedule cycle with a
     diameter. *)
  (match metrics with Some m -> Rn_obs.Metrics.set_phase m 0 | None -> ());
  let after_round ~round =
    round_exp := cycle_exponent (round + 1);
    match metrics with
    | Some m -> Rn_obs.Metrics.set_phase m ((round + 1) / cycle)
    | None -> ()
  in
  (* An informed node draws its coin every round, so no round is
     statically silent; the sparse win is the elided silence deliveries
     and listener resets.  Decay's deliver ignores Silence, satisfying the
     sparse no-op contract. *)
  let outcome =
    Drive.run ~stats ?metrics ~after_round ~graph
      ~detection:Engine.No_collision_detection ~protocol ~stop ~max_rounds ()
  in
  (match metrics with
  | None -> ()
  | Some m ->
      (* First-receive histogram; the source holds the message from the
         start rather than receiving it, so it is excluded. *)
      for v = 0 to n - 1 do
        if v <> source then
          Rn_obs.Metrics.observe_receive_round m received_round.(v)
      done);
  { outcome; received_round; stats }

let mmv_broadcast ?(params = Params.default) ?(noising = true) ~rng ~graph
    ~levels ~source () =
  let n = Graph.n graph in
  if Array.length levels <> n then invalid_arg "Decay.mmv_broadcast: levels";
  let ladder = Params.phase_len ~n in
  let max_rounds = params.Params.max_round_factor * 3 * (n + 1) * ladder in
  let node_rng = Rng.split_n rng n in
  let received_round = Array.make n (-1) in
  received_round.(source) <- 0;
  let missing = Atomic.make (n - 1) in
  let decide ~round ~node =
    let l = levels.(node) in
    if l < 0 then Engine.Sleep
    else if round mod 3 = (l + 1) mod 3 then begin
      let step = (round - l - 1) / 3 in
      (* The paper's exponent is [step mod ⌈log n⌉] starting at 0; the
         probability-1 round (exponent 0) is what lets single-neighbor
         nodes receive deterministically. *)
      if Rng.coin_pow2 node_rng.(node) (mmv_exponent ~ladder step) then begin
        if received_round.(node) >= 0 then Engine.Transmit Payload
        else if noising then Engine.Transmit Noise
        else Engine.Listen
      end
      else Engine.Listen
    end
    else Engine.Listen
  in
  let deliver ~round ~node reception =
    match reception with
    | Engine.Received Payload ->
        if received_round.(node) < 0 then begin
          received_round.(node) <- round;
          Atomic.decr missing
        end
    | Engine.Received Noise | Engine.Silence | Engine.Collision -> ()
  in
  let stats = Engine.fresh_stats () in
  let outcome =
    Drive.run ~stats ~graph
      ~detection:Engine.No_collision_detection
      ~protocol:{ Engine.decide; deliver }
      ~stop:(fun ~round:_ -> Atomic.get missing = 0)
      ~max_rounds ()
  in
  { outcome; received_round; stats }
