open Rn_util
open Rn_graph
open Rn_coding
open Rn_radio

type slow_key = By_virtual_distance | By_level

type result = {
  outcome : Engine.outcome;
  decode_round : int array;
  rounds : int;
  stats : Engine.stats;
  payloads_ok : bool;
}

let emod a m = ((a mod m) + m) mod m

let fast_slot ~clogn ~level ~rank ~round =
  round mod 2 = 0 && emod (round - (2 * (level + (3 * rank)))) (6 * clogn) = 0

let slow_slot ~level_or_vd ~round =
  round mod 2 = 1 && emod (round - 1 - (2 * level_or_vd)) 6 = 0

type msg = Data of Rlnc.packet

let run ?(slow_key = By_virtual_distance) ?step_reset ?faults
    ?(params = Params.default) ?metrics ~rng ~gst ~vd ~msgs ~sources () =
  let graph = gst.Gst.graph in
  let n = Graph.n graph in
  let k = Array.length msgs in
  if k = 0 then invalid_arg "Gst_broadcast.run: no messages";
  let msg_len = Bitvec.length msgs.(0) in
  let clogn = Params.phase_len ~n in
  let depth = Bfs.max_level gst.Gst.levels in
  let max_rounds =
    params.Params.max_round_factor
    * 6
    * (depth + (k * clogn) + (2 * clogn * clogn) + (6 * clogn))
  in
  let in_forest v = Gst.in_forest gst v in
  let slow_of v =
    match slow_key with
    | By_virtual_distance -> vd.(v)
    | By_level -> gst.Gst.levels.(v)
  in
  Array.iteri
    (fun v l ->
      if l >= 0 && (vd.(v) < 0 || gst.Gst.ranks.(v) < 1) then
        invalid_arg "Gst_broadcast.run: forest node lacks vd or rank")
    gst.Gst.levels;
  (* Only forest nodes draw, code or receive: every other node sleeps in
     every round, so it gets no stream or buffer of its own, and the one
     buffer those entries share is never read.  A source outside the
     forest never transmits, so it is not seeded. *)
  let members =
    let ids = Array.make (Gst.size gst) 0 and m = ref 0 in
    Array.iteri
      (fun v l ->
        if l >= 0 then begin
          ids.(!m) <- v;
          incr m
        end)
      gst.Gst.levels;
    ids
  in
  let node_rng = Rng.split_members rng n members in
  let buf = Array.make n (Rlnc.create ~k ~msg_len) in
  Array.iter (fun v -> buf.(v) <- Rlnc.create ~k ~msg_len) members;
  Array.iter
    (fun s -> if in_forest s then Rlnc.seed_with_sources buf.(s) ~msgs)
    sources;
  let decode_round = Array.make n (-1) in
  let missing = Atomic.make 0 in
  Array.iteri
    (fun v l ->
      if l >= 0 then
        if Rlnc.can_decode buf.(v) then decode_round.(v) <- 0
        else Atomic.incr missing)
    gst.Gst.levels;
  (* Relay buffer for the fast wave: packet received in an even round,
     stamped with that round. *)
  let last_fast : (int * Rlnc.packet) option array = Array.make n None in
  let empty_packet () =
    { Rlnc.coeffs = Bitvec.create k; payload = Bitvec.create msg_len }
  in
  (* An empty buffer transmits a vacuous packet: the "noise" of the MMV
     framework (Definition 3.1). *)
  let fresh_packet v =
    match Rlnc.encode node_rng.(v) buf.(v) with
    | Some p -> p
    | None -> empty_packet ()
  in
  let decide ~round ~node =
    if not (in_forest node) then Engine.Sleep
    else begin
      let l = gst.Gst.levels.(node) and r = gst.Gst.ranks.(node) in
      if fast_slot ~clogn ~level:l ~rank:r ~round then begin
        if Gst.is_stretch_head gst node then
          Engine.Transmit (Data (fresh_packet node))
        else
          (* Interior: relay the wave packet from the previous fast round
             (the parent's slot is exactly two rounds earlier). *)
          match last_fast.(node) with
          | Some (rcv, p) when rcv = round - 2 -> Engine.Transmit (Data p)
          | Some _ | None -> Engine.Transmit (Data (empty_packet ()))
      end
      else if slow_slot ~level_or_vd:(slow_of node) ~round then begin
        let step = (round - 1 - (2 * slow_of node)) / 6 in
        if Rng.coin_pow2 node_rng.(node) (Decay.mmv_exponent ~ladder:clogn step)
        then Engine.Transmit (Data (fresh_packet node))
        else Engine.Listen
      end
      else Engine.Listen
    end
  in
  let deliver ~round ~node reception =
    match reception with
    | Engine.Received (Data p) ->
        if round mod 2 = 0 then last_fast.(node) <- Some (round, p);
        (* A node that decodes holds a full-rank basis, which reduces any
           packet to zero: receiving would change nothing. *)
        if decode_round.(node) < 0 && not (Bitvec.is_zero p.Rlnc.coeffs)
        then begin
          ignore (Rlnc.receive buf.(node) p);
          if Rlnc.can_decode buf.(node) then begin
            decode_round.(node) <- round;
            Atomic.decr missing
          end
        end
    | Engine.Silence | Engine.Collision -> ()
  in
  let is_source = Array.make n false in
  Array.iter (fun s -> is_source.(s) <- true) sources;
  let after_round =
    match step_reset with
    | None -> None
    | Some step ->
        if step < 1 then invalid_arg "Gst_broadcast.run: step_reset";
        Some
          (fun ~round ->
            if (round + 1) mod step = 0 then
              for v = 0 to n - 1 do
                if
                  in_forest v && (not is_source.(v))
                  && not (Rlnc.can_decode buf.(v))
                then begin
                  buf.(v) <- Rlnc.create ~k ~msg_len;
                  last_fast.(v) <- None
                end
              done)
  in
  (* Phase annotation: the slow schedule repeats with period [6·clogn]
     (the Decay.mmv_exponent ladder completes one sweep), which is the natural
     "GST epoch".  Annotated from [after_round] (between rounds),
     composed before any [step_reset] action for the same round. *)
  let after_round =
    match metrics with
    | None -> after_round
    | Some m ->
        Rn_obs.Metrics.set_phase m 0;
        let epoch_len = 6 * clogn in
        let annotate ~round =
          Rn_obs.Metrics.set_phase m ((round + 1) / epoch_len)
        in
        Some
          (match after_round with
          | None -> annotate
          | Some g ->
              fun ~round ->
                annotate ~round;
                g ~round)
  in
  let protocol = { Engine.decide; deliver } in
  let protocol =
    match faults with
    | None -> protocol
    | Some { Faults.jammers; p } ->
        Faults.with_jammers ~rng:(Rng.split rng) ~jammers ~p
          ~noise:(Data (empty_packet ())) protocol
  in
  (* The awake set.  Nodes outside the forest sleep in every round, and a
     forest node acts only in its slots: the even residue
     [2·(level + 3·rank) mod 6·clogn] of its fast slot and the odd
     residue [(1 + 2·slow_of v) mod 6] of its slow slot.  In every other
     round its decide is a side-effect-free [Listen], so the forest is
     passive and each round decides only its slot bucket (ids ascending);
     the engine wakes a passive node as a listener when a neighbour
     transmits, and fast-forwards a round whose bucket is empty.

     Jammers transmit in arbitrary rounds (and override their decide even
     off-forest), so fault injection keeps the static set of forest plus
     jammers, all deciding every round. *)
  let decide_active, passive =
    match faults with
    | Some { Faults.jammers; _ } ->
        ( Drive.static_active ~n
            [ Array.of_seq (Seq.filter in_forest (Seq.init n Fun.id)); jammers ],
          None )
    | None ->
        let period = 6 * clogn in
        let keyed f =
          Bfs.by_level
            (Array.mapi
               (fun v l -> if l >= 0 then f v l else -1)
               gst.Gst.levels)
        in
        let fast =
          keyed (fun v l -> emod (2 * (l + (3 * gst.Gst.ranks.(v)))) period)
        and slow = keyed (fun v _ -> emod (1 + (2 * slow_of v)) 6) in
        let decide_active ~round buf =
          let b, i =
            if round mod 2 = 0 then (fast, round mod period)
            else (slow, round mod 6)
          in
          let b = if i < Array.length b then b.(i) else [||] in
          Array.blit b 0 buf 0 (Array.length b);
          Array.length b
        in
        (Some decide_active, Some (Array.init n in_forest))
  in
  let stats = Engine.fresh_stats () in
  let stop ~round:_ = Atomic.get missing = 0 in
  let outcome =
    Drive.run ?metrics ?after_round ?decide_active ?passive ~stats ~graph
      ~detection:Engine.No_collision_detection ~protocol ~stop ~max_rounds ()
  in
  let payloads_ok =
    let ok = ref true in
    Array.iteri
      (fun v dr ->
        if dr >= 0 then
          match Rlnc.decode buf.(v) with
          | Some out ->
              if not (Array.for_all2 Bitvec.equal out msgs) then ok := false
          | None -> ok := false)
      decode_round;
    !ok
  in
  {
    outcome;
    decode_round;
    rounds = Engine.rounds_of_outcome outcome;
    stats;
    payloads_ok;
  }
