open Rn_util
open Rn_graph
open Rn_radio

type mode = Sequential | Pipelined

type layering_spec =
  | Decay_layering
  | Collision_wave_layering
  | Given_layering of int array

type result = {
  gst : Gst.t;
  parent_rank : int array;
  vd : int array;
  layering_rounds : int;
  assignment_rounds : int;
  selftest_rounds : int;
  vd_rounds : int;
  total_rounds : int;
  class_fixups : int;
  fallback_reactivations : int;
}

(* ------------------------------------------------------------------ *)
(* Phase 2: level-pair assignments *)

let run_assignment ?engine ~mode ~params ~detection ~rng ~graph ~levels
    ~level_nodes () =
  let n = Graph.n graph in
  let scale_n = n in
  let depth = Array.length level_nodes - 1 in
  let parents = Array.make n (-1) in
  let ranks = Array.make n 0 in
  let parent_rank = Array.make n (-1) in
  if depth <= 0 then begin
    (* No level pairs: every root is a leaf. *)
    Array.iteri (fun v l -> if l = 0 then ranks.(v) <- 1) levels;
    (parents, ranks, parent_rank, 0, 0, 0)
  end
  else begin
    let at_level l = level_nodes.(l) in
    (* Every block shares one node -> index-within-level map. *)
    let pos = Array.make n (-1) in
    Array.iter (Array.iteri (fun i v -> pos.(v) <- i)) level_nodes;
    (* Deepest level: all leaves. *)
    Array.iter (fun v -> ranks.(v) <- 1) (at_level depth);
    let leaf_inited = Array.make (depth + 1) false in
    leaf_inited.(depth) <- true;
    let blocks = Array.make (depth + 1) None in
    let block l = match blocks.(l) with Some b -> b | None -> assert false in
    let finished_pair l = Bipartite_assignment.finished (block l) in
    let leaf_init l =
      if not leaf_inited.(l) then begin
        Array.iter (fun v -> if ranks.(v) = 0 then ranks.(v) <- 1) (at_level l);
        leaf_inited.(l) <- true
      end
    in
    let ready_for l ~rank =
      if l = depth then true
      else begin
        let below = block (l + 1) in
        let fin = Bipartite_assignment.finished below in
        (* Leaf ranks at level [l] become final the moment pair [l+1] is
           done; install them lazily before our rank-1 phase starts. *)
        if fin then leaf_init l;
        fin || Bipartite_assignment.current_rank below < rank - 1
      end
    in
    for l = 1 to depth do
      blocks.(l) <-
        Some
          (Bipartite_assignment.create ~rng:(Rng.split rng) ~params ~scale_n
             ~graph ~reds:(at_level (l - 1)) ~blues:(at_level l) ~pos ~parents
             ~ranks ~parent_rank ~ready:(ready_for l) ())
    done;
    let current = ref depth (* sequential cursor *) in
    let all_done () =
      let rec go l = l < 1 || (finished_pair l && go (l - 1)) in
      go depth
    in
    let owner_block ~round ~node =
      let l = levels.(node) in
      if l < 0 then None
      else
        match mode with
        | Sequential ->
            let c = !current in
            if (l = c || l = c - 1) && not (finished_pair c) then Some (block c)
            else None
        | Pipelined ->
            let slot = round mod 3 in
            if l >= 1 && l <= depth && l mod 3 = slot && not (finished_pair l)
            then Some (block l)
            else if
              l + 1 >= 1
              && l + 1 <= depth
              && (l + 1) mod 3 = slot
              && not (finished_pair (l + 1))
            then Some (block (l + 1))
            else None
    in
    let decide ~round ~node =
      match owner_block ~round ~node with
      | Some b -> Bipartite_assignment.decide b ~node
      | None -> Engine.Sleep
    in
    let deliver ~round ~node reception =
      match owner_block ~round ~node with
      | Some b -> Bipartite_assignment.deliver b ~node reception
      | None -> ()
    in
    let after_round ~round =
      match mode with
      | Sequential ->
          let c = !current in
          if not (finished_pair c) then Bipartite_assignment.advance (block c);
          while !current > 1 && finished_pair !current do
            leaf_init (!current - 1);
            decr current
          done
      | Pipelined ->
          let slot = round mod 3 in
          for l = 1 to depth do
            if l mod 3 = slot && not (finished_pair l) then
              Bipartite_assignment.advance (block l)
          done
    in
    let ladder = Ilog.clog (max 2 scale_n) in
    let max_rounds =
      params.Params.max_round_factor * ((depth + 2) * Ilog.pow ladder 5)
      + 10_000
    in
    (* Frontier: the awake set of a round is the actors
       ([Bipartite_assignment.awake]) of the blocks in the round's slot.
       A [Waiting] (gated by [ready_for]) or [Done] block has none: it
       returns a side-effect-free [Sleep] for every node it owns.  Blocks
       change stage only inside [advance]/[settle] (after_round), never
       in decide, so the actors read at round start are those of the
       whole round.  The recruiting parts also leave out listeners whose
       deliveries are no-ops, so this run must not forward
       [?stats]/[?metrics]. *)
    let dormant l =
      let b = block l in
      Bipartite_assignment.finished b || Bipartite_assignment.waiting b
    in
    let first_of_slot slot = if slot = 0 then 3 else slot in
    let rec put_slot l buf k =
      if l > depth then k
      else put_slot (l + 3) buf (Bipartite_assignment.awake (block l) buf k)
    in
    let decide_active ~round (buf : int array) =
      match mode with
      | Sequential -> Bipartite_assignment.awake (block !current) buf 0
      | Pipelined -> put_slot (first_of_slot (round mod 3)) buf 0
    in
    (* Skip hint, re-queried every round so it only ever promises rounds
       whose silence follows from *current* machine state: a slot with no
       live block is silent this round; a slot whose blocks are all
       finished stays silent forever (finishing is monotone), letting the
       endgame fast-forward to the last live slot's rounds.  Dormant
       blocks may wake in after_round, so those promises stop at one
       round. *)
    let slot_live s =
      let rec go l = l <= depth && ((l mod 3 = s && not (dormant l)) || go (l + 1)) in
      go (first_of_slot s)
    in
    let slot_dead s =
      let rec go l =
        l > depth || ((l mod 3 <> s || finished_pair l) && go (l + 1))
      in
      go (first_of_slot s)
    in
    let next_busy_round ~round =
      match mode with
      | Sequential -> if dormant !current then round + 1 else round
      | Pipelined ->
          if slot_live (round mod 3) then round
          else if not (slot_dead (round mod 3)) then round + 1
          else if slot_live ((round + 1) mod 3) || not (slot_dead ((round + 1) mod 3))
          then round + 1
          else if slot_live ((round + 2) mod 3) || not (slot_dead ((round + 2) mod 3))
          then round + 2
          else round + 3 (* every block finished; stop fires first *)
    in
    let protocol = { Engine.decide; deliver } in
    let stop ~round:_ = all_done () in
    (* The blocks run Recruiting's deliver, which writes across nodes:
       never sharded. *)
    let outcome =
      Drive.run
        ?engine:(Option.map Drive.serial engine)
        ~decide_active ~next_busy_round ~graph ~detection ~protocol
        ~after_round ~stop ~max_rounds ()
    in
    let rounds =
      match outcome with
      | Engine.Completed r -> r
      | Engine.Out_of_budget _ ->
          failwith "Gst_distributed: assignment phase exhausted its budget"
    in
    leaf_init 0;
    let fixups =
      Array.fold_left
        (fun acc b ->
          match b with
          | Some b -> acc + Bipartite_assignment.class_fixups b
          | None -> acc)
        0 blocks
    in
    let fallbacks =
      Array.fold_left
        (fun acc b ->
          match b with
          | Some b -> acc + Bipartite_assignment.fallback_reactivations b
          | None -> acc)
        0 blocks
    in
    (parents, ranks, parent_rank, rounds, fixups, fallbacks)
  end

(* ------------------------------------------------------------------ *)
(* Phase 3: wave-safety self-test *)

let run_selftest ?engine ~detection ~graph ~levels ~parents ~ranks () =
  let n = Graph.n graph in
  let max_rank = Array.fold_left max 0 ranks in
  let safe = Array.make n true in
  let listens = Array.make n false in
  (* Round s: rank s/3 + 1, transmitter layer class s mod 3. *)
  let total = 3 * max_rank in
  let decide ~round ~node =
    let r = (round / 3) + 1 and c = round mod 3 in
    let l = levels.(node) in
    if l < 0 || ranks.(node) <> r then Engine.Sleep
    else if l mod 3 = c then
      Engine.Transmit (Cmsg.Marked { red = node; rank = r })
    else begin
      let p = parents.(node) in
      if p >= 0 && ranks.(p) = r && (l - 1) mod 3 = c then begin
        listens.(node) <- true;
        Engine.Listen
      end
      else Engine.Sleep
    end
  in
  let deliver ~round:_ ~node reception =
    (* The parent certainly transmitted, so anything but a clean reception
       of exactly the parent betrays a same-rank contender. *)
    match reception with
    | Engine.Received (Cmsg.Marked { red; rank = _ }) ->
        if red <> parents.(node) then safe.(node) <- false
    | Engine.Received _ | Engine.Silence | Engine.Collision ->
        safe.(node) <- false
  in
  (* rblint:allow R11 Silence-means-unsafe is this protocol's semantics; the rank/class schedule guarantees every listener has a transmitting parent in-neighborhood, so no genuinely silent round ever reaches a listener (see the sparse-path comment below). *)
  let protocol = { Engine.decide; deliver } in
  let stop ~round:_ = false in
  (* Only rank-r nodes act in the three rounds of rank r; group ids by
     rank once.  A listener's parent shares its rank and transmits in the
     same round (level class l−1), so every listener is inside a
     transmitter's neighborhood — the Silence-means-unsafe deliver never
     fires on an untouched listener, making the sparse path safe even
     though this deliver is *not* silence-neutral.  Rounds whose
     (rank, class) slice holds no node have no transmitters and therefore
     no listeners either (a listener's parent would populate the slice),
     so they can be fast-forwarded from a static table. *)
  let rank_nodes =
    Bfs.by_level
      (Array.mapi
         (fun v l -> if l >= 0 && ranks.(v) >= 1 then ranks.(v) else -1)
         levels)
  in
  let slice_count = Array.make (max (3 * (max_rank + 1)) 1) 0 in
  Array.iteri
    (fun v l ->
      if l >= 0 && ranks.(v) >= 1 then begin
        let i = (3 * ranks.(v)) + (l mod 3) in
        slice_count.(i) <- slice_count.(i) + 1
      end)
    levels;
  let decide_active ~round (buf : int array) =
    let nodes = rank_nodes.((round / 3) + 1) in
    Array.blit nodes 0 buf 0 (Array.length nodes);
    Array.length nodes
  in
  let next_busy_round ~round =
    let rec go r =
      if r >= total then total
      else if slice_count.((3 * ((r / 3) + 1)) + (r mod 3)) > 0 then r
      else go (r + 1)
    in
    go round
  in
  let outcome =
    Drive.run ?engine ~decide_active ~next_busy_round ~graph ~detection
      ~protocol ~stop ~max_rounds:total ()
  in
  let head_override = Array.init n (fun v -> listens.(v) && not safe.(v)) in
  (head_override, Engine.rounds_of_outcome outcome)

(* ------------------------------------------------------------------ *)
(* Phase 4: virtual-distance learning (Lemma 3.10) *)

let run_vd ?engine ~params ~detection ~rng ~graph ~levels ~level_nodes
    ~parents ~ranks ~parent_rank ~head_override () =
  let n = Graph.n graph in
  let scale_n = n in
  let ladder = Params.phase_len ~n:scale_n in
  let depth = Array.length level_nodes - 1 in
  let max_rank = Array.fold_left max 0 ranks in
  let vd = Array.make n (-1) in
  Array.iteri
    (fun v l -> if l = 0 && ranks.(v) > 0 then vd.(v) <- 0)
    levels;
  let in_forest v = levels.(v) >= 0 && ranks.(v) > 0 in
  let is_head v =
    in_forest v
    && (parents.(v) < 0 || head_override.(v) || parent_rank.(v) <> ranks.(v))
  in
  let unlabeled_remain () =
    let rec go v = v < n && ((in_forest v && vd.(v) < 0) || go (v + 1)) in
    go 0
  in
  let node_rng = Rng.split_n rng n in
  let total_rounds = ref 0 in
  (* One d-iteration: stretch sweeps for every rank, then Decay
     relaxation.  [swept] marks nodes labeled d+1 by the current sweep so
     epoch 2 only cascades fresh labels. *)
  let d = ref 0 in
  let iter_cap = (3 * ladder) + n in
  let run_phase ?decide_active ?next_busy_round ~decide ~deliver ~stop
      ~max_rounds () =
    let protocol = { Engine.decide; deliver } in
    let outcome =
      Drive.run ?engine ?decide_active ?next_busy_round ~graph ~detection
        ~protocol ~stop ~max_rounds ()
    in
    total_rounds := !total_rounds + Engine.rounds_of_outcome outcome
  in
  (* Stage-1 sweeps wake only a moving level pair; stage 2 wakes the
     forest nodes still relevant to the current distance.  Both reuse
     these buffers, as does every sweep's [sweep_hit]. *)
  let depth_cap = depth + 2 in
  let cand = Array.make (max n 1) 0 in
  let sweep_hit = Array.make n false in
  while unlabeled_remain () && !d <= iter_cap do
    let dv = !d in
    (* Stage 1: label whole stretches hanging off F_dv, rank by rank. *)
    for r = 1 to max_rank do
      let heads_exist =
        let rec go v =
          v < n
          && ((is_head v && vd.(v) = dv && ranks.(v) = r) || go (v + 1))
        in
        go 0
      in
      if heads_exist || not params.Params.adaptive then begin
        (* Epoch 1 then epoch 2, each a D-round layer sweep. *)
        let epoch_len = depth + 1 in
        Array.fill sweep_hit 0 n false;
        (* Per-level transmitter potential for the skip hint: epoch-0
           counts (qualifying heads per level) are static for the phase;
           epoch-1 counts grow as the sweep labels nodes (bumped in
           deliver).  A round with zero potential transmitters delivers
           nothing, so it creates no new potential either — promising its
           silence from counts read at round start is sound.  Lanes of a
           sharded run may bump the same level's count concurrently; only
           the hint reads it, and Drive.run drops the hint under Sharded. *)
        let head_count = Array.make depth_cap 0 in
        Array.iteri
          (fun v l ->
            if l >= 0 && is_head v && vd.(v) = dv && ranks.(v) = r then
              head_count.(l) <- head_count.(l) + 1)
          levels;
        let sweep_count = Array.make depth_cap 0 in
        let decide ~round ~node =
          let epoch = round / epoch_len and l = round mod epoch_len in
          if not (in_forest node) then Engine.Sleep
          else if
            levels.(node) = l && ranks.(node) = r
            && ((epoch = 0 && is_head node && vd.(node) = dv)
               || (epoch = 1 && sweep_hit.(node)))
          then Engine.Transmit (Cmsg.Vd_label { from_node = node; vd = dv })
          else if
            levels.(node) = l + 1
            && ranks.(node) = r
            && vd.(node) < 0
            && (not (is_head node))
            && parents.(node) >= 0
          then Engine.Listen
          else Engine.Sleep
        in
        let deliver ~round:_ ~node reception =
          match reception with
          | Engine.Received (Cmsg.Vd_label { from_node; vd = _ })
            when from_node = parents.(node) && vd.(node) < 0 ->
              vd.(node) <- dv + 1;
              sweep_hit.(node) <- true;
              sweep_count.(levels.(node)) <- sweep_count.(levels.(node)) + 1
          | Engine.Received _ | Engine.Silence | Engine.Collision -> ()
        in
        let decide_active ~round (buf : int array) =
          let l = round mod epoch_len in
          let k = ref 0 in
          let put lv =
            if lv <= depth then begin
              let nodes = level_nodes.(lv) in
              let len = Array.length nodes in
              Array.blit nodes 0 buf !k len;
              k := !k + len
            end
          in
          put l;
          put (l + 1);
          !k
        in
        let busy m =
          if m < epoch_len then head_count.(m) > 0
          else sweep_count.(m - epoch_len) > 0
        in
        let max_rounds = 2 * epoch_len in
        let next_busy_round ~round =
          let rec go m = if m >= max_rounds || busy m then m else go (m + 1) in
          go round
        in
        run_phase ~decide_active ~next_busy_round ~decide ~deliver
          ~stop:(fun ~round:_ -> false)
          ~max_rounds ()
      end
    done;
    (* Stage 2: Decay relaxation across ordinary G-edges. *)
    let budget = Params.whp_phases params ~n:scale_n * ladder in
    let settled v =
      (not (in_forest v))
      || vd.(v) >= 0
      || not
           (Graph.fold_neighbors graph v
              (fun acc u -> acc || (in_forest u && vd.(u) = dv))
              false)
    in
    let goal () =
      let rec go v = v >= n || (settled v && go (v + 1)) in
      go 0
    in
    let decide ~round ~node =
      if in_forest node && vd.(node) = dv then begin
        if Rng.coin_pow2 node_rng.(node) ((round mod ladder) + 1) then
          Engine.Transmit (Cmsg.Vd_label { from_node = node; vd = dv })
        else Engine.Listen
      end
      else if in_forest node && vd.(node) < 0 then Engine.Listen
      else Engine.Sleep
    in
    let deliver ~round:_ ~node reception =
      match reception with
      | Engine.Received (Cmsg.Vd_label _) when vd.(node) < 0 ->
          vd.(node) <- dv + 1
      | Engine.Received _ | Engine.Silence | Engine.Collision -> ()
    in
    (* Awake set for the whole relaxation: frontier nodes (vd = dv) and
       the still-unlabeled (vd < 0).  A node labeled dv+1 mid-phase stays
       in the buffer but its decide is a side-effect-free Sleep.  No skip
       hint: frontier nodes draw a coin every round. *)
    let n_cand = ref 0 in
    for v = 0 to n - 1 do
      if in_forest v && (vd.(v) = dv || vd.(v) < 0) then begin
        cand.(!n_cand) <- v;
        incr n_cand
      end
    done;
    let stage2_cand = !n_cand in
    let decide_active ~round:_ (buf : int array) =
      Array.blit cand 0 buf 0 stage2_cand;
      stage2_cand
    in
    run_phase ~decide_active ~decide ~deliver
      ~stop:(fun ~round ->
        params.Params.adaptive && round mod ladder = 0 && goal ())
      ~max_rounds:budget ();
    incr d
  done;
  if unlabeled_remain () then
    failwith "Gst_distributed: virtual-distance learning did not converge";
  (vd, !total_rounds)

(* ------------------------------------------------------------------ *)

let construct ?(mode = Pipelined) ?(layering = Decay_layering)
    ?(learn_vd = false) ?(params = Params.default)
    ?(detection = Engine.No_collision_detection) ?engine ~rng ~graph ~roots
    () =
  let n = Graph.n graph in
  let levels, layering_rounds =
    match layering with
    | Given_layering levels ->
        if Array.length levels <> n then
          invalid_arg "Gst_distributed.construct: levels length";
        (levels, 0)
    | Decay_layering ->
        let r =
          Layering.decay_bfs ~params ?engine ~rng:(Rng.split rng) ~graph
            ~sources:roots ()
        in
        (r.Layering.levels, r.Layering.rounds)
    | Collision_wave_layering ->
        (* Deterministic and front-only (each node beeps once, in the
           round of its level), so it always runs on the default engine,
           where it costs the front per round rather than n. *)
        let r = Layering.collision_wave ~graph ~sources:roots () in
        (r.Layering.levels, r.Layering.rounds)
  in
  let level_nodes = Bfs.by_level levels in
  let parents, ranks, parent_rank, assignment_rounds, class_fixups,
      fallback_reactivations =
    run_assignment ?engine ~mode ~params ~detection ~rng ~graph ~levels
      ~level_nodes ()
  in
  let head_override, selftest_rounds =
    run_selftest ?engine ~detection ~graph ~levels ~parents ~ranks ()
  in
  let vd, vd_rounds =
    if learn_vd then
      run_vd ?engine ~params ~detection ~rng ~graph ~levels ~level_nodes
        ~parents ~ranks ~parent_rank ~head_override ()
    else (Array.make n (-1), 0)
  in
  let gst = Gst.make ~graph ~levels ~parents ~ranks ~head_override () in
  {
    gst;
    parent_rank;
    vd;
    layering_rounds;
    assignment_rounds;
    selftest_rounds;
    vd_rounds;
    total_rounds = layering_rounds + assignment_rounds + selftest_rounds + vd_rounds;
    class_fixups;
    fallback_reactivations;
  }
