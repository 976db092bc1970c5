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

let run_assignment ~mode ~params ~detection ~rng ~graph ~levels ~level_nodes
    () =
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
    let leaf_init l =
      if not leaf_inited.(l) then begin
        Array.iter (fun v -> if ranks.(v) = 0 then ranks.(v) <- 1) (at_level l);
        leaf_inited.(l) <- true
      end
    in
    (* Pair [l]'s finished flag and current rank, cached: a block changes
       stage only inside its own [advance], and [refresh] re-reads both
       right after every such call, so the caches always equal the
       blocks' own answers. *)
    let fin = Array.make (depth + 1) false in
    let rank_of = Array.make (depth + 1) 0 in
    let unfinished = ref depth in
    let ready_for l ~rank =
      if l = depth then true
      else begin
        let fin_below = fin.(l + 1) in
        (* Leaf ranks at level [l] become final the moment pair [l+1] is
           done; install them lazily before our rank-1 phase starts. *)
        if fin_below then leaf_init l;
        fin_below || rank_of.(l + 1) < rank - 1
      end
    in
    let blocks =
      Array.init depth (fun i ->
          let l = i + 1 in
          let b =
            Bipartite_assignment.create ~rng:(Rng.split rng) ~params ~scale_n
              ~graph ~reds:(at_level (l - 1)) ~blues:(at_level l) ~pos
              ~parents ~ranks ~parent_rank ~ready:(ready_for l) ()
          in
          rank_of.(l) <- Bipartite_assignment.current_rank b;
          b)
    in
    let block l = blocks.(l - 1) in
    (* Per-slot tick sets ([Pipelined]): [ticks.(s)] holds, in its first
       [n_ticks.(s)] cells, the pairs [≡ s (mod 3)] that a round of slot
       [s] advances — every live pair, plus each [Waiting] pair whose pair
       below changed its rank or finished since the [Waiting] pair last
       checked [ready_for] (nothing else can turn that check true).
       [queued.(l)] says whether pair [l] is in its set.  Every block
       starts [Waiting] and unchecked. *)
    let ticks = Array.init 3 (fun _ -> Array.make ((depth / 3) + 1) 0) in
    let n_ticks = Array.make 3 0 in
    let queued = Array.make (depth + 1) false in
    let enqueue l =
      if not queued.(l) then begin
        queued.(l) <- true;
        let s = l mod 3 in
        ticks.(s).(n_ticks.(s)) <- l;
        n_ticks.(s) <- n_ticks.(s) + 1
      end
    in
    for l = 1 to depth do
      enqueue l
    done;
    let refresh l =
      let b = block l in
      let f = Bipartite_assignment.finished b in
      let r = Bipartite_assignment.current_rank b in
      if f <> fin.(l) || r <> rank_of.(l) then begin
        if f then decr unfinished;
        fin.(l) <- f;
        rank_of.(l) <- r;
        if l > 1 && not fin.(l - 1) then enqueue (l - 1)
      end
    in
    let advance l =
      Bipartite_assignment.advance (block l);
      refresh l
    in
    let current = ref depth (* sequential cursor *) in
    (* The per-round control below runs on every decide, delivery and
       round, so it allocates nothing: owners are block levels (0 = none,
       since pairs start at 1) and the scans are closed recursions. *)
    let owner_level ~round ~node =
      let l = levels.(node) in
      if l < 0 then 0
      else
        match mode with
        | Sequential ->
            let c = !current in
            if (l = c || l = c - 1) && not fin.(c) then c else 0
        | Pipelined ->
            let slot = round mod 3 in
            if l >= 1 && l <= depth && l mod 3 = slot && not fin.(l) then l
            else if l + 1 <= depth && (l + 1) mod 3 = slot && not fin.(l + 1)
            then l + 1
            else 0
    in
    let decide ~round ~node =
      let l = owner_level ~round ~node in
      if l = 0 then Engine.Sleep else Bipartite_assignment.decide (block l) ~node
    in
    let deliver ~round ~node reception =
      let l = owner_level ~round ~node in
      if l > 0 then Bipartite_assignment.deliver (block l) ~node reception
    in
    (* Advance the tick set of slot [s] from cell [i] on, keeping in the
       first [kept] cells the pairs still live afterwards. *)
    let rec tick s i kept =
      if i >= n_ticks.(s) then n_ticks.(s) <- kept
      else begin
        let l = ticks.(s).(i) in
        advance l;
        if fin.(l) || Bipartite_assignment.waiting (block l) then begin
          queued.(l) <- false;
          tick s (i + 1) kept
        end
        else begin
          ticks.(s).(kept) <- l;
          tick s (i + 1) (kept + 1)
        end
      end
    in
    let after_round ~round =
      match mode with
      | Sequential ->
          let c = !current in
          if not fin.(c) then advance c;
          while !current > 1 && fin.(!current) do
            leaf_init (!current - 1);
            decr current
          done
      | Pipelined ->
          tick (round mod 3) 0 0
    in
    let ladder = Params.phase_len ~n:scale_n in
    let max_rounds =
      params.Params.max_round_factor * ((depth + 2) * Ilog.pow ladder 5)
      + 10_000
    in
    (* Frontier: the awake set of a round is the actors
       ([Bipartite_assignment.awake]) of the blocks in the round's tick
       set.  A pair outside it is [Waiting] or finished and returns a
       side-effect-free [Sleep] for every node it owns, as does a
       [Waiting] pair queued for a recheck.  Blocks change stage only
       inside [advance] (after_round), never in decide, so the actors read
       at round start are those of the whole round; a round in which no
       block of the set has actors (dormant, or a recruiting claim or
       verdict slot nobody acts in) is fast-forwarded.  The recruiting parts
       also leave out listeners whose deliveries are no-ops, so this run
       must not forward [?stats]/[?metrics]. *)
    let rec put_set set i stop buf k =
      if i >= stop then k
      else
        put_set set (i + 1) stop buf
          (Bipartite_assignment.awake (block set.(i)) buf k)
    in
    let decide_active ~round (buf : int array) =
      match mode with
      | Sequential -> Bipartite_assignment.awake (block !current) buf 0
      | Pipelined ->
          let s = round mod 3 in
          put_set ticks.(s) 0 n_ticks.(s) buf 0
    in
    let protocol = { Engine.decide; deliver } in
    let stop ~round:_ = !unfinished = 0 in
    let outcome =
      Drive.run ~decide_active ~graph ~detection ~protocol ~after_round ~stop
        ~max_rounds ()
    in
    let rounds =
      match outcome with
      | Engine.Completed r -> r
      | Engine.Out_of_budget _ ->
          failwith "Gst_distributed: assignment phase exhausted its budget"
    in
    leaf_init 0;
    let sum f = Array.fold_left (fun acc b -> acc + f b) 0 blocks in
    ( parents,
      ranks,
      parent_rank,
      rounds,
      sum Bipartite_assignment.class_fixups,
      sum Bipartite_assignment.fallback_reactivations )
  end

(* ------------------------------------------------------------------ *)
(* Phase 3: wave-safety self-test *)

let run_selftest ~detection ~graph ~levels ~parents ~ranks () =
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
     so they wake nobody and are fast-forwarded. *)
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
    if slice_count.((3 * ((round / 3) + 1)) + (round mod 3)) = 0 then 0
    else begin
      let nodes = rank_nodes.((round / 3) + 1) in
      Array.blit nodes 0 buf 0 (Array.length nodes);
      Array.length nodes
    end
  in
  let outcome =
    Drive.run ~decide_active ~graph ~detection ~protocol ~stop ~max_rounds:total
      ()
  in
  let head_override = Array.init n (fun v -> listens.(v) && not safe.(v)) in
  (head_override, Engine.rounds_of_outcome outcome)

(* ------------------------------------------------------------------ *)
(* Phase 4: virtual-distance learning (Lemma 3.10) *)

let run_vd ~params ~detection ~rng ~graph ~levels ~level_nodes ~parents ~ranks
    ~parent_rank ~head_override () =
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
  (* The forest's members, ascending: every scan below runs over them
     alone, so a stage costs the ring's forest, not the whole graph. *)
  let forest =
    let members = Array.make n 0 and m = ref 0 in
    for v = 0 to n - 1 do
      if in_forest v then begin
        members.(!m) <- v;
        incr m
      end
    done;
    Array.sub members 0 !m
  in
  let unlabeled_remain () = Array.exists (fun v -> vd.(v) < 0) forest in
  (* Only frontier nodes draw (stage 2), and they lie in the forest. *)
  let node_rng = Rng.split_members rng n forest in
  let total_rounds = ref 0 in
  (* One d-iteration: stretch sweeps for every rank, then Decay
     relaxation.  [swept] marks nodes labeled d+1 by the current sweep so
     epoch 2 only cascades fresh labels. *)
  let d = ref 0 in
  let iter_cap = (3 * ladder) + n in
  let run_phase ?decide_active ?passive ~decide ~deliver ~stop ~max_rounds () =
    let protocol = { Engine.decide; deliver } in
    let outcome =
      Drive.run ?decide_active ?passive ~graph ~detection ~protocol ~stop
        ~max_rounds ()
    in
    total_rounds := !total_rounds + Engine.rounds_of_outcome outcome
  in
  (* Stage-1 sweeps wake only a moving level pair; stage 2 wakes the
     frontier and leaves the unlabeled nodes passive.  Both reuse these
     buffers, as does every sweep's [sweep_hit]. *)
  let depth_cap = depth + 2 in
  let cand = Array.make (max n 1) 0 in
  let unlabeled = Array.make n false in
  let sweep_hit = Array.make n false in
  while unlabeled_remain () && !d <= iter_cap do
    let dv = !d in
    (* Stage 1: label whole stretches hanging off F_dv, rank by rank. *)
    let no_heads r =
      not
        (Array.exists (fun v -> is_head v && vd.(v) = dv && ranks.(v) = r) forest)
    in
    for r = 1 to max_rank do
      if not (Params.skip_stage params no_heads r) then begin
        (* Epoch 1 then epoch 2, each a D-round layer sweep. *)
        let epoch_len = depth + 1 in
        Array.iter (fun v -> sweep_hit.(v) <- false) forest;
        (* Per-level transmitter potential: epoch-0 counts (qualifying
           heads per level) are static for the phase; epoch-1 counts grow
           as the sweep labels nodes (bumped in deliver).  A round with
           zero potential transmitters wakes nobody: its decides would all
           be side-effect-free, and it creates no new potential either.
           The counts are cross-node tallies that only [decide_active]
           reads, and Drive.run drops the set under Dense. *)
        let head_count = Array.make depth_cap 0 in
        Array.iter
          (fun v ->
            if is_head v && vd.(v) = dv && ranks.(v) = r then begin
              let l = levels.(v) in
              head_count.(l) <- head_count.(l) + 1
            end)
          forest;
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
        let busy m =
          if m < epoch_len then head_count.(m) > 0
          else sweep_count.(m - epoch_len) > 0
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
          if busy round then begin
            put l;
            put (l + 1)
          end;
          !k
        in
        run_phase ~decide_active ~decide ~deliver
          ~stop:(fun ~round:_ -> false)
          ~max_rounds:(2 * epoch_len) ()
      end
    done;
    (* Stage 2: Decay relaxation across ordinary G-edges. *)
    let budget = Params.whp_rounds params ~n:scale_n in
    (* A forest node is settled once labeled or without a frontier
       neighbour; nodes outside the forest never take part. *)
    let settled v =
      vd.(v) >= 0
      || not
           (Graph.fold_neighbors graph v
              (fun acc u -> acc || (in_forest u && vd.(u) = dv))
              false)
    in
    let goal () = Array.for_all settled forest in
    let decide ~round ~node =
      if in_forest node && vd.(node) = dv then begin
        if Rng.coin_pow2 node_rng.(node) (Decay.exponent ~ladder round) then
          Engine.Transmit (Cmsg.Vd_label { from_node = node; vd = dv })
        else Engine.Listen
      end
      else if in_forest node && vd.(node) < 0 then Engine.Listen
      else Engine.Sleep
    in
    let deliver ~round:_ ~node reception =
      match reception with
      | Engine.Received (Cmsg.Vd_label _) when vd.(node) < 0 ->
          vd.(node) <- dv + 1;
          unlabeled.(node) <- false
      | Engine.Received _ | Engine.Silence | Engine.Collision -> ()
    in
    (* Only the frontier (vd = dv) decides: it is static for the whole
       relaxation.  The still-unlabeled forest nodes only listen, so they
       are passive and the engine wakes them when a frontier neighbour
       transmits; a node labeled dv+1 mid-phase leaves the passive set in
       its own deliver, where its full-scan decide turns to a
       side-effect-free Sleep. *)
    let n_cand = ref 0 in
    Array.iter
      (fun v ->
        unlabeled.(v) <- vd.(v) < 0;
        if vd.(v) = dv then begin
          cand.(!n_cand) <- v;
          incr n_cand
        end)
      forest;
    let stage2_cand = !n_cand in
    let decide_active ~round:_ (buf : int array) =
      Array.blit cand 0 buf 0 stage2_cand;
      stage2_cand
    in
    run_phase ~decide_active ~passive:unlabeled ~decide ~deliver
      ~stop:(fun ~round ->
        Params.stage_over params ~round ~budget ~period:ladder goal ())
      ~max_rounds:budget ();
    incr d
  done;
  if unlabeled_remain () then
    failwith "Gst_distributed: virtual-distance learning did not converge";
  (vd, !total_rounds)

(* ------------------------------------------------------------------ *)

let construct ?(mode = Pipelined) ?(layering = Decay_layering)
    ?(learn_vd = false) ?(params = Params.default)
    ?(detection = Engine.No_collision_detection) ~rng ~graph ~roots () =
  let n = Graph.n graph in
  let levels, layering_rounds =
    match layering with
    | Given_layering levels ->
        if Array.length levels <> n then
          invalid_arg "Gst_distributed.construct: levels length";
        (levels, 0)
    | Decay_layering ->
        let r =
          Layering.decay_bfs ~params ~rng:(Rng.split rng) ~graph ~sources:roots
            ()
        in
        (r.Layering.levels, r.Layering.rounds)
    | Collision_wave_layering ->
        let r = Layering.collision_wave ~graph ~sources:roots () in
        (r.Layering.levels, r.Layering.rounds)
  in
  let level_nodes = Bfs.by_level levels in
  let parents, ranks, parent_rank, assignment_rounds, class_fixups,
      fallback_reactivations =
    run_assignment ~mode ~params ~detection ~rng ~graph ~levels ~level_nodes ()
  in
  let head_override, selftest_rounds =
    run_selftest ~detection ~graph ~levels ~parents ~ranks ()
  in
  let vd, vd_rounds =
    if learn_vd then
      run_vd ~params ~detection ~rng ~graph ~levels ~level_nodes ~parents
        ~ranks ~parent_rank ~head_override ()
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
