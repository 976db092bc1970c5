open Rn_graph
open Engine

(* The fast round path: one spray/deliver kernel, run on [domains] lanes.

   The node range is cut into [domains] contiguous shards (balanced by CSR
   edge count, cut points from [Graph.shard_cuts]); each simulated round
   runs two phases separated by a barrier:

     P1 decide   each lane undoes its previous round's marks, then scans
                 its own node range — or, on the one-lane path, the
                 protocol's [decide_active] set — and records actions
                 into lane-owned stacks;
     P2 spray    owner-filtered push.  Every lane walks {e every} lane's
       + deliver transmitter stack, but for each transmitter
                 binary-searches its sorted CSR neighbor slice for the
                 lane's own [lo, hi) sub-slice and sprays only that — so
                 each directed edge out of a transmitter is visited by
                 exactly one lane, and every write (the saturating
                 per-node reception byte, the last-writer [tx_src] slot)
                 lands in lane-owned state.  The cost scales with the
                 {e transmitter} set, not the listener set.  Delivery is
                 fused into the same phase: a listener's reception is
                 fully determined once the lane's spray finishes.

   Three ideas on top of Engine.run's full scan:

   1. Active-set decides.  A protocol that knows which nodes are awake
      enumerates them through [decide_active]; every other node sleeps
      without a [decide] call, so a round costs O(|active|) decides
      instead of O(n).  Only the one-lane path takes it (lane 0 owns every
      node there).  With [passive], a flagged node left out of the set
      listens instead of sleeping: after the decides, a walk over the
      transmitters' neighbour slices turns each flagged, deaf,
      non-transmitting neighbour into a listener, so it is delivered to
      exactly when a [Listen] decide would have heard something.

   2. Silence elision.  A listener whose byte is still 0 after the spray
      heard no transmitting neighbour; its [Silence] delivery is elided
      (the R11 silence-purity contract, DESIGN.md §13), and a round in
      which nobody transmits skips spray and deliver altogether.  The
      marks are undone from the listener stack, so a round where k nodes
      act costs O(k + Σ deg over transmitters), independent of n.

   3. Silent-round skip.  When the protocol can promise "nobody transmits
      before round r" through [next_busy_round], the coordinator
      fast-forwards the stretch without waking a lane.  Every skipped
      round still ticks the protocol-visible clock — [stop] is checked,
      [stats.rounds] increments, [metrics] gets a zero row, [after_round]
      fires — and is credited to [Engine.skipped_rounds], not
      [simulated_rounds], so throughput stays honest.

   The coordinator (the calling domain) runs the serial protocol surface —
   [stop], the skip hint, stats merging, [after_round] — between rounds.
   There is no tracing path: traces include the elided Silence events,
   which only the dense scan produces.

   Determinism: a listener's reception depends only on the {e set} of
   transmitting neighbours — the byte saturates, and [tx_src] is read only
   when exactly one neighbour transmitted, in which case that neighbour was
   its only writer this round, whatever the spray order.  Each lane
   delivers its listeners in descending decide order, which on one lane
   without an active set (or with an ascending one) is Engine.run's
   delivery order; stats and metrics are
   merged in fixed shard order.  The schedule depends only on [domains],
   never on how many pool workers execute the lanes — a busy pool degrades
   to fewer executors (or the calling domain alone) without changing a
   byte of output.

   Memory model: all cross-domain visibility is ordered by the barrier's
   mutex (the coordinator writes round state before releasing a phase;
   lanes read it after crossing).  Within a phase every mutable location —
   lane scratch, [out_act] entry, reception byte — has exactly one writer:
   lanes own disjoint node ranges, and a [Bytes] element is its own
   location in the OCaml memory model (byte stores never read neighbours
   back), so adjacent shards can touch adjacent bytes without a word-level
   race. *)

type lane = {
  lo : int;  (* owned node range [lo, hi) *)
  hi : int;
  tx_stack : int array;
  ls_stack : int array;
  mutable n_tx : int;
  mutable n_ls : int;
  mutable deliveries : int;  (* per-round counters, drained by coordinator *)
  mutable collisions : int;
  mutable exn_ : exn option;
}

(* A counting barrier on a mutex + condvar; [phase] increments at every
   release, which is the generation ("sense") that parks late arrivals of
   the current crossing without racing the next one. *)
module Barrier = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable waiting : int;
    mutable phase : int;
  }

  let make parties =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      parties;
      waiting = 0;
      phase = 0;
    }

  let await b =
    Mutex.lock b.lock;
    let ph = b.phase in
    b.waiting <- b.waiting + 1;
    if b.waiting = b.parties then begin
      b.waiting <- 0;
      b.phase <- ph + 1;
      Condition.broadcast b.cond
    end
    else
      while b.phase = ph do
        Condition.wait b.cond b.lock
      done;
    Mutex.unlock b.lock
end

let run ?stats ?metrics ?after_round ?decide_active ?passive ?next_busy_round
    ?(validate = false) ?(domains = 1) ~graph ~detection ~protocol ~stop
    ~max_rounds () =
  if domains < 1 then invalid_arg "Engine_sparse.run: domains must be >= 1";
  if domains > 1 && Option.is_some decide_active then
    invalid_arg "Engine_sparse.run: decide_active needs domains = 1";
  if Option.is_some passive && Option.is_none decide_active then
    invalid_arg "Engine_sparse.run: passive needs decide_active";
  let n = Graph.n graph in
  let off = Graph.offsets graph and tgt = Graph.targets graph in
  (* CSR guard, once per run, dominating every unchecked access below:
     spray indices lie in [off.(t), off.(t+1)) ⊆ [0, off.(n)), and the
     byte-table stores index by node id < n ≤ |st| (lane node ranges
     partition [0, n), and active ids are range-checked). *)
  if off.(n) > Array.length tgt then
    invalid_arg "Engine_sparse.run: offsets exceed target array";
  let s = match stats with Some s -> s | None -> fresh_stats () in
  let shards = domains in
  let cuts = Graph.shard_cuts graph ~parts:shards in
  let out_act = Array.make (max n 1) Sleep in
  (* Spray state, all owner-local by node range.  [st] packs listening +
     the saturating 0/1/≥2 reception counter into one byte per node: 255 =
     not listening this round, 0 = listening and silent so far, 1 = exactly
     one packet heard, 2 = collided (saturates).  One byte load decides the
     whole spray step.  [tx_src] holds the last sprayer's id (only read
     when the counter is exactly 1, when the last sprayer was the only
     one); the packet is then [out_act.(tx_src.(v))]. *)
  let st = Bytes.make (max n 1) '\255' in
  let tx_src = Array.make (max n 1) 0 in
  let active =
    match decide_active with None -> [||] | Some _ -> Array.make (max n 1) 0
  in
  (* The wake walk reads [passive] unchecked by neighbour id. *)
  let wake, pas =
    match passive with
    | None -> (false, [||])
    | Some p ->
        if Array.length p < n then
          invalid_arg "Engine_sparse.run: passive shorter than the node count";
        (true, p)
  in
  (* Round-stamped visit marks for the [validate] distinctness check;
     allocated only when the check is on. *)
  let seen = if validate then Array.make (max n 1) (-1) else [||] in
  let inject = Atomic.get inject_silence in
  let skipped = ref 0 in
  let lanes =
    Array.init shards (fun j ->
        let lo = cuts.(j) and hi = cuts.(j + 1) in
        let cap = max 1 (hi - lo) in
        {
          lo;
          hi;
          tx_stack = Array.make cap 0;
          ls_stack = Array.make cap 0;
          n_tx = 0;
          n_ls = 0;
          deliveries = 0;
          collisions = 0;
          exn_ = None;
        })
  in
  (* Round state written by the coordinator before a phase release and read
     by lanes after the barrier crossing (mutex-ordered). *)
  let cur_round = ref 0 in
  let running = ref true in
  let decide_one lane round v =
    match protocol.decide ~round ~node:v with
    | Sleep -> ()
    | Listen ->
        Bytes.unsafe_set st v '\000';
        lane.ls_stack.(lane.n_ls) <- v;
        lane.n_ls <- lane.n_ls + 1
    | Transmit _ as act ->
        out_act.(v) <- act;
        lane.tx_stack.(lane.n_tx) <- v;
        lane.n_tx <- lane.n_tx + 1
  in
  let transmits v =
    match Array.unsafe_get out_act v with Transmit _ -> true | _ -> false
  in
  (* The passive wake walk, after the decides: every passive neighbour of
     a transmitter that neither listens (its byte is still 255) nor
     transmits becomes a listener, as if its decide had returned [Listen].
     A passive node with no transmitting neighbour stays deaf: as a
     listener it would hear only the elided [Silence].  Woken listeners
     sit above the decided ones on [ls_stack], so they are delivered
     first; the undo, the spray and the deliver walk treat them like any
     other listener.  Neighbour ids are < n by the CSR guard, and [pas]
     was checked to cover them. *)
  let wake_passive lane =
    for i = 0 to lane.n_tx - 1 do
      let t = lane.tx_stack.(i) in
      for e = off.(t) to off.(t + 1) - 1 do
        let v = Array.unsafe_get tgt e in
        if
          Bytes.unsafe_get st v = '\255'
          && Array.unsafe_get pas v
          && not (transmits v)
        then begin
          Bytes.unsafe_set st v '\000';
          lane.ls_stack.(lane.n_ls) <- v;
          lane.n_ls <- lane.n_ls + 1
        end
      done
    done
  [@@zero_alloc_hot]
  in
  (* P1.  Starts by undoing the previous round's marks — the lane owns
     them all: its transmit writes lie in [lo, hi), and the dirty [st]
     bytes are exactly its previous listeners ([decide_one] marks only
     them '\000', and the spray only bumps bytes already below 2).  The
     undo walks [ls_stack] when it is sparse and falls back to one fill of
     the owned range once the listener count approaches it (sequential
     memset beats scattered byte stores well before the counts are equal).
     [tx_src] keeps stale entries: it is only read under a counter this
     round raised to exactly 1, and the one edge raising it stamped
     [tx_src] too.
     A stack holds at most one entry per decide call, so neither overflows
     even when a faulty active set repeats ids.  The wake walk adds one
     entry per woken node; with repeated ids its checked push may then
     raise, and [validate] names the repeat first. *)
  let do_decide lane =
    let round = !cur_round in
    for i = 0 to lane.n_tx - 1 do
      out_act.(lane.tx_stack.(i)) <- Sleep
    done;
    if 4 * lane.n_ls >= lane.hi - lane.lo then begin
      if lane.lo < lane.hi then Bytes.fill st lane.lo (lane.hi - lane.lo) '\255'
    end
    else
      for i = 0 to lane.n_ls - 1 do
        Bytes.unsafe_set st lane.ls_stack.(i) '\255'
      done;
    lane.n_tx <- 0;
    lane.n_ls <- 0;
    lane.deliveries <- 0;
    lane.collisions <- 0;
    match decide_active with
    | None ->
        for v = lane.lo to lane.hi - 1 do
          decide_one lane round v
        done
    | Some da ->
        (* One lane, owning [0, n). *)
        let k = da ~round active in
        if k < 0 || k > n then
          invalid_arg "Engine_sparse.run: decide_active returned a bad count";
        for i = 0 to k - 1 do
          let v = active.(i) in
          if v < 0 || v >= n then
            invalid_arg "Engine_sparse.run: decide_active wrote a bad node id";
          if validate then begin
            if seen.(v) = round then
              invalid_arg
                (Printf.sprintf
                   "Engine_sparse.run: decide_active repeated node id %d in \
                    round %d (the transmit-buffer contract requires distinct \
                    ids)"
                   v round);
            seen.(v) <- round
          end;
          decide_one lane round v;
          if
            validate && wake && pas.(v)
            && Bytes.get st v = '\255'
            && not (transmits v)
          then
            invalid_arg
              (Printf.sprintf
                 "Engine_sparse.run: passive node %d slept in round %d (a \
                  passive node in the active set must listen or transmit)"
                 v round)
        done;
        if wake then wake_passive lane
  [@@zero_alloc_hot]
  in
  (* Quiet-round test: every lane's transmit count is readable in P2
     (written in P1, ordered by the P1→P2 barrier).  Recursion rather than
     a ref keeps the zero-alloc invariant. *)
  let rec some_lane_transmits j =
    j < shards && (lanes.(j).n_tx > 0 || some_lane_transmits (j + 1))
  in
  (* Smallest edge index in [a, b) whose target is >= x; the CSR neighbor
     slices are sorted, so each lane can jump straight to its own node
     range inside any transmitter's adjacency. *)
  let rec lower_bound a b x =
    if a >= b then a
    else begin
      let mid = (a + b) / 2 in
      if Array.unsafe_get tgt mid < x then lower_bound (mid + 1) b x
      else lower_bound a mid x
    end
  in
  (* Spray one transmitter's packet into this lane's slice [a, b) of its
     neighbor list, branch-free: [c + ((c - 2) lsr 62)] adds 1 exactly when
     [c < 2] (then [c - 2] is negative and the 63-bit int's top bit
     survives the shift), so a listener's byte moves 0 → 1 → 2 and
     saturates, and a deaf 255 stays put.  Every edge also stamps [tx_src]
     unconditionally: a byte that ends the spray at 1 was raised by exactly
     one transmitter, so the last writer of its [tx_src] slot is the only
     one. *)
  let spray_slice t a b =
    for e = a to b - 1 do
      let v = Array.unsafe_get tgt e in
      let c = Char.code (Bytes.unsafe_get st v) in
      Bytes.unsafe_set st v (Char.unsafe_chr (c + ((c - 2) lsr 62)));
      Array.unsafe_set tx_src v t
    done
  in
  (* P2: owner-filtered push spray, then fused deliver in descending decide
     order.  Listeners still at 0 heard nobody: their Silence is elided, so
     a round without transmitters owes no per-listener work at all. *)
  let do_gather lane =
    let round = !cur_round in
    if lane.lo < lane.hi && some_lane_transmits 0 then begin
      for k = 0 to shards - 1 do
        let src = lanes.(k) in
        for i = 0 to src.n_tx - 1 do
          let t = src.tx_stack.(i) in
          let a = off.(t) and b = off.(t + 1) in
          let a = if lane.lo = 0 then a else lower_bound a b lane.lo in
          let b = if lane.hi = n then b else lower_bound a b lane.hi in
          spray_slice t a b
        done
      done;
      for i = lane.n_ls - 1 downto 0 do
        let v = lane.ls_stack.(i) in
        let c = Char.code (Bytes.unsafe_get st v) in
        if c > 0 then begin
          if inject then protocol.deliver ~round ~node:v Silence;
          let reception =
            if c = 1 then begin
              lane.deliveries <- lane.deliveries + 1;
              match Array.unsafe_get out_act (Array.unsafe_get tx_src v) with
              | Transmit m -> Received m
              | _ -> assert false
            end
            else begin
              lane.collisions <- lane.collisions + 1;
              match detection with
              | Collision_detection -> Collision
              | No_collision_detection -> Silence
            end
          in
          protocol.deliver ~round ~node:v reception
        end
      done
    end
  [@@zero_alloc_hot]
  in
  (* On d > 1 lanes, a lane that raised keeps its first exception and sits
     out the rest of the round; the coordinator re-raises after the closing
     barrier. *)
  let guarded f lane =
    match lane.exn_ with
    | Some _ -> ()
    | None -> ( try f lane with ex -> lane.exn_ <- Some ex)
  in
  (* Executors: the coordinator is executor 0; pool workers (however many
     the pool could spare — possibly none) take 1..execs-1.  Executor [e]
     runs shards e, e+execs, … — ownership is per shard, so the executor
     count affects scheduling only, never results. *)
  let workers =
    if shards > 1 then Runner.Pool.borrow ~want:(shards - 1) else [||]
  in
  let execs = Array.length workers + 1 in
  let barrier = Barrier.make execs in
  let sync () = if execs > 1 then Barrier.await barrier in
  let phase f e =
    let j = ref e in
    while !j < shards do
      guarded f lanes.(!j);
      j := !j + execs
    done
  in
  let run_phases e =
    phase do_decide e;
    sync ();
    phase do_gather e
  in
  let worker_body e () =
    let live = ref true in
    while !live do
      Barrier.await barrier;
      if !running then begin
        run_phases e;
        Barrier.await barrier
      end
      else live := false
    done
  in
  Array.iteri (fun t w -> Runner.Pool.run_on w (worker_body (t + 1))) workers;
  let shutdown () =
    running := false;
    sync ();
    Array.iter (fun w -> Runner.Pool.await w |> ignore) workers;
    Runner.Pool.release workers
  in
  let merge_round round =
    (* Shard-order merge makes every observation independent of the lane
       count: totals are order-independent sums. *)
    let busy = ref false in
    let rtx = ref 0 and rdel = ref 0 and rcol = ref 0 in
    for j = 0 to shards - 1 do
      let lane = lanes.(j) in
      if lane.n_tx > 0 then busy := true;
      rtx := !rtx + lane.n_tx;
      rdel := !rdel + lane.deliveries;
      rcol := !rcol + lane.collisions
    done;
    s.transmissions <- s.transmissions + !rtx;
    s.deliveries <- s.deliveries + !rdel;
    s.collisions <- s.collisions + !rcol;
    s.rounds <- s.rounds + 1;
    if !busy then s.busy_rounds <- s.busy_rounds + 1;
    match metrics with
    | Some m ->
        Rn_obs.Metrics.record_round m ~round ~transmissions:!rtx
          ~deliveries:!rdel ~collisions:!rcol
    | None -> ()
  [@@zero_alloc_hot]
  in
  let first_exn () =
    let found = ref None in
    for j = shards - 1 downto 0 do
      match lanes.(j).exn_ with Some e -> found := Some e | None -> ()
    done;
    !found
  in
  let finish round outcome =
    shutdown ();
    add_simulated_rounds (round - !skipped);
    add_skipped_rounds !skipped;
    outcome
  in
  let rec loop round =
    if stop ~round then finish round (Completed round)
    else if round >= max_rounds then finish round (Out_of_budget round)
    else begin
      let busy_at =
        match next_busy_round with
        | None -> round
        | Some f ->
            let r = f ~round in
            if r < round then
              invalid_arg "Engine_sparse.run: next_busy_round went backwards";
            r
      in
      if busy_at > round then begin
        (* Provably-silent round: nobody transmits, so no listener can
           observe anything but Silence and no lane is woken.  Only the
           clock ticks. *)
        incr skipped;
        s.rounds <- s.rounds + 1;
        match metrics with
        | Some m ->
            Rn_obs.Metrics.record_round m ~round ~transmissions:0
              ~deliveries:0 ~collisions:0
        | None -> ()
      end
      else begin
        cur_round := round;
        if shards = 1 then begin
          (* One lane, no pool: the lane bodies run unguarded, so an
             exception leaves straight away, as the lane's first. *)
          do_decide lanes.(0);
          do_gather lanes.(0)
        end
        else begin
          sync ();
          run_phases 0;
          sync ();
          match first_exn () with Some ex -> raise ex | None -> ()
        end;
        merge_round round
      end;
      (match after_round with Some f -> f ~round | None -> ());
      loop (round + 1)
    end
  [@@zero_alloc_hot]
  in
  match loop 0 with
  | outcome -> outcome
  | exception ex ->
      (* A lane, [stop], the hint or [after_round] raised; the workers are
         parked at the round-release barrier. *)
      if !running then shutdown ();
      raise ex
