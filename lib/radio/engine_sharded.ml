open Rn_graph

(* Deterministic sharded round loop — the parallel sibling of [Engine.run].

   The node range is cut into [domains] contiguous shards (balanced by CSR
   edge count, cut points from [Graph.shard_cuts]); each round runs two
   phases separated by a barrier:

     P1 decide   each executor scans its own node ranges and records
                 actions into its lanes;
     P2 spray    owner-filtered push.  Every lane walks {e every} lane's
       + deliver transmitter stack, but for each transmitter
                 binary-searches its sorted CSR neighbor slice for the
                 lane's own [lo, hi) sub-slice and sprays only that — so
                 each directed edge out of a transmitter is visited by
                 exactly one lane, and every write (the saturating
                 per-node reception byte, the first-sprayer [tx_act] slot)
                 lands in lane-owned state.  Total work is the serial
                 engine's spray cost plus one binary search per
                 (transmitter, shard): crucially it scales with the
                 {e transmitter} set, not with the listener set — a pull
                 over listeners' in-edges re-scans the whole edge set every
                 busy round, a ~10x loss on Decay-like workloads where
                 almost everybody listens and few transmit.
                 Delivery is fused into the same phase (descending within
                 the shard): a listener's reception is fully determined
                 once the lane's spray finishes.
   A lane owns the [out_act] segment of its node range, so re-Sleeping its
   transmit marks folds into the top of its next P1.

   The coordinator (the calling domain) runs the serial protocol surface —
   [stop], stats merging, [after_round] — between rounds, so those
   callbacks execute exactly as under the serial engine.

   Determinism contract: for protocols whose [decide]/[deliver] touch only
   per-node state, outcome, stats, per-node deliveries and every callback
   observation are byte-identical to [Engine.run], for every [domains]
   value.  Why: decide covers the same node sequence (concatenated
   ascending shards); a listener's reception depends only on the {e set}
   of transmitting neighbors — the (seen, collided) pair saturates, and
   [tx_act] is only read when exactly one neighbor transmitted, in which
   case every spray order writes the same value — never on any inter-node
   order; delivery order over shards (descending shard, descending within)
   is exactly the serial descending order; and stats are merged in fixed
   shard order by the coordinator.  The schedule depends only on the shard
   count, never on how many pool workers execute the lanes — so a busy
   pool degrades to fewer executors (or the calling domain alone) without
   changing a single byte of output.

   Memory model: all cross-domain visibility is ordered by the barrier's
   mutex (coordinator writes round state before releasing a phase; lanes
   read it after crossing).  Within a phase every mutable location —
   lane scratch, [out_act] entry, reception byte — has exactly one
   writer: lanes own disjoint node ranges, and a [Bytes] element is its
   own location in the OCaml memory model (byte stores never read
   neighbours back), so adjacent shards can touch adjacent bytes without
   a word-level race. *)

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

let run ?stats ?metrics ?after_round ~domains ~graph ~detection ~protocol
    ~stop ~max_rounds () =
  if domains < 1 then invalid_arg "Engine_sharded.run: domains must be >= 1";
  let n = Graph.n graph in
  let off = Graph.offsets graph and tgt = Graph.targets graph in
  (* CSR guard, once per run, dominating every unchecked access below:
     spray indices lie in [off.(t), off.(t+1)) ⊆ [0, off.(n)), and the
     byte-table stores index by node id < n ≤ |st| (lane node ranges
     partition [0, n)). *)
  if off.(n) > Array.length tgt then
    invalid_arg "Engine_sharded.run: offsets exceed target array";
  let s = match stats with Some s -> s | None -> Engine.fresh_stats () in
  let shards = domains in
  let cuts = Graph.shard_cuts graph ~parts:shards in
  let out_act = Array.make (max n 1) Engine.Sleep in
  (* Spray state, all owner-local by node range.  [st] packs listening +
     the saturating 0/1/≥2 reception counter into one byte per node: 255 =
     not listening this round, 0 = listening and silent so far, 1 = exactly
     one packet heard, 2 = collided (saturates).  One byte load decides the
     whole spray step — measurably cheaper than a bitset pair, whose
     div/mod-by-63 word addressing dominated the per-edge cost on
     dense-transmitter rounds.  [tx_act] holds the first sprayer's packet
     (only read when the counter is exactly 1).  The per-round reset undoes
     only the dirty bytes — the previous round's listeners — via the lane's
     [ls_stack], falling back to one [Bytes.fill] over the owned range when
     the listener count approaches the range size. *)
  let st = Bytes.make (max n 1) '\255' in
  let tx_act = Array.make (max n 1) Engine.Sleep in
  (* Read once per run, as in the serial engines. *)
  let inject = Atomic.get Engine.inject_silence in
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
    match protocol.Engine.decide ~round ~node:v with
    | Engine.Sleep -> ()
    | Engine.Listen ->
        Bytes.unsafe_set st v '\000';
        lane.ls_stack.(lane.n_ls) <- v;
        lane.n_ls <- lane.n_ls + 1
    | Engine.Transmit _ as act ->
        out_act.(v) <- act;
        lane.tx_stack.(lane.n_tx) <- v;
        lane.n_tx <- lane.n_tx + 1
  in
  (* P1.  Starts by undoing the previous round's marks — the lane owns
     them all: its transmit writes lie in [lo, hi), and the reception bytes
     reset with one fill of the owned range. *)
  let do_decide lane =
    let round = !cur_round in
    for i = 0 to lane.n_tx - 1 do
      out_act.(lane.tx_stack.(i)) <- Engine.Sleep
    done;
    (* [tx_act] keeps stale entries: it is only read under a counter this
       round raised to 1, and the write raising it rewrites [tx_act]
       first.  The dirty [st] bytes are exactly the previous round's
       listeners: [decide_one] marks only them '\000', and [spray_slice]
       only bumps bytes already below 2 — a deaf byte stays 255.  So the
       undo walks [ls_stack] when it is sparse, and falls back to one
       fill of the owned range once the listener count approaches it
       (sequential memset beats scattered byte stores well before the
       counts are equal). *)
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
    for v = lane.lo to lane.hi - 1 do
      decide_one lane round v
    done
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
  (* Spray one transmitter's packet into this lane's slice of its neighbor
     list: one byte load classifies the listener (255 deaf, 2 saturated —
     both skip), the first sprayer records the packet.  Recursion, not
     refs — a ref would allocate per transmitter. *)
  let rec spray_slice act e b hi =
    if e < b then begin
      let v = Array.unsafe_get tgt e in
      if v < hi then begin
        let c = Char.code (Bytes.unsafe_get st v) in
        if c < 2 then begin
          Bytes.unsafe_set st v (Char.unsafe_chr (c + 1));
          if c = 0 then Array.unsafe_set tx_act v act
        end;
        spray_slice act (e + 1) b hi
      end
    end
  in
  (* P2: owner-filtered push spray, then fused deliver descending within
     the shard.  Every lane walks every lane's transmitter stack (readable
     after the P1 barrier) but sprays only the [lo, hi) sub-slice of each
     neighbor list, so writes stay owner-local and each edge is visited
     once across all lanes. *)
  let do_gather lane =
    let round = !cur_round in
    if lane.lo < lane.hi && some_lane_transmits 0 then
      for k = 0 to shards - 1 do
        let src = lanes.(k) in
        for i = 0 to src.n_tx - 1 do
          let t = src.tx_stack.(i) in
          let b = off.(t + 1) in
          spray_slice
            (Array.unsafe_get out_act t)
            (lower_bound off.(t) b lane.lo)
            b lane.hi
        done
      done;
    for i = lane.n_ls - 1 downto 0 do
      let v = lane.ls_stack.(i) in
      if inject then protocol.Engine.deliver ~round ~node:v Engine.Silence;
      (* [v] is a listener, so its byte is 0, 1 or 2 — never 255. *)
      let c = Char.code (Bytes.unsafe_get st v) in
      let reception =
        if c = 0 then Engine.Silence
        else if c = 1 then begin
          lane.deliveries <- lane.deliveries + 1;
          match Array.unsafe_get tx_act v with
          | Engine.Transmit m -> Engine.Received m
          | _ -> assert false
        end
        else begin
          lane.collisions <- lane.collisions + 1;
          match detection with
          | Engine.Collision_detection -> Engine.Collision
          | Engine.No_collision_detection -> Engine.Silence
        end
      in
      protocol.Engine.deliver ~round ~node:v reception
    done
  [@@zero_alloc_hot]
  in
  let guarded f lane =
    try f lane
    with ex -> (
      match lane.exn_ with None -> lane.exn_ <- Some ex | Some _ -> ())
  in
  (* Executors: the coordinator is executor 0; pool workers (however many
     the pool could spare — possibly none) take 1..execs-1.  Executor [e]
     runs shards e, e+execs, … — ownership is per shard, so the executor
     count affects scheduling only, never results. *)
  let workers = if shards > 1 then Runner.Pool.borrow ~want:(shards - 1) else [||] in
  let execs = Array.length workers + 1 in
  let barrier = Barrier.make execs in
  let sync () = if execs > 1 then Barrier.await barrier in
  let run_phases e =
    let phase f =
      let j = ref e in
      while !j < shards do
        guarded f lanes.(!j);
        j := !j + execs
      done
    in
    phase do_decide;
    sync ();
    phase do_gather
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
    (* Shard-order merge makes every observation identical to serial:
       totals are order-independent sums. *)
    let busy = ref false in
    let rtx = ref 0 and rdel = ref 0 and rcol = ref 0 in
    for j = 0 to shards - 1 do
      let lane = lanes.(j) in
      if lane.n_tx > 0 then busy := true;
      rtx := !rtx + lane.n_tx;
      rdel := !rdel + lane.deliveries;
      rcol := !rcol + lane.collisions
    done;
    s.Engine.transmissions <- s.Engine.transmissions + !rtx;
    s.Engine.deliveries <- s.Engine.deliveries + !rdel;
    s.Engine.collisions <- s.Engine.collisions + !rcol;
    s.Engine.rounds <- s.Engine.rounds + 1;
    if !busy then s.Engine.busy_rounds <- s.Engine.busy_rounds + 1;
    (* Same call the serial engine makes at its round tail, fed by the
       shard-order sums of the owner-local lane counters — so the registry
       contents (and anything exported from them) are byte-identical for
       every domain count. *)
    (match metrics with
    | Some m ->
        Rn_obs.Metrics.record_round m ~round ~transmissions:!rtx
          ~deliveries:!rdel ~collisions:!rcol
    | None -> ());
    match after_round with Some f -> f ~round | None -> ()
  in
  let first_exn () =
    let found = ref None in
    for j = shards - 1 downto 0 do
      match lanes.(j).exn_ with Some e -> found := Some e | None -> ()
    done;
    !found
  in
  let rec loop round =
    if stop ~round then begin
      shutdown ();
      Engine.add_simulated_rounds round;
      Engine.Completed round
    end
    else if round >= max_rounds then begin
      shutdown ();
      Engine.add_simulated_rounds round;
      Engine.Out_of_budget round
    end
    else begin
      cur_round := round;
      sync ();
      run_phases 0;
      sync ();
      (match first_exn () with
      | Some ex ->
          shutdown ();
          raise ex
      | None -> ());
      merge_round round;
      loop (round + 1)
    end
  in
  match loop 0 with
  | outcome -> outcome
  | exception ex ->
      (* [stop]/[after_round]/merge raised in the serial section; the
         workers are parked at the round-release barrier. *)
      if !running then shutdown ();
      raise ex
