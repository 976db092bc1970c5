open Rn_graph
open Engine

(* Event-driven round path.  Three ideas on top of Engine.run:

   1. Active-set decides.  A protocol that knows which nodes are awake
      enumerates them through [decide_active]; every other node sleeps
      without a [decide] call, so a round costs O(|active|) decides
      instead of O(n).  Only this engine consumes the active set.

   2. No listener bookkeeping.  Engine.run pushes every listener onto a
      stack, walks the whole stack to deliver (mostly Silence), and walks
      it again to reset the [listening] flags.  Here a listener is a round
      stamp ([listen_round.(v) = round]); stamps never need resetting
      (rounds strictly increase), and delivery walks only the *touched*
      stack — listeners inside a transmitter's neighborhood.  An untouched
      listener would have received [Silence]; the sparse contract is that
      such a delivery is a no-op for the protocol, so it is elided
      entirely.  A round where k nodes act costs O(k + Σ deg over
      transmitters), independent of n.

   3. Silent-round skip.  When the protocol knows its own schedule well
      enough to promise "nobody transmits before round r" it can expose
      [next_busy_round]; the engine then fast-forwards the stretch without
      calling [decide] at all.  Every skipped round still ticks the
      protocol-visible clock — [stop] is checked, [stats.rounds]
      increments, [metrics] gets a zero row (ring buffer stays
      byte-identical to the dense engine's silent rounds), and
      [after_round] fires so protocol state machines advance.  The hint is
      re-queried every round because [after_round] may change the
      schedule.  Skipped rounds are credited to [Engine.skipped_rounds],
      not [simulated_rounds], so throughput stays honest.

   There is no tracing path: traces include Silence receptions of
   untouched listeners, which only the dense scan produces, so tracing
   callers run Engine.run directly.

   Ordering: transmitters spray in descending decide order exactly like
   Engine.run (first writer wins [tx_act], but the stored action is only
   read when [tx_count = 1], so the winner is irrelevant).  Touched
   listeners are delivered in descending touch order, which differs from
   the dense engine's descending decide order — the engine contract
   requires deliveries within a round to be order-independent (each
   listener receives at most one reception per round and protocols keep
   per-node state), so per-node observable behavior is identical. *)

let run ?stats ?metrics ?after_round ?decide_active ?next_busy_round
    ?(validate = false) ~graph ~detection ~protocol ~stop ~max_rounds () =
  let n = Graph.n graph in
  let off = Graph.offsets graph and tgt = Graph.targets graph in
  (* CSR guard, once per run: neighbour indices read unchecked in the
     spray loop lie in [off.(t), off.(t+1)) ⊆ [0, off.(n)). *)
  if off.(n) > Array.length tgt then
    invalid_arg "Engine_sparse.run: offsets exceed target array";
  let s = match stats with Some s -> s | None -> fresh_stats () in
  let tx_count = Array.make (max n 1) 0 in
  let tx_act = Array.make (max n 1) Sleep in
  let out_act = Array.make (max n 1) Sleep in
  let listen_round = Array.make (max n 1) (-1) in
  let transmitters = Array.make (max n 1) 0 in
  let touched = Array.make (max n 1) 0 in
  let active =
    match decide_active with None -> [||] | Some _ -> Array.make (max n 1) 0
  in
  let n_tx = ref 0 and n_tc = ref 0 in
  (* Round-stamped visit marks for the [validate] distinctness check;
     allocated only when the check is on. *)
  let seen = if validate then Array.make (max n 1) (-1) else [||] in
  let inject = Atomic.get inject_silence in
  let skipped = ref 0 in
  let decide_one round v =
    match protocol.decide ~round ~node:v with
    | Sleep -> ()
    | Listen -> listen_round.(v) <- round
    | Transmit _ as act ->
        out_act.(v) <- act;
        transmitters.(!n_tx) <- v;
        incr n_tx
  in
  let finish round outcome =
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
           observe anything but Silence and no per-node work is owed.
           Only the clock ticks. *)
        incr skipped;
        s.rounds <- s.rounds + 1;
        (match metrics with
        | Some m ->
            Rn_obs.Metrics.record_round m ~round ~transmissions:0
              ~deliveries:0 ~collisions:0
        | None -> ());
        (match after_round with Some f -> f ~round | None -> ());
        loop (round + 1)
      end
      else begin
        (match decide_active with
        | None -> for v = 0 to n - 1 do decide_one round v done
        | Some da ->
            let k = da ~round active in
            if k < 0 || k > n then
              invalid_arg
                "Engine_sparse.run: decide_active returned a bad count";
            for i = 0 to k - 1 do
              let v = active.(i) in
              if v < 0 || v >= n then
                invalid_arg
                  "Engine_sparse.run: decide_active wrote a bad node id";
              if validate then begin
                if seen.(v) = round then
                  invalid_arg
                    (Printf.sprintf
                       "Engine_sparse.run: decide_active repeated node id %d \
                        in round %d (the transmit-buffer contract requires \
                        distinct ids)"
                       v round);
                seen.(v) <- round
              end;
              decide_one round v
            done);
        let round_tx = !n_tx in
        let del0 = s.deliveries and col0 = s.collisions in
        for i = !n_tx - 1 downto 0 do
          let t = transmitters.(i) in
          s.transmissions <- s.transmissions + 1;
          let act = out_act.(t) in
          for j = off.(t) to off.(t + 1) - 1 do
            let v = Array.unsafe_get tgt j in
            if listen_round.(v) = round then begin
              if tx_count.(v) = 0 then begin
                touched.(!n_tc) <- v;
                incr n_tc;
                tx_act.(v) <- act
              end;
              tx_count.(v) <- tx_count.(v) + 1
            end
          done
        done;
        for i = !n_tc - 1 downto 0 do
          let v = touched.(i) in
          if inject then protocol.deliver ~round ~node:v Silence;
          let reception =
            match tx_count.(v) with
            | 1 -> (
                s.deliveries <- s.deliveries + 1;
                match tx_act.(v) with
                | Transmit m -> Received m
                | _ -> assert false)
            | _ -> (
                s.collisions <- s.collisions + 1;
                match detection with
                | Collision_detection -> Collision
                | No_collision_detection -> Silence)
          in
          protocol.deliver ~round ~node:v reception
        done;
        for i = 0 to !n_tc - 1 do
          let v = touched.(i) in
          tx_count.(v) <- 0;
          tx_act.(v) <- Sleep
        done;
        for i = 0 to !n_tx - 1 do
          out_act.(transmitters.(i)) <- Sleep
        done;
        n_tc := 0;
        n_tx := 0;
        s.rounds <- s.rounds + 1;
        if round_tx > 0 then s.busy_rounds <- s.busy_rounds + 1;
        (match metrics with
        | Some m ->
            Rn_obs.Metrics.record_round m ~round ~transmissions:round_tx
              ~deliveries:(s.deliveries - del0)
              ~collisions:(s.collisions - col0)
        | None -> ());
        (match after_round with Some f -> f ~round | None -> ());
        loop (round + 1)
      end
    end
  in
  loop 0
(* R5 holds the frontier loop to the same static budget as Engine.run: no
   list traversals, no closure-allocating iterators; test/test_alloc.ml
   pins quiet, skipped and active-set rounds dynamically. *)
[@@zero_alloc_hot]
