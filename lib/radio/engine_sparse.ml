open Rn_graph
open Engine

(* The fast round path: one spray/deliver kernel, in the calling domain.

   Each simulated round runs two steps:

     decide      undo the previous round's marks, then scan every node —
                 or the protocol's [decide_active] set — and record
                 actions into the transmitter and listener stacks;
     spray       push each transmitter's packet along its CSR neighbour
       + deliver slice into the per-node reception byte and the
                 last-writer [tx_src] slot, then deliver the listeners.
                 The cost scales with the {e transmitter} set, not the
                 listener set: a listener's reception is fully determined
                 once the spray finishes.

   Three ideas on top of Engine.run's full scan:

   1. Active-set decides.  A protocol that knows which nodes are awake
      enumerates them through [decide_active]; every other node sleeps
      without a [decide] call, so a round costs O(|active|) decides
      instead of O(n).  With [passive], a flagged node left out of the set
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

   3. Empty awake sets.  A round whose [decide_active] writes no id
      decides nobody and owes no spray or deliver; it still ticks the
      protocol-visible clock — [stop] is checked, [stats.rounds]
      increments, [metrics] gets a zero row, [after_round] fires — and is
      credited to [Engine.skipped_rounds], not [simulated_rounds], so
      throughput stays honest.

   There is no tracing path: traces include the elided Silence events,
   which only the dense scan produces.

   Determinism: a listener's reception depends only on the {e set} of
   transmitting neighbours — the byte saturates, and [tx_src] is read only
   when exactly one neighbour transmitted, in which case that neighbour was
   its only writer this round, whatever the spray order.  Listeners are
   delivered in descending decide order, which without an active set (or
   with an ascending one) is Engine.run's delivery order. *)

(* The monomorphic scratch of a run, kept between runs in a one-slot
   per-domain cache, so a run's set-up costs the nodes it touches rather
   than n.  Its length [cap] is at least the run's node count; every
   array is indexed by node id or by a per-round stack position below it.
   [st] is the reception byte table, all 255 (deaf) whenever the
   workspace sits in the slot: a run undoes its last round's marks before
   returning it.  The other arrays carry no meaning between rounds.  No
   field holds a packet, so a cached workspace keeps nothing of a run's
   messages alive. *)
type workspace = {
  st : Bytes.t;
  tx_src : int array;
  active : int array;
  tx_stack : int array;
  ls_stack : int array;
}

let slot : workspace option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Take the domain's workspace if it is large enough, else build one.
   The slot stays empty until the run returns, so a run nested in a
   callback, or the next run after one that raised, builds fresh arrays. *)
let take_workspace n =
  let cap = max n 1 in
  let cached = Domain.DLS.get slot in
  Domain.DLS.set slot None;
  match cached with
  | Some w when Bytes.length w.st >= cap -> w
  | Some _ | None ->
      {
        st = Bytes.make cap '\255';
        tx_src = Array.make cap 0;
        active = Array.make cap 0;
        tx_stack = Array.make cap 0;
        ls_stack = Array.make cap 0;
      }

(* The byte a transmitter's [st] slot holds for its round: the spray
   leaves it unchanged (like a deaf 255), and it tells a transmitter
   apart from a node that did not act. *)
let transmitting = '\254'

let run ?stats ?metrics ?after_round ?decide_active ?passive ?(validate = false)
    ~graph ~detection ~protocol ~stop ~max_rounds () =
  if Option.is_some passive && Option.is_none decide_active then
    invalid_arg "Engine_sparse.run: passive needs decide_active";
  let n = Graph.n graph in
  let off = Graph.offsets graph and tgt = Graph.targets graph in
  (* CSR guard, once per run, dominating every unchecked access below:
     spray indices lie in [off.(t), off.(t+1)) ⊆ [0, off.(n)), and the
     byte-table stores index by node id < n ≤ |st| (scanned ids are, and
     active ids are range-checked). *)
  if off.(n) > Array.length tgt then
    invalid_arg "Engine_sparse.run: offsets exceed target array";
  let s = match stats with Some s -> s | None -> fresh_stats () in
  (* The wake walk reads [passive] unchecked by neighbour id. *)
  let wake, pas =
    match passive with
    | None -> (false, [||])
    | Some p ->
        if Array.length p < n then
          invalid_arg "Engine_sparse.run: passive shorter than the node count";
        (true, p)
  in
  (* Spray state.  [st] packs listening + the saturating 0/1/≥2 reception
     counter into one byte per node: 255 = not listening this round, 254
     = transmitting, 0 = listening and silent so far, 1 = exactly one
     packet heard, 2 = collided (saturates).  One byte load decides the
     whole spray step.  [tx_src] holds the last sprayer's position on
     the transmitter stack (only read when the counter is exactly 1, when
     the last sprayer was the only one); the packet is then
     [!packets.(tx_src.(v))].  [packets] is the run's own, because its
     element type is the protocol's: it is indexed by transmitter
     position and doubles when a round outgrows it. *)
  let ws = take_workspace n in
  let { st; tx_src; active; tx_stack; ls_stack } = ws in
  let packets = ref (Array.make 16 Sleep) in
  (* Round-stamped visit marks for the [validate] distinctness check;
     allocated only when the check is on. *)
  let seen = if validate then Array.make (max n 1) (-1) else [||] in
  let inject = Atomic.get inject_silence in
  let skipped = ref 0 in
  (* The round's transmitters and listeners, in decide order, and its
     delivery tallies. *)
  let n_tx = ref 0 and n_ls = ref 0 in
  let deliveries = ref 0 and collisions = ref 0 in
  let decide_one round v =
    match protocol.decide ~round ~node:v with
    | Sleep -> ()
    | Listen ->
        Bytes.unsafe_set st v '\000';
        ls_stack.(!n_ls) <- v;
        incr n_ls
    | Transmit _ as act ->
        let i = !n_tx in
        if i = Array.length !packets then begin
          let grown = Array.make (2 * i) Sleep in
          Array.blit !packets 0 grown 0 i;
          packets := grown
        end;
        Bytes.unsafe_set st v transmitting;
        !packets.(i) <- act;
        tx_stack.(i) <- v;
        n_tx := i + 1
  in
  (* The passive wake walk, after the decides: every passive neighbour of
     a transmitter that neither listens nor transmits (its byte is still
     255) becomes a listener, as if its decide had returned [Listen].
     A passive node with no transmitting neighbour stays deaf: as a
     listener it would hear only the elided [Silence].  Woken listeners
     sit above the decided ones on [ls_stack], so they are delivered
     first; the undo, the spray and the deliver walk treat them like any
     other listener.  Neighbour ids are < n by the CSR guard, and [pas]
     was checked to cover them. *)
  let wake_passive () =
    for i = 0 to !n_tx - 1 do
      let t = tx_stack.(i) in
      for e = off.(t) to off.(t + 1) - 1 do
        let v = Array.unsafe_get tgt e in
        if Bytes.unsafe_get st v = '\255' && Array.unsafe_get pas v then begin
          Bytes.unsafe_set st v '\000';
          ls_stack.(!n_ls) <- v;
          incr n_ls
        end
      done
    done
  [@@zero_alloc_hot]
  in
  (* Undo the last round's marks: the dirty [st] bytes are exactly its
     transmitters and listeners ([decide_one] marks only them, and the
     spray only bumps bytes already below 2).  The undo walks the stacks
     when they are sparse and falls back to one fill of the node range
     once their count approaches it (sequential memset beats scattered
     byte stores well before the counts are equal).  [tx_src] and
     [packets] keep stale entries: a slot is only read under a counter
     this round raised to exactly 1, and the one edge raising it stamped
     it too. *)
  let undo () =
    if 4 * (!n_ls + !n_tx) >= n then Bytes.fill st 0 n '\255'
    else begin
      for i = 0 to !n_tx - 1 do
        Bytes.unsafe_set st tx_stack.(i) '\255'
      done;
      for i = 0 to !n_ls - 1 do
        Bytes.unsafe_set st ls_stack.(i) '\255'
      done
    end;
    n_tx := 0;
    n_ls := 0
  [@@zero_alloc_hot]
  in
  (* Starts by undoing the previous round's marks.  A stack holds at most
     one entry per decide call, so neither overflows even when a faulty
     active set repeats ids.  The wake walk adds one entry per woken
     node; with repeated ids its checked push may then raise, and
     [validate] names the repeat first. *)
  let do_decide round =
    undo ();
    deliveries := 0;
    collisions := 0;
    match decide_active with
    | None ->
        for v = 0 to n - 1 do
          decide_one round v
        done
    | Some da ->
        let k = da ~round active in
        if k < 0 || k > n then
          invalid_arg "Engine_sparse.run: decide_active returned a bad count";
        if k = 0 then incr skipped;
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
          decide_one round v;
          if validate && wake && pas.(v) && Bytes.get st v = '\255' then
            invalid_arg
              (Printf.sprintf
                 "Engine_sparse.run: passive node %d slept in round %d (a \
                  passive node in the active set must listen or transmit)"
                 v round)
        done;
        if wake then wake_passive ()
  [@@zero_alloc_hot]
  in
  (* Spray the packet of the transmitter at stack position [i] along its
     neighbour slice, branch-free: [c + ((c - 2) lsr 62)] adds 1 exactly
     when [c < 2] (then [c - 2] is negative and the 63-bit int's top bit
     survives the shift), so a listener's byte moves 0 → 1 → 2 and
     saturates, and a deaf 255 or a transmitting 254 stays put.  Every
     edge also stamps [tx_src] unconditionally: a byte that ends the spray
     at 1 was raised by exactly one transmitter, so the last writer of its
     [tx_src] slot is the only one. *)
  let spray i t =
    for e = off.(t) to off.(t + 1) - 1 do
      let v = Array.unsafe_get tgt e in
      let c = Char.code (Bytes.unsafe_get st v) in
      Bytes.unsafe_set st v (Char.unsafe_chr (c + ((c - 2) lsr 62)));
      Array.unsafe_set tx_src v i
    done
  in
  (* Push spray, then deliver in descending decide order.  Listeners still
     at 0 heard nobody: their Silence is elided, so a round without
     transmitters owes no per-listener work at all. *)
  let do_gather round =
    if !n_tx > 0 then begin
      for i = 0 to !n_tx - 1 do
        spray i tx_stack.(i)
      done;
      let pk = !packets in
      for i = !n_ls - 1 downto 0 do
        let v = ls_stack.(i) in
        let c = Char.code (Bytes.unsafe_get st v) in
        if c > 0 then begin
          if inject then protocol.deliver ~round ~node:v Silence;
          let reception =
            if c = 1 then begin
              incr deliveries;
              match Array.unsafe_get pk (Array.unsafe_get tx_src v) with
              | Transmit m -> Received m
              | _ -> assert false
            end
            else begin
              incr collisions;
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
  let tally round =
    s.transmissions <- s.transmissions + !n_tx;
    s.deliveries <- s.deliveries + !deliveries;
    s.collisions <- s.collisions + !collisions;
    s.rounds <- s.rounds + 1;
    if !n_tx > 0 then s.busy_rounds <- s.busy_rounds + 1;
    match metrics with
    | Some m ->
        Rn_obs.Metrics.record_round m ~round ~transmissions:!n_tx
          ~deliveries:!deliveries ~collisions:!collisions
    | None -> ()
  [@@zero_alloc_hot]
  in
  (* A run that returns leaves [st] all 255 and hands the workspace back;
     one that raises never gets here, so its dirty arrays are dropped. *)
  let finish round outcome =
    undo ();
    Domain.DLS.set slot (Some ws);
    add_simulated_rounds (round - !skipped);
    add_skipped_rounds !skipped;
    outcome
  in
  let rec loop round =
    if stop ~round then finish round (Completed round)
    else if round >= max_rounds then finish round (Out_of_budget round)
    else begin
      do_decide round;
      do_gather round;
      tally round;
      (match after_round with Some f -> f ~round | None -> ());
      loop (round + 1)
    end
  [@@zero_alloc_hot]
  in
  loop 0
