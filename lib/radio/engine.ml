open Rn_graph

type detection = Collision_detection | No_collision_detection

type 'msg action = Sleep | Listen | Transmit of 'msg

type 'msg reception = Silence | Collision | Received of 'msg

type 'msg protocol = {
  decide : round:int -> node:int -> 'msg action;
  deliver : round:int -> node:int -> 'msg reception -> unit;
}

type stats = {
  mutable rounds : int;
  mutable transmissions : int;
  mutable deliveries : int;
  mutable collisions : int;
  mutable busy_rounds : int;
}

let fresh_stats () =
  { rounds = 0; transmissions = 0; deliveries = 0; collisions = 0; busy_rounds = 0 }

type outcome = Completed of int | Out_of_budget of int

let rounds_of_outcome = function Completed r | Out_of_budget r -> r

let completed_exn = function
  | Completed r -> r
  | Out_of_budget r ->
      failwith (Printf.sprintf "Engine: run exhausted its %d-round budget" r)

type 'msg trace_event =
  | Ev_transmit of { node : int; msg : 'msg }
  | Ev_receive of { node : int; reception : 'msg reception }

(* Rounds simulated process-wide, across all runs and all domains; the bench
   harness reads the delta around an experiment to report rounds/sec. *)
let simulated_rounds = Atomic.make 0
let total_simulated_rounds () = Atomic.get simulated_rounds
let add_simulated_rounds k = Atomic.fetch_and_add simulated_rounds k |> ignore

(* Rounds whose awake set {!Engine_sparse} found empty, kept apart
   from [simulated_rounds] so rounds/sec never counts rounds the engine did
   not actually execute.  [stats.rounds] still counts skipped rounds — the
   protocol-visible clock is identical either way. *)
let skipped_rounds = Atomic.make 0
let total_skipped_rounds () = Atomic.get skipped_rounds
let add_skipped_rounds k = Atomic.fetch_and_add skipped_rounds k |> ignore

type mode = Dense | Sparse

(* Debug probe for the contracts suite: when set, every listener receives
   one spurious [Silence] delivery before its real reception.  A pipeline
   whose [deliver] honours the R11 silence-purity contract produces
   byte-identical results either way; test/test_contracts.ml asserts
   exactly that.  Read once per [run], so flipping it mid-run is
   deliberately without effect. *)
let inject_silence = Atomic.make false

(* The round loop is allocation-free outside the tracing path: node sets are
   int-array stacks reused every round, stats are mutated directly, and a
   transmitter's packet is shared by reference — the [Transmit] block the
   protocol returned is stored as-is in [out_act], never re-wrapped, so the
   only per-round allocations are the [Received] wrappers handed to
   listeners (test/test_alloc.ml holds the loop to that budget).

   Invariant between rounds: [listening] is all-false, [tx_count] all-zero,
   [tx_act]/[out_act] all-[Sleep].  Each round re-establishes it by undoing
   only the entries it touched, so a quiet round on a huge graph costs only
   the decide scan.

   Ordering contract (kept bit-compatible with the original list-based
   engine, which consed nodes onto lists during an ascending scan and then
   iterated the lists head-first): transmitters spray and listeners are
   delivered in *descending* decide order, so the stacks are walked
   top-down. *)
let run ?stats ?metrics ?on_round ?after_round ~graph ~detection ~protocol
    ~stop ~max_rounds () =
  let n = Graph.n graph in
  let off = Graph.offsets graph and tgt = Graph.targets graph in
  (* CSR guard, once per run: every neighbour index the round loop reads
     lies in [off.(v), off.(v+1)) ⊆ [0, off.(n)), so checking the final
     offset against [tgt] bounds the unchecked reads below. *)
  if off.(n) > Array.length tgt then
    invalid_arg "Engine.run: offsets exceed target array";
  let s = match stats with Some s -> s | None -> fresh_stats () in
  let tx_count = Array.make (max n 1) 0 in
  let tx_act = Array.make (max n 1) Sleep in
  let out_act = Array.make (max n 1) Sleep in
  let listening = Array.make (max n 1) false in
  let transmitters = Array.make (max n 1) 0 in
  let listeners = Array.make (max n 1) 0 in
  let touched = Array.make (max n 1) 0 in
  let n_tx = ref 0 and n_ls = ref 0 and n_tc = ref 0 in
  let inject = Atomic.get inject_silence in
  let tracing = Option.is_some on_round in
  let events = ref [] in
  let decide_one round v =
    match protocol.decide ~round ~node:v with
    | Sleep -> ()
    | Listen ->
        listening.(v) <- true;
        listeners.(!n_ls) <- v;
        incr n_ls
    | Transmit msg as act ->
        out_act.(v) <- act;
        transmitters.(!n_tx) <- v;
        incr n_tx;
        if tracing then events := Ev_transmit { node = v; msg } :: !events
  in
  let rec loop round =
    if stop ~round then begin
      Atomic.fetch_and_add simulated_rounds round |> ignore;
      Completed round
    end
    else if round >= max_rounds then begin
      Atomic.fetch_and_add simulated_rounds round |> ignore;
      Out_of_budget round
    end
    else begin
      for v = 0 to n - 1 do
        decide_one round v
      done;
      let round_tx = !n_tx in
      let tx_happened = round_tx > 0 in
      let del0 = s.deliveries and col0 = s.collisions in
      for i = !n_tx - 1 downto 0 do
        let t = transmitters.(i) in
        s.transmissions <- s.transmissions + 1;
        let act = out_act.(t) in
        for j = off.(t) to off.(t + 1) - 1 do
          let v = Array.unsafe_get tgt j in
          if listening.(v) then begin
            if tx_count.(v) = 0 then begin
              touched.(!n_tc) <- v;
              incr n_tc;
              tx_act.(v) <- act
            end;
            tx_count.(v) <- tx_count.(v) + 1
          end
        done
      done;
      for i = !n_ls - 1 downto 0 do
        let v = listeners.(i) in
        if inject then protocol.deliver ~round ~node:v Silence;
        let reception =
          match tx_count.(v) with
          | 0 -> Silence
          | 1 -> (
              s.deliveries <- s.deliveries + 1;
              match tx_act.(v) with Transmit m -> Received m | _ -> assert false)
          | _ -> (
              s.collisions <- s.collisions + 1;
              match detection with
              | Collision_detection -> Collision
              | No_collision_detection -> Silence)
        in
        if tracing then events := Ev_receive { node = v; reception } :: !events;
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
      for i = 0 to !n_ls - 1 do
        listening.(listeners.(i)) <- false
      done;
      n_tc := 0;
      n_tx := 0;
      n_ls := 0;
      s.rounds <- s.rounds + 1;
      if tx_happened then s.busy_rounds <- s.busy_rounds + 1;
      (match metrics with
      | Some m ->
          Rn_obs.Metrics.record_round m ~round ~transmissions:round_tx
            ~deliveries:(s.deliveries - del0)
            ~collisions:(s.collisions - col0)
      | None -> ());
      (match on_round with
      | Some f ->
          (* rblint:allow R5 tracing path: reached only when [on_round] is set, never in steady-state benchmarking *)
          f ~round (List.rev !events);
          events := []
      | None -> ());
      (match after_round with Some f -> f ~round | None -> ());
      loop (round + 1)
    end
  in
  loop 0
(* [@@zero_alloc_hot] makes rblint (R5, dune build @lint) reject any list
   traversal or closure-allocating array iteration introduced into this
   round loop; test/test_alloc.ml checks the complementary dynamic claim
   with Gc.minor_words. *)
[@@zero_alloc_hot]
