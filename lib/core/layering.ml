open Rn_util
open Rn_graph
open Rn_radio

type result = { levels : int array; rounds : int }

(* [order] lists the labeled nodes in labeling order, which is a BFS
   order: [order.(lo .. hi-1)] is the front (the nodes labeled last),
   [order.(hi .. top-1)] its unlabeled neighbours, queued once each. *)
type wave = {
  graph : Graph.t;
  levels : int array;
  order : int array;
  queued : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable top : int;
}

let push w v =
  w.order.(w.top) <- v;
  w.top <- w.top + 1

let queue_listeners w =
  for i = w.lo to w.hi - 1 do
    Graph.iter_neighbors w.graph w.order.(i) (fun u ->
        if w.levels.(u) < 0 && Bytes.get w.queued u = '\000' then begin
          Bytes.set w.queued u '\001';
          push w u
        end)
  done

let wave ~graph ~levels ~sources =
  let n = Graph.n graph in
  let w =
    {
      graph;
      levels;
      order = Array.make n 0;
      queued = Bytes.make n '\000';
      lo = 0;
      hi = 0;
      top = 0;
    }
  in
  Array.iter
    (fun s ->
      if levels.(s) < 0 then begin
        levels.(s) <- 0;
        push w s
      end)
    sources;
  w.hi <- w.top;
  queue_listeners w;
  w

let wave_awake w buf =
  Array.blit w.order w.lo buf 0 (w.top - w.lo);
  w.top - w.lo

let wave_advance w =
  w.lo <- w.hi;
  w.hi <- w.top;
  queue_listeners w

let decay_bfs ?(params = Params.default) ?max_rounds ~rng ~graph ~sources () =
  let n = Graph.n graph in
  let ladder = Params.phase_len ~n in
  let epoch_len = Params.whp_rounds params ~n in
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None -> params.Params.max_round_factor * (n + 2) * epoch_len
  in
  let node_rng = Rng.split_n rng n in
  let levels = Array.make n (-1) in
  (* Front bookkeeping, all between rounds (set-up and [after_round]):
     [pending.(v)] counts v's unlabeled neighbours; [relays] holds the
     labeled nodes with one, [listeners] the unlabeled nodes with a
     labeled neighbour.  A node enters [listeners] once ([queued]) and
     leaves it once, when it is labeled and absorbed. *)
  let pending = Array.init n (Graph.degree graph) in
  let relays = Array.make n 0 and n_relays = ref 0 in
  let listeners = Array.make n 0 and n_listeners = ref 0 in
  let queued = Bytes.make n '\000' in
  let enqueue u =
    Bytes.set queued u '\001';
    listeners.(!n_listeners) <- u;
    incr n_listeners
  in
  let absorb v =
    Graph.iter_neighbors graph v (fun u ->
        pending.(u) <- pending.(u) - 1;
        if levels.(u) < 0 && Bytes.get queued u = '\000' then enqueue u);
    relays.(!n_relays) <- v;
    incr n_relays
  in
  (* Absorb every labeled listener, keep the rest (plus the newly queued
     ones, appended past the old count), then retire the relays left with
     no unlabeled neighbour: pending only falls, so they stay retired. *)
  let settle () =
    let m = !n_listeners in
    let k = ref 0 in
    for i = 0 to m - 1 do
      let v = listeners.(i) in
      if levels.(v) < 0 then begin
        listeners.(!k) <- v;
        incr k
      end
      else absorb v
    done;
    let added = !n_listeners - m in
    Array.blit listeners m listeners !k added;
    n_listeners := !k + added;
    let k = ref 0 in
    for i = 0 to !n_relays - 1 do
      let v = relays.(i) in
      if pending.(v) > 0 then begin
        relays.(!k) <- v;
        incr k
      end
    done;
    n_relays := !k
  in
  (* The distinct sources enter as labeled listeners, so [settle] absorbs
     each exactly once. *)
  Array.iter
    (fun s ->
      if levels.(s) < 0 then begin
        levels.(s) <- 0;
        enqueue s
      end)
    sources;
  let labeled = Atomic.make !n_listeners in
  settle ();
  let absorbed = ref (Atomic.get labeled) in
  let after_round ~round:_ =
    let now = Atomic.get labeled in
    if now <> !absorbed then begin
      absorbed := now;
      settle ()
    end
  in
  (* Nodes labeled during epoch [e] have level [e + 1]; they join the
     relays from the next epoch on. *)
  let epoch_of round = round / epoch_len in
  let decide ~round ~node =
    let lvl = levels.(node) in
    if lvl >= 0 && lvl <= epoch_of round then begin
      if Rng.coin_pow2 node_rng.(node) (Decay.exponent ~ladder round) then
        Engine.Transmit Cmsg.Probe
      else Engine.Listen
    end
    else if lvl < 0 then Engine.Listen
    else Engine.Sleep
  in
  (* Awake: the relays of the epoch and the listeners.  A retired relay's
     probes reach only labeled nodes, whose deliver is a no-op, and its
     coin stream is never read again; an unlabeled node outside
     [listeners] has no labeled, hence no transmitting, neighbour. *)
  let decide_active ~round (buf : int array) =
    let e = epoch_of round in
    let k = ref 0 in
    for i = 0 to !n_relays - 1 do
      let v = relays.(i) in
      if levels.(v) <= e then begin
        buf.(!k) <- v;
        incr k
      end
    done;
    Array.blit listeners 0 buf !k !n_listeners;
    !k + !n_listeners
  in
  let deliver ~round ~node reception =
    match reception with
    | Engine.Received Cmsg.Probe ->
        if levels.(node) < 0 then begin
          levels.(node) <- epoch_of round + 1;
          Atomic.incr labeled
        end
    | Engine.Received _ | Engine.Silence | Engine.Collision -> ()
  in
  let protocol = { Engine.decide; deliver } in
  let stop ~round = Atomic.get labeled = n && round mod epoch_len = 0 in
  (* finish on epoch boundary *)
  let outcome =
    Drive.run ~after_round ~decide_active ~graph
      ~detection:Engine.No_collision_detection ~protocol ~stop ~max_rounds ()
  in
  { levels; rounds = Engine.rounds_of_outcome outcome }

let collision_wave ~graph ~sources () =
  let n = Graph.n graph in
  let levels = Array.make n (-1) in
  let front = wave ~graph ~levels ~sources in
  let labeled = Atomic.make front.hi in
  (* A node beeps once, in the round of its level: by then every
     neighbour is labeled or hears it, so later beeps could reach only
     labeled nodes. *)
  let decide ~round ~node =
    let lvl = levels.(node) in
    if lvl = round then Engine.Transmit Cmsg.Beacon
    else if lvl < 0 then Engine.Listen
    else Engine.Sleep
  in
  let deliver ~round ~node reception =
    match reception with
    | Engine.Received _ | Engine.Collision ->
        if levels.(node) < 0 then begin
          levels.(node) <- round + 1;
          Atomic.incr labeled
        end
    | Engine.Silence -> ()
  in
  let outcome =
    Drive.run ~graph ~detection:Engine.Collision_detection
      ~protocol:{ Engine.decide; deliver }
      ~after_round:(fun ~round:_ -> wave_advance front)
      ~decide_active:(fun ~round:_ buf -> wave_awake front buf)
      ~stop:(fun ~round:_ -> Atomic.get labeled = n)
      ~max_rounds:(n + 1) ()
  in
  { levels; rounds = Engine.rounds_of_outcome outcome }
