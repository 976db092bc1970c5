(* Alloc-budget tests: the dynamic half of the zero-allocation invariant
   that rblint's R5 enforces statically (DESIGN.md §8).

   The engine's steady-state round loop must allocate nothing on the minor
   heap beyond the [Received] wrappers handed to successful listeners (the
   [Transmit] packets are the protocol's own, counted against it), also
   in rounds where it wakes passive listeners.  The
   Runner's shard loop must allocate O(1) words per item, independent of
   both the item count and the graph size.  On the protocol's side, coin
   draws allocate nothing, a whole Decay broadcast stays within its
   setup plus the delivery wrappers, and the GST assignment phase's
   awake-set enumeration allocates nothing.  All are measured with
   [Gc.minor_words] deltas captured into preallocated float arrays, so the
   measurement itself allocates nothing between the marks. *)

open Rn_util
open Rn_graph
open Rn_radio

(* The Runner budgets below rely on lane [j] being pinned to executor
   [j], i.e. on real worker domains; on small machines the pool's
   hardware cap would otherwise degrade every lane to the calling
   domain. *)
let () =
  Atomic.set Runner.Pool.size_cap (max 8 (Atomic.get Runner.Pool.size_cap))

(* Minor-heap words allocated by [rounds] steady-state rounds, measured
   after [warmup] rounds so per-run scratch setup is excluded. *)
let engine_round_words ?metrics ~graph ~protocol ~warmup ~rounds () =
  let marks = [| 0.0; 0.0 |] in
  let after_round ~round =
    if round = warmup then marks.(0) <- Gc.minor_words ()
    else if round = warmup + rounds then marks.(1) <- Gc.minor_words ()
  in
  let (_ : Engine.outcome) =
    Engine.run ?metrics ~after_round ~graph
      ~detection:Engine.Collision_detection ~protocol
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:(warmup + rounds + 2) ()
  in
  marks.(1) -. marks.(0)

let star n =
  Graph.create ~n ~edges:(List.init (n - 1) (fun i -> (0, i + 1)))

(* A quiet network — everyone listens, nobody transmits — must drive the
   round loop at exactly zero minor-heap words per round. *)
let test_quiet_round_loop () =
  let graph = star 512 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let words = engine_round_words ~graph ~protocol ~warmup:16 ~rounds:256 () in
  Alcotest.(check (float 0.0))
    "quiet steady-state rounds allocate zero minor words" 0.0 words

(* The same zero-word bound with a metrics registry attached: record_round
   and set_phase are pure int mutation on preallocated arrays, so enabling
   observability must not cost a single word on the round loop. *)
let test_quiet_round_loop_with_metrics () =
  let graph = star 512 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let metrics = Rn_obs.Metrics.create ~ring:1024 () in
  let words =
    engine_round_words ~metrics ~graph ~protocol ~warmup:16 ~rounds:256 ()
  in
  Alcotest.(check (float 0.0))
    "metrics-enabled quiet rounds allocate zero minor words" 0.0 words;
  Alcotest.(check bool) "registry recorded the rounds" true
    (Rn_obs.Metrics.rounds metrics >= 256)

(* A busy star: the hub transmits a preallocated packet every round, all
   leaves listen and are delivered.  The only legal per-round allocation is
   one [Received] wrapper per delivery — budget 4 words each (block + header
   + slack) and a constant per round.  A reintroduced per-transmitter or
   per-node allocation blows this budget immediately. *)
let test_busy_round_loop_delivery_budget () =
  let leaves = 63 in
  let graph = star (leaves + 1) in
  let tx = Engine.Transmit 7 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node -> if node = 0 then tx else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let rounds = 128 in
  let words =
    engine_round_words ~graph ~protocol ~warmup:16 ~rounds ()
  in
  let budget = float_of_int (rounds * ((4 * leaves) + 8)) in
  Alcotest.(check bool)
    (Printf.sprintf
       "busy rounds stay within the delivery budget (%.0f words <= %.0f)"
       words budget)
    true
    (words <= budget);
  (* same traffic, same budget, with the registry recording every round *)
  let metrics = Rn_obs.Metrics.create () in
  let words_m =
    engine_round_words ~metrics ~graph ~protocol ~warmup:16 ~rounds ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "metrics add no allocation (%.0f words <= %.0f)" words_m
       budget)
    true
    (words_m <= budget)

(* Allocation must track the active set, not the graph: one transmitter and
   one listener inside a 4096-node graph stay under a tiny constant per
   round even though n is large. *)
let test_round_loop_independent_of_n () =
  let n = 4096 in
  let graph = star n in
  let tx = Engine.Transmit 1 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node ->
          if node = 0 then tx
          else if node = 1 then Engine.Listen
          else Engine.Sleep);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let rounds = 128 in
  let words = engine_round_words ~graph ~protocol ~warmup:16 ~rounds () in
  let budget = float_of_int (rounds * 16) in
  Alcotest.(check bool)
    (Printf.sprintf "1 tx + 1 rx in n=4096 stays O(active) (%.0f <= %.0f)"
       words budget)
    true
    (words <= budget)

(* Sparse engine: same marker trick, driving [Engine_sparse.run]. *)
let sparse_round_words ?decide_active ?passive ?metrics ~graph ~protocol
    ~warmup ~rounds () =
  let marks = [| 0.0; 0.0 |] in
  let after_round ~round =
    if round = warmup then marks.(0) <- Gc.minor_words ()
    else if round = warmup + rounds then marks.(1) <- Gc.minor_words ()
  in
  let (_ : Engine.outcome) =
    Engine_sparse.run ?decide_active ?passive ?metrics ~after_round
      ~graph ~detection:Engine.Collision_detection ~protocol
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:(warmup + rounds + 2) ()
  in
  marks.(1) -. marks.(0)

(* The O(active) bound under the [decide_active] fast path, which only the
   sparse engine takes: two awake nodes inside a 2048-node star, the rest
   never decided. *)
let test_active_set_round_loop () =
  let n = 2048 in
  let graph = star n in
  let tx = Engine.Transmit 1 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node -> if node = 0 then tx else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let decide_active ~round:_ (buf : int array) =
    buf.(0) <- 0;
    buf.(1) <- 5;
    2
  in
  let rounds = 128 in
  let words =
    sparse_round_words ~decide_active ~graph ~protocol ~warmup:16 ~rounds ()
  in
  let budget = float_of_int (rounds * 16) in
  Alcotest.(check bool)
    (Printf.sprintf "decide_active loop stays O(active) (%.0f <= %.0f)" words
       budget)
    true
    (words <= budget)

(* Sparse quiet rounds — everyone listens, nobody transmits, Silence
   deliveries elided — must be exactly zero words per round even with the
   metrics registry recording every round. *)
let test_sparse_quiet_round_loop () =
  let graph = star 512 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let metrics = Rn_obs.Metrics.create ~ring:1024 () in
  let words =
    sparse_round_words ~metrics ~graph ~protocol ~warmup:16 ~rounds:256 ()
  in
  Alcotest.(check (float 0.0))
    "sparse quiet rounds allocate zero minor words" 0.0 words;
  Alcotest.(check bool) "registry recorded the rounds" true
    (Rn_obs.Metrics.rounds metrics >= 256)

(* The skip fast path — every round's awake set empty, so every round is
   fast-forwarded, metrics still recording a zero row per skipped round —
   must also run at zero words per round. *)
let test_sparse_skip_fast_path () =
  let graph = star 512 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let metrics = Rn_obs.Metrics.create ~ring:1024 () in
  let decide_active ~round:_ (_ : int array) = 0 in
  let words =
    sparse_round_words ~metrics ~decide_active ~graph ~protocol ~warmup:16
      ~rounds:256 ()
  in
  Alcotest.(check (float 0.0))
    "skipped rounds allocate zero minor words" 0.0 words;
  Alcotest.(check bool) "registry recorded the skipped rounds" true
    (Rn_obs.Metrics.rounds metrics >= 256)

(* Sparse busy rounds obey the same delivery-only budget as the dense
   engine: one [Received] wrapper per clean delivery, a constant per
   round, nothing proportional to n. *)
let test_sparse_busy_budget () =
  let leaves = 63 in
  let graph = star (leaves + 1) in
  let tx = Engine.Transmit 7 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node -> if node = 0 then tx else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let rounds = 128 in
  let words = sparse_round_words ~graph ~protocol ~warmup:16 ~rounds () in
  let budget = float_of_int (rounds * ((4 * leaves) + 8)) in
  Alcotest.(check bool)
    (Printf.sprintf
       "sparse busy rounds stay within the delivery budget (%.0f <= %.0f)"
       words budget)
    true
    (words <= budget)

(* A collision-heavy busy round: K₆₄ with the even nodes
   transmitting, so each of the 32 listeners hears 32 packets and
   collides.  The spray visits 32·63 edges a round and the deliver phase
   hands out a constant [Collision]; with no [Received] box owed, the
   round loop must allocate exactly zero words. *)
let test_sparse_collision_round () =
  let graph = Gen.complete 64 in
  let tx = Engine.Transmit 7 in
  let collisions = ref 0 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node -> if node mod 2 = 0 then tx else Engine.Listen);
      deliver =
        (fun ~round:_ ~node:_ -> function
          | Engine.Collision -> incr collisions
          | Engine.Received _ | Engine.Silence -> ());
    }
  in
  let words = sparse_round_words ~graph ~protocol ~warmup:16 ~rounds:128 () in
  Alcotest.(check bool) "every listener collided every round" true
    (!collisions = 32 * (16 + 128 + 2));
  Alcotest.(check (float 0.0))
    "collided listeners allocate zero minor words" 0.0 words

(* The same K₆₄ round with the listeners passive: only the 32 even
   transmitters are decided, and the wake walk turns the 32 odd nodes into
   listeners, each of which collides.  The walk, like the spray, must
   allocate nothing, so the round loop stays at exactly zero words. *)
let test_sparse_passive_woken_round () =
  let graph = Gen.complete 64 in
  let tx = Engine.Transmit 7 in
  let collisions = ref 0 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node -> if node mod 2 = 0 then tx else Engine.Listen);
      deliver =
        (fun ~round:_ ~node:_ -> function
          | Engine.Collision -> incr collisions
          | Engine.Received _ | Engine.Silence -> ());
    }
  in
  let decide_active ~round:_ (buf : int array) =
    for i = 0 to 31 do
      buf.(i) <- 2 * i
    done;
    32
  in
  let passive = Array.init 64 (fun v -> v mod 2 = 1) in
  let words =
    sparse_round_words ~decide_active ~passive ~graph ~protocol ~warmup:16
      ~rounds:128 ()
  in
  Alcotest.(check bool) "every woken listener collided every round" true
    (!collisions = 32 * (16 + 128 + 2));
  Alcotest.(check (float 0.0))
    "passive-woken rounds allocate zero minor words" 0.0 words

(* Engine set-up costs the nodes a run touches: the first run in a domain
   builds the workspace (five n-sized arrays, allocated straight in the
   major heap), and a second run on the same graph reuses it.  Two awake
   nodes of a 4096-node star over a few rounds must then allocate fewer
   major-heap words than the graph has nodes. *)
let test_second_run_reuses_workspace () =
  let n = 4096 in
  let graph = star n in
  let tx = Engine.Transmit 1 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node -> if node = 0 then tx else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let decide_active ~round:_ (buf : int array) =
    buf.(0) <- 0;
    buf.(1) <- 5;
    2
  in
  (* A domain's major-heap counter catches up with its direct major
     allocations only at a minor collection, so one closes each side of
     the window. *)
  let run () =
    Gc.minor ();
    let before = Gc.quick_stat () in
    let (_ : Engine.outcome) =
      Drive.run ~decide_active ~graph ~detection:Engine.Collision_detection
        ~protocol
        ~stop:(fun ~round:_ -> false)
        ~max_rounds:8 ()
    in
    Gc.minor ();
    let after = Gc.quick_stat () in
    after.Gc.major_words -. before.Gc.major_words
    -. (after.Gc.promoted_words -. before.Gc.promoted_words)
  in
  let first = run () in
  let second = run () in
  Alcotest.(check bool)
    (Printf.sprintf "first run builds the workspace (%.0f major words)" first)
    true
    (first >= float_of_int n);
  Alcotest.(check bool)
    (Printf.sprintf "second run allocates %.0f < n = %d major words" second n)
    true
    (second < float_of_int n)

(* Runner shard loop: every domain lane records Gc.minor_words (its own
   domain's counter) at each item it processes; the delta between two
   consecutive items of the same lane is the steady-state cost of one
   while-loop iteration.  Since [map] rides on [map_array]'s preallocated
   lane slots there is no per-element [Some] cell any more — the loop
   body is a bare store. *)
let test_runner_shard_loop () =
  let k = 1024 and d = 4 in
  let marks = Array.make k 0.0 in
  let items = List.init k (fun i -> i) in
  let f i =
    marks.(i) <- Gc.minor_words ();
    i * 2
  in
  let out = Runner.map ~domains:d f items in
  Alcotest.(check int) "all items mapped" k (List.length out);
  let worst = ref 0.0 in
  (* skip each lane's first stride: domain startup allocs land before it *)
  for i = d to k - d - 1 do
    let delta = marks.(i + d) -. marks.(i) in
    if delta > !worst then worst := delta
  done;
  Alcotest.(check bool)
    (Printf.sprintf "shard-loop iteration allocates <= 8 words (worst %.0f)"
       !worst)
    true
    (!worst <= 8.0)

(* map_array steady-state dispatch: the array-in/array-out entry point has
   no list conversion at either end, so between two consecutive items of a
   lane the only allocation permitted is whatever [f] itself does (here:
   none — unboxed int results into the preallocated lane array). *)
let test_runner_map_array_dispatch () =
  let k = 2048 and d = 4 in
  let marks = Array.make k 0.0 in
  let items = Array.init k (fun i -> i) in
  let f i =
    marks.(i) <- Gc.minor_words ();
    i * 3
  in
  let out = Runner.map_array ~domains:d f items in
  Alcotest.(check int) "all items mapped" k (Array.length out);
  Alcotest.(check int) "input order restored" 51 out.(17);
  let worst = ref 0.0 in
  for i = d to k - d - 1 do
    let delta = marks.(i + d) -. marks.(i) in
    if delta > !worst then worst := delta
  done;
  Alcotest.(check bool)
    (Printf.sprintf
       "map_array dispatch iteration allocates <= 8 words (worst %.0f)"
       !worst)
    true
    (!worst <= 8.0)

(* Serial path budget: the d <= 1 fast path may allocate the result list
   but must stay O(1) words per item. *)
let test_runner_serial_budget () =
  let k = 8192 in
  let items = List.init k (fun i -> i) in
  let marks = [| 0.0; 0.0 |] in
  marks.(0) <- Gc.minor_words ();
  let out = Runner.map ~domains:1 (fun i -> i + 1) items in
  marks.(1) <- Gc.minor_words ();
  Alcotest.(check int) "all items mapped" k (List.length out);
  let per_item = (marks.(1) -. marks.(0)) /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "serial map allocates <= 32 words/item (got %.1f)"
       per_item)
    true
    (per_item <= 32.0)

(* The protocol's side of a round.  Every coin draw must be
   allocation-free: the generator state is unboxed and each draw returns
   an immediate, so 10⁴ draws cost exactly zero minor words. *)
let draw_words draw =
  let rng = Rng.create ~seed:7 in
  let marks = [| 0.0; 0.0 |] in
  let hits = ref 0 in
  marks.(0) <- Gc.minor_words ();
  for i = 1 to 10_000 do
    if draw rng i then incr hits
  done;
  marks.(1) <- Gc.minor_words ();
  marks.(1) -. marks.(0)

let test_coin_draws_zero_alloc () =
  List.iter
    (fun (name, draw) ->
      Alcotest.(check (float 0.0))
        (name ^ ": 10^4 draws allocate zero minor words")
        0.0 (draw_words draw))
    [
      ("coin_pow2", fun rng i -> Rng.coin_pow2 rng (i mod 70));
      ("bernoulli", fun rng _ -> Rng.bernoulli rng 0.3);
      ("int", fun rng i -> Rng.int rng (1 + (i mod 1000)) = 0);
      ("bool", fun rng _ -> Rng.bool rng);
    ]

(* A whole Decay broadcast: setup linear in n (the per-node streams and
   arrays), one [Received] wrapper per delivery, and a constant per round.
   A per-draw allocation — a boxed Int64 state or a boxed float
   probability — costs words per informed node per round and blows the
   budget several times over. *)
let test_decay_broadcast_budget () =
  let graph =
    Gen.layered_random ~rng:(Rng.create ~seed:3) ~depth:40 ~width:50 ~p:0.2
  in
  let n = Graph.n graph in
  let marks = [| 0.0; 0.0 |] in
  marks.(0) <- Gc.minor_words ();
  let r =
    Rn_broadcast.Decay.broadcast ~rng:(Rng.create ~seed:5) ~graph ~source:0 ()
  in
  marks.(1) <- Gc.minor_words ();
  let words = marks.(1) -. marks.(0) in
  let st = r.Rn_broadcast.Decay.stats in
  Alcotest.(check bool) "broadcast completed" true
    (match r.Rn_broadcast.Decay.outcome with
    | Engine.Completed _ -> true
    | Engine.Out_of_budget _ -> false);
  let budget =
    float_of_int
      ((16 * n) + (4 * st.Engine.deliveries) + (64 * st.Engine.rounds))
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "Decay.broadcast n=%d allocates <= 16n + 4*deliveries + 64*rounds \
        (%.0f <= %.0f)"
       n words budget)
    true (words <= budget)

(* The level-index map a layered construction shares among its
   Bipartite_assignment blocks, for one red and one blue level. *)
let level_pos ~n ~reds ~blues =
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) reds;
  Array.iteri (fun i v -> pos.(v) <- i) blues;
  pos

(* The GST assignment phase's awake-set enumeration: one small level pair
   stepped through every stage by its own [decide]/[deliver]/[advance]
   under a full-scan mini driver (no collision detection), with each
   [awake] call bracketed by [Gc.minor_words].  The stepping also checks
   that every transmitter was in the enumerated set. *)
let test_assignment_awake_zero_alloc () =
  let graph =
    Gen.layered_random ~rng:(Rng.create ~seed:11) ~depth:2 ~width:12 ~p:0.4
  in
  let n = Graph.n graph in
  let reds = Array.init 12 (fun i -> 1 + i) in
  let blues = Array.init 12 (fun i -> 13 + i) in
  let parents = Array.make n (-1) and parent_rank = Array.make n (-1) in
  let ranks = Array.make n 0 in
  Array.iter (fun b -> ranks.(b) <- 1) blues;
  let module B = Rn_broadcast.Bipartite_assignment in
  let t =
    B.create ~rng:(Rng.create ~seed:13) ~params:Rn_broadcast.Params.default
      ~scale_n:n ~graph ~reds ~blues ~pos:(level_pos ~n ~reds ~blues)
      ~parents ~ranks ~parent_rank
      ~ready:(fun ~rank:_ -> true)
      ()
  in
  let buf = Array.make n 0 and in_set = Array.make n false in
  let acts = Array.make n Engine.Sleep in
  let marks = [| 0.0; 0.0 |] and words = [| 0.0 |] in
  let rounds = ref 0 and awake_rounds = ref 0 and missed = ref 0 in
  while (not (B.finished t)) && !rounds < 1_000_000 do
    marks.(0) <- Gc.minor_words ();
    let k = B.awake t buf 0 in
    marks.(1) <- Gc.minor_words ();
    words.(0) <- words.(0) +. (marks.(1) -. marks.(0));
    if k > 0 then incr awake_rounds;
    Array.fill in_set 0 n false;
    for i = 0 to k - 1 do
      in_set.(buf.(i)) <- true
    done;
    for v = 0 to n - 1 do
      acts.(v) <- B.decide t ~node:v;
      match acts.(v) with
      | Engine.Transmit _ when not in_set.(v) -> incr missed
      | _ -> ()
    done;
    for v = 0 to n - 1 do
      match acts.(v) with
      | Engine.Sleep | Engine.Transmit _ -> ()
      | Engine.Listen ->
          let heard =
            Graph.fold_neighbors graph v
              (fun acc u ->
                match (acts.(u), acc) with
                | Engine.Transmit m, None -> Some (Some m)
                | Engine.Transmit _, Some _ -> Some None
                | _ -> acc)
              None
          in
          B.deliver t ~node:v
            (match heard with
            | Some (Some m) -> Engine.Received m
            | Some None | None -> Engine.Silence)
    done;
    B.advance t;
    incr rounds
  done;
  Alcotest.(check bool) "assignment finished" true (B.finished t);
  Alcotest.(check bool) "every blue has a parent" true
    (Array.for_all (fun b -> parents.(b) >= 0) blues);
  Alcotest.(check int) "transmitters outside the awake set" 0 !missed;
  Alcotest.(check bool) "some rounds wake nodes" true (!awake_rounds > 0);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "awake over %d rounds allocate 0 words" !rounds)
    0.0 words.(0)

(* A bipartite block sizes its per-node state by its members: with the
   level-index map built once outside, a 2-red, 3-blue block inside a
   10⁵-node graph allocates a few hundred words, where node-indexed
   state would cost 12 n-sized arrays (1.2M words).  Arrays above 256
   words bypass the minor heap, so this counts the words allocated
   directly in the major heap too, not only minor words. *)
let test_assignment_create_member_sized () =
  let n = 100_000 in
  let reds = [| 10; 20 |] and blues = [| 30; 40; 50 |] in
  let graph =
    Graph.create ~n ~edges:[ (10, 30); (10, 40); (20, 40); (20, 50) ]
  in
  let pos = level_pos ~n ~reds ~blues in
  let parents = Array.make n (-1) and parent_rank = Array.make n (-1) in
  let ranks = Array.make n 0 in
  let rng = Rng.create ~seed:17 and ready ~rank:_ = true in
  let marks = [| 0.0; 0.0 |] in
  Gc.minor ();
  let before = Gc.quick_stat () in
  marks.(0) <- Gc.minor_words ();
  let t =
    Rn_broadcast.Bipartite_assignment.create ~rng
      ~params:Rn_broadcast.Params.default ~scale_n:n ~graph ~reds ~blues ~pos
      ~parents ~ranks ~parent_rank ~ready ()
  in
  marks.(1) <- Gc.minor_words ();
  Gc.minor ();
  let after = Gc.quick_stat () in
  ignore (Sys.opaque_identity t);
  (* Words promoted by a minor collection inside the window are counted
     once, as minor words. *)
  let words =
    marks.(1) -. marks.(0)
    +. (after.Gc.major_words -. before.Gc.major_words)
    -. (after.Gc.promoted_words -. before.Gc.promoted_words)
  in
  let budget = 400.0 in
  Alcotest.(check bool)
    (Printf.sprintf
       "create with 5 members in n=%d allocates <= %.0f words (%.0f)" n
       budget words)
    true (words <= budget)

let () =
  Alcotest.run "alloc"
    [
      ( "engine",
        [
          Alcotest.test_case "quiet loop is allocation-free" `Quick
            test_quiet_round_loop;
          Alcotest.test_case "quiet loop with metrics" `Quick
            test_quiet_round_loop_with_metrics;
          Alcotest.test_case "busy loop: deliveries only" `Quick
            test_busy_round_loop_delivery_budget;
          Alcotest.test_case "allocation independent of n" `Quick
            test_round_loop_independent_of_n;
          Alcotest.test_case "decide_active loop" `Quick
            test_active_set_round_loop;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "quiet loop with metrics" `Quick
            test_sparse_quiet_round_loop;
          Alcotest.test_case "skip fast path with metrics" `Quick
            test_sparse_skip_fast_path;
          Alcotest.test_case "busy loop: deliveries only" `Quick
            test_sparse_busy_budget;
          Alcotest.test_case "collision-heavy K64 round" `Quick
            test_sparse_collision_round;
          Alcotest.test_case "passive-woken rounds" `Quick
            test_sparse_passive_woken_round;
          Alcotest.test_case "second run reuses the workspace" `Quick
            test_second_run_reuses_workspace;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "coin draws are allocation-free" `Quick
            test_coin_draws_zero_alloc;
          Alcotest.test_case "Decay.broadcast budget" `Quick
            test_decay_broadcast_budget;
          Alcotest.test_case "assignment awake sets zero-alloc" `Quick
            test_assignment_awake_zero_alloc;
          Alcotest.test_case "assignment block sized by members" `Quick
            test_assignment_create_member_sized;
        ] );
      ( "runner",
        [
          Alcotest.test_case "shard loop O(1)/item" `Quick
            test_runner_shard_loop;
          Alcotest.test_case "map_array dispatch zero-alloc" `Quick
            test_runner_map_array_dispatch;
          Alcotest.test_case "serial path budget" `Quick
            test_runner_serial_budget;
        ] );
    ]
