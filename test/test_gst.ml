open Rn_util
open Rn_graph
module Topo = Rn_graph.Gen
open Rn_broadcast

let rng seed = Rng.create ~seed

(* ------------------------------------------------------------------ *)
(* Ranked BFS *)

let test_ranks_path () =
  (* A path is a single stretch: every node rank 1. *)
  let parents = [| -1; 0; 1; 2 |] and levels = [| 0; 1; 2; 3 |] in
  Alcotest.(check (array int)) "all rank 1" [| 1; 1; 1; 1 |]
    (Ranked_bfs.ranks ~parents ~levels)

let test_ranks_binary_tree () =
  (* Complete binary tree of depth 2: leaves 1, mid 2, root 3. *)
  let parents = [| -1; 0; 0; 1; 1; 2; 2 |] and levels = [| 0; 1; 1; 2; 2; 2; 2 |] in
  Alcotest.(check (array int)) "ranks" [| 3; 2; 2; 1; 1; 1; 1 |]
    (Ranked_bfs.ranks ~parents ~levels)

let test_ranks_one_heavy_child () =
  (* Root with one rank-2 child and one rank-1 child keeps rank 2. *)
  let parents = [| -1; 0; 0; 1; 1 |] and levels = [| 0; 1; 1; 2; 2 |] in
  Alcotest.(check (array int)) "ranks" [| 2; 2; 1; 1; 1 |]
    (Ranked_bfs.ranks ~parents ~levels)

let test_ranks_outside_nodes () =
  let parents = [| -1; 0; -1 |] and levels = [| 0; 1; -1 |] in
  Alcotest.(check (array int)) "outsider rank 0" [| 1; 1; 0 |]
    (Ranked_bfs.ranks ~parents ~levels)

let test_ranks_bad_levels () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Ranked_bfs.ranks ~parents:[| -1; 0 |] ~levels:[| 0; 2 |]);
       false
     with Invalid_argument _ -> true)

let test_subtree_sizes () =
  let parents = [| -1; 0; 0; 1; 1; 2; 2 |] in
  Alcotest.(check (array int)) "sizes" [| 7; 3; 3; 1; 1; 1; 1 |]
    (Ranked_bfs.subtree_sizes ~parents)

let test_check_rank_rule_detects_error () =
  let parents = [| -1; 0; 0 |] in
  (match Ranked_bfs.check_rank_rule ~parents ~ranks:[| 2; 1; 1 |] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Ranked_bfs.check_rank_rule ~parents ~ranks:[| 1; 1; 1 |] with
  | Ok () -> Alcotest.fail "should reject root rank 1 with two rank-1 children"
  | Error _ -> ()

(* Rank bound via subtree doubling: rank r needs >= 2^(r-1) nodes. *)
let test_rank_subtree_doubling () =
  let g = Topo.balanced_tree ~arity:2 ~depth:5 in
  let levels, parents = Bfs.levels_and_parents g ~src:0 in
  let ranks = Ranked_bfs.ranks ~parents ~levels in
  let sizes = Ranked_bfs.subtree_sizes ~parents in
  Array.iteri
    (fun v r ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d: 2^(r-1) <= size" v)
        true
        (Ilog.pow2 (r - 1) <= sizes.(v)))
    ranks

(* ------------------------------------------------------------------ *)
(* Centralized GST construction *)

let build g src = Gst.build_centralized ~graph:g ~roots:[| src |] ()

let check_valid name t =
  match Gst.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" name e)

let test_gst_path () =
  let t = build (Topo.path 6) 0 in
  check_valid "path" t;
  Alcotest.(check int) "single stretch: all rank 1" 1
    (Ranked_bfs.max_rank t.Gst.ranks);
  Alcotest.(check (array int)) "roots" [| 0 |] (Gst.roots t);
  Alcotest.(check int) "size" 6 (Gst.size t)

let test_gst_star () =
  let t = build (Topo.star 8) 0 in
  check_valid "star" t;
  Alcotest.(check int) "center rank 2" 2 t.Gst.ranks.(0);
  for v = 1 to 7 do
    Alcotest.(check int) "leaf rank 1" 1 t.Gst.ranks.(v)
  done

let test_gst_single_node () =
  let t = build (Topo.path 1) 0 in
  check_valid "single node" t;
  Alcotest.(check int) "rank" 1 t.Gst.ranks.(0)

let test_gst_complete () =
  let t = build (Topo.complete 9) 0 in
  check_valid "complete" t

let test_gst_grid () =
  let t = build (Topo.grid ~w:5 ~h:5) 0 in
  check_valid "grid" t

let test_gst_multi_root () =
  let g = Topo.grid ~w:6 ~h:3 in
  let t = Gst.build_centralized ~graph:g ~roots:[| 0; 1; 2 |] () in
  check_valid "multi root" t;
  Alcotest.(check (array int)) "roots kept" [| 0; 1; 2 |] (Gst.roots t)

let test_gst_ring_levels () =
  (* Build on a band of a path: nodes 2..5 of an 8-path, with ring-local
     levels; outside nodes must stay outside. *)
  let g = Topo.path 8 in
  let levels = Array.make 8 (-1) in
  for v = 2 to 5 do
    levels.(v) <- v - 2
  done;
  let t = Gst.build_centralized ~graph:g ~levels ~roots:[| 2 |] () in
  check_valid "band" t;
  Alcotest.(check bool) "node 0 outside" false (Gst.in_forest t 0);
  Alcotest.(check bool) "node 6 outside" false (Gst.in_forest t 6);
  Alcotest.(check int) "band size" 4 (Gst.size t)

let test_gst_stretches_path () =
  let t = build (Topo.path 5) 0 in
  Alcotest.(check bool) "root is head" true (Gst.is_stretch_head t 0);
  Alcotest.(check bool) "interior not head" false (Gst.is_stretch_head t 2);
  Alcotest.(check (list int)) "one stretch covers path" [ 0; 1; 2; 3; 4 ]
    (Gst.stretch_members t 0);
  Alcotest.(check (list int)) "non-head has no members" []
    (Gst.stretch_members t 3)

let test_gst_stretch_head_map () =
  let t = build (Topo.path 4) 0 in
  Alcotest.(check (array int)) "heads" [| 0; 0; 0; 0 |] (Gst.stretch_head_of t)

let test_virtual_distance_path () =
  (* Whole path is one stretch: every non-root node is one fast edge away. *)
  let t = build (Topo.path 6) 0 in
  let d = Gst.virtual_distances t in
  Alcotest.(check int) "root" 0 d.(0);
  for v = 1 to 5 do
    Alcotest.(check int) (Printf.sprintf "node %d" v) 1 d.(v)
  done

let test_virtual_distance_bound () =
  (* Lemma 3.4: d_u <= 2 ceil(log2 n) (+ repairs, which we count). *)
  let check g =
    let t = build g 0 in
    let d = Gst.virtual_distances t in
    let bound = (2 * Ilog.clog (max 2 (Graph.n g))) + Gst.override_count t in
    Array.iteri
      (fun v dv ->
        if Gst.in_forest t v then
          Alcotest.(check bool)
            (Printf.sprintf "d_%d=%d <= %d" v dv bound)
            true (dv <= bound))
      d
  in
  check (Topo.balanced_tree ~arity:3 ~depth:4);
  check (Topo.grid ~w:7 ~h:7);
  check (Topo.random_connected ~rng:(rng 5) ~n:100 ~extra:150)

let test_assign_level_pair_simple () =
  (* Two blues sharing one red: red adopts both, rank 2. *)
  let g = Graph.create ~n:3 ~edges:[ (0, 1); (0, 2) ] in
  let parents = Array.make 3 (-1) and ranks = [| 0; 1; 1 |] in
  Gst.assign_level_pair ~graph:g ~reds:[| 0 |] ~blues:[| 1; 2 |]
    ~blue_rank:(fun b -> ranks.(b))
    ~parents ~ranks;
  Alcotest.(check int) "blue 1 parent" 0 parents.(1);
  Alcotest.(check int) "blue 2 parent" 0 parents.(2);
  Alcotest.(check int) "red rank" 2 ranks.(0)

let test_assign_level_pair_loner_priority () =
  (* Blue 3 is a loner of red 1; red 0 sees blues 2,3.  Loner handling must
     assign 3 to 1... actually 3's only neighbor is 1, so 1 adopts it (and
     any other neighbors). *)
  let g = Graph.create ~n:4 ~edges:[ (0, 2); (1, 2); (1, 3) ] in
  let parents = Array.make 4 (-1) and ranks = [| 0; 0; 1; 1 |] in
  Gst.assign_level_pair ~graph:g ~reds:[| 0; 1 |] ~blues:[| 2; 3 |]
    ~blue_rank:(fun b -> ranks.(b))
    ~parents ~ranks;
  Alcotest.(check int) "loner assigned to its red" 1 parents.(3);
  Alcotest.(check bool) "blue 2 assigned" true (parents.(2) >= 0)

let test_assign_unreachable_blue_raises () =
  let g = Graph.create ~n:2 ~edges:[] in
  let parents = Array.make 2 (-1) and ranks = [| 0; 1 |] in
  Alcotest.(check bool) "raises" true
    (try
       Gst.assign_level_pair ~graph:g ~reds:[| 0 |] ~blues:[| 1 |]
         ~blue_rank:(fun b -> ranks.(b))
         ~parents ~ranks;
       false
     with Invalid_argument _ -> true)

(* Figure 1 regression: the paper's example graph admits a valid GST and our
   construction finds one (we model the 15-node two-branch shape). *)
let test_gst_figure1_like () =
  let g =
    Graph.create ~n:13
      ~edges:
        [
          (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (2, 6); (3, 7); (4, 8);
          (5, 9); (6, 10); (7, 11); (8, 12);
          (* cross edges that make naive rankings collide *)
          (3, 8); (4, 7); (5, 10); (6, 9);
        ]
  in
  let t = build g 0 in
  check_valid "figure-1-like" t

(* ------------------------------------------------------------------ *)
(* qcheck properties over the centralized construction *)

let arb_graph =
  QCheck.make
    ~print:(fun (n, extra, seed) ->
      Printf.sprintf "(n=%d,extra=%d,seed=%d)" n extra seed)
    QCheck.Gen.(triple (int_range 1 80) (int_range 0 120) (int_range 0 100_000))

let graph_of (n, extra, seed) =
  Topo.random_connected ~rng:(Rng.create ~seed) ~n ~extra

(* The bucket consumers (rings, ranks, rank buckets) against the scan
   they replaced: [scan keys k] filters all n nodes for key [k]. *)
let scan keys k =
  List.init (Array.length keys) Fun.id
  |> List.filter (fun v -> keys.(v) = k)
  |> Array.of_list

(* Rank rule by recursion over scanned children. *)
let scan_ranks ~parents ~levels =
  let rec rank v =
    match
      List.filter
        (fun c -> parents.(c) = v && levels.(c) >= 0)
        (List.init (Array.length levels) Fun.id)
    with
    | [] -> 1
    | cs ->
        let rs = List.map rank cs in
        let rmax = List.fold_left max 0 rs in
        if List.length (List.filter (( = ) rmax) rs) >= 2 then rmax + 1
        else rmax
  in
  Array.mapi (fun v l -> if l < 0 then 0 else rank v) levels

let arb_layering =
  QCheck.make
    ~print:(fun (n, depth, seed) ->
      Printf.sprintf "(n=%d,depth=%d,seed=%d)" n depth seed)
    QCheck.Gen.(triple (int_range 0 40) (int_range 0 10) (int_range 0 10_000))

(* Levels in [-1, depth] with -1 = absent and possibly empty levels; each
   node of level l >= 1 hangs off a random node of level l - 1 when there
   is one (else it is a root); the ring width runs to depth + 2, past the
   deepest level, and mostly leaves the last ring shallower than it. *)
let layering_of (n, depth, seed) =
  let r = rng seed in
  let levels = Array.init n (fun _ -> Rng.int r (depth + 2) - 1) in
  let parents =
    Array.map
      (fun l ->
        let above = if l < 1 then [||] else scan levels (l - 1) in
        if Array.length above = 0 then -1
        else above.(Rng.int r (Array.length above)))
      levels
  in
  (levels, parents, 1 + Rng.int r (depth + 2))

let buckets_match_scans spec =
  let levels, parents, width = layering_of spec in
  let depth = Array.fold_left max (-1) levels in
  let t = Rings.decompose ~levels ~width in
  let ring_ok j =
    Rings.roots t j = scan levels (j * width)
    && Rings.outer_boundary t j = scan levels (((j + 1) * width) - 1)
    && Rings.ring_levels t j
       = Array.map
           (fun l -> if l >= 0 && l / width = j then l - (j * width) else -1)
           levels
  in
  let ranks = Ranked_bfs.ranks ~parents ~levels in
  let key = Array.mapi (fun v l -> if l >= 0 then ranks.(v) else -1) levels in
  t.Rings.count = (if depth < 0 then 0 else (depth / width) + 1)
  (* one ring past the last, whose layers are all empty *)
  && List.for_all ring_ok (List.init (t.Rings.count + 1) Fun.id)
  && ranks = scan_ranks ~parents ~levels
  && Bfs.by_level key
     = Array.init (Array.fold_left max (-1) key + 1) (scan key)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"layer buckets = per-key scans" ~count:500 arb_layering
      buckets_match_scans;
    Test.make ~name:"centralized GST validates" ~count:300 arb_graph (fun spec ->
        let g = graph_of spec in
        let t = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
        match Gst.validate t with Ok () -> true | Error _ -> false);
    Test.make ~name:"GST spans the graph" ~count:200 arb_graph (fun spec ->
        let g = graph_of spec in
        let t = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
        Gst.size t = Graph.n g);
    Test.make ~name:"GST levels are BFS distances" ~count:200 arb_graph
      (fun spec ->
        let g = graph_of spec in
        let t = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
        t.Gst.levels = Bfs.levels g ~src:0);
    Test.make ~name:"max rank <= ceil(log2 n)" ~count:300 arb_graph (fun spec ->
        let g = graph_of spec in
        let t = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
        Ranked_bfs.max_rank t.Gst.ranks <= Ilog.clog (max 2 (Graph.n g)));
    Test.make ~name:"virtual distances within Lemma 3.4 bound" ~count:200
      arb_graph (fun spec ->
        let g = graph_of spec in
        let t = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
        let d = Gst.virtual_distances t in
        let bound =
          (2 * Ilog.clog (max 2 (Graph.n g))) + Gst.override_count t
        in
        Array.for_all (fun dv -> dv <= bound) d);
    Test.make ~name:"every non-root reachable via parent chain" ~count:200
      arb_graph (fun spec ->
        let g = graph_of spec in
        let t = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
        let ok = ref true in
        for v = 0 to Graph.n g - 1 do
          let rec walk u steps =
            if steps > Graph.n g then false
            else if t.Gst.parents.(u) < 0 then t.Gst.levels.(u) = 0
            else walk t.Gst.parents.(u) (steps + 1)
          in
          if not (walk v 0) then ok := false
        done;
        !ok);
    Test.make ~name:"multi-root band GSTs validate" ~count:150
      (pair arb_graph (int_range 1 5))
      (fun (spec, nroots) ->
        let g = graph_of spec in
        let n = Graph.n g in
        let nroots = min nroots n in
        let roots = Array.init nroots (fun i -> i) in
        let t = Gst.build_centralized ~graph:g ~roots () in
        match Gst.validate t with Ok () -> true | Error _ -> false);
  ]

let () =
  Alcotest.run "gst"
    [
      ( "ranked_bfs",
        [
          Alcotest.test_case "path ranks" `Quick test_ranks_path;
          Alcotest.test_case "binary tree ranks" `Quick test_ranks_binary_tree;
          Alcotest.test_case "one heavy child" `Quick test_ranks_one_heavy_child;
          Alcotest.test_case "outside nodes" `Quick test_ranks_outside_nodes;
          Alcotest.test_case "bad levels" `Quick test_ranks_bad_levels;
          Alcotest.test_case "subtree sizes" `Quick test_subtree_sizes;
          Alcotest.test_case "rank rule checker" `Quick
            test_check_rank_rule_detects_error;
          Alcotest.test_case "subtree doubling" `Quick test_rank_subtree_doubling;
        ] );
      ( "gst_centralized",
        [
          Alcotest.test_case "path" `Quick test_gst_path;
          Alcotest.test_case "star" `Quick test_gst_star;
          Alcotest.test_case "single node" `Quick test_gst_single_node;
          Alcotest.test_case "complete" `Quick test_gst_complete;
          Alcotest.test_case "grid" `Quick test_gst_grid;
          Alcotest.test_case "multi root" `Quick test_gst_multi_root;
          Alcotest.test_case "ring band levels" `Quick test_gst_ring_levels;
          Alcotest.test_case "stretches on path" `Quick test_gst_stretches_path;
          Alcotest.test_case "stretch head map" `Quick test_gst_stretch_head_map;
          Alcotest.test_case "virtual distance path" `Quick
            test_virtual_distance_path;
          Alcotest.test_case "virtual distance bound" `Quick
            test_virtual_distance_bound;
          Alcotest.test_case "assign simple" `Quick test_assign_level_pair_simple;
          Alcotest.test_case "assign loner" `Quick
            test_assign_level_pair_loner_priority;
          Alcotest.test_case "assign unreachable" `Quick
            test_assign_unreachable_blue_raises;
          Alcotest.test_case "figure-1-like graph" `Quick test_gst_figure1_like;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
