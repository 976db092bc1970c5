open Rn_util
open Rn_graph
module Topo = Rn_graph.Gen

let rng () = Rng.create ~seed:12345

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_create_basic () =
  let g = Graph.create ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check int) "deg 1" 2 (Graph.degree g 1);
  Alcotest.(check bool) "edge 0-1" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "edge 1-0" true (Graph.mem_edge g 1 0);
  Alcotest.(check bool) "no edge 0-2" false (Graph.mem_edge g 0 2)

let test_create_dedup_selfloop () =
  let g = Graph.create ~n:3 ~edges:[ (0, 1); (1, 0); (0, 1); (2, 2) ] in
  Alcotest.(check int) "m deduped" 1 (Graph.m g);
  Alcotest.(check int) "self-loop dropped" 0 (Graph.degree g 2)

let test_create_out_of_range () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Graph.create ~n:2 ~edges:[ (0, 5) ]);
       false
     with Invalid_argument _ -> true)

let test_neighbors_sorted () =
  let g = Graph.create ~n:5 ~edges:[ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2)

let test_edges_listing () =
  let g = Graph.create ~n:3 ~edges:[ (2, 1); (1, 0) ] in
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2) ] (Graph.edges g)

let test_empty_graph () =
  let g = Graph.create ~n:0 ~edges:[] in
  Alcotest.(check int) "n" 0 (Graph.n g);
  Alcotest.(check bool) "connected" true (Bfs.is_connected g)

let test_induced_bipartite () =
  (* Path 0-1-2-3, left = {1}, right = {0, 2}; edge 2-3 must vanish. *)
  let g = Topo.path 4 in
  let h, back = Graph.induced_bipartite g ~left:[| 1 |] ~right:[| 0; 2 |] in
  Alcotest.(check int) "n" 3 (Graph.n h);
  Alcotest.(check int) "m" 2 (Graph.m h);
  Alcotest.(check (array int)) "back map" [| 1; 0; 2 |] back;
  Alcotest.(check bool) "1-0 edge" true (Graph.mem_edge h 0 1);
  Alcotest.(check bool) "1-2 edge" true (Graph.mem_edge h 0 2)

let test_induced_bipartite_mapping () =
  (* Dense-ish graph with intra-side edges on both sides: the extracted H
     must contain exactly the crossing edges of G, and [back] must map every
     H-edge to a G-edge and every crossing G-edge to an H-edge. *)
  let g =
    Graph.create ~n:7
      ~edges:
        [
          (0, 1) (* left-left: dropped *); (5, 6) (* right-right: dropped *);
          (0, 4); (0, 5); (1, 6); (2, 4); (2, 6); (1, 3) (* 3 in neither *);
        ]
  in
  let left = [| 0; 1; 2 |] and right = [| 4; 5; 6 |] in
  let h, back = Graph.induced_bipartite g ~left ~right in
  Alcotest.(check int) "n" 6 (Graph.n h);
  Alcotest.(check (array int)) "back map" [| 0; 1; 2; 4; 5; 6 |] back;
  let expected = [ (0, 4); (0, 5); (1, 6); (2, 4); (2, 6) ] in
  Alcotest.(check int) "m" (List.length expected) (Graph.m h);
  (* Every H-edge maps back to a crossing G-edge... *)
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool)
        (Printf.sprintf "H-edge %d-%d exists in G" back.(i) back.(j))
        true
        (Graph.mem_edge g back.(i) back.(j)))
    (Graph.edges h);
  (* ... and every crossing G-edge appears in H under the mapping. *)
  List.iter
    (fun (u, v) ->
      let idx x =
        let found = ref (-1) in
        Array.iteri (fun i y -> if y = x then found := i) back;
        !found
      in
      Alcotest.(check bool)
        (Printf.sprintf "G-edge %d-%d present in H" u v)
        true
        (Graph.mem_edge h (idx u) (idx v)))
    expected

(* ------------------------------------------------------------------ *)
(* Bfs *)

let test_bfs_levels_path () =
  let g = Topo.path 5 in
  Alcotest.(check (array int)) "levels" [| 0; 1; 2; 3; 4 |] (Bfs.levels g ~src:0);
  Alcotest.(check (array int)) "levels mid" [| 2; 1; 0; 1; 2 |]
    (Bfs.levels g ~src:2)

let test_bfs_unreachable () =
  let g = Graph.create ~n:3 ~edges:[ (0, 1) ] in
  Alcotest.(check (array int)) "unreachable -1" [| 0; 1; -1 |] (Bfs.levels g ~src:0);
  Alcotest.(check bool) "disconnected" false (Bfs.is_connected g)

let test_bfs_parents () =
  let g = Topo.path 4 in
  let levels, parents = Bfs.levels_and_parents g ~src:0 in
  Alcotest.(check (array int)) "levels" [| 0; 1; 2; 3 |] levels;
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; 2 |] parents

let test_bfs_multi_levels () =
  let g = Topo.path 5 in
  Alcotest.(check (array int)) "two sources" [| 0; 1; 2; 1; 0 |]
    (Bfs.multi_levels g ~sources:[| 0; 4 |])

let test_diameter_shapes () =
  Alcotest.(check int) "path" 4 (Bfs.diameter (Topo.path 5));
  Alcotest.(check int) "cycle" 3 (Bfs.diameter (Topo.cycle 6));
  Alcotest.(check int) "cycle odd" 3 (Bfs.diameter (Topo.cycle 7));
  Alcotest.(check int) "star" 2 (Bfs.diameter (Topo.star 10));
  Alcotest.(check int) "complete" 1 (Bfs.diameter (Topo.complete 8));
  Alcotest.(check int) "grid" 5 (Bfs.diameter (Topo.grid ~w:3 ~h:4));
  Alcotest.(check int) "single node" 0 (Bfs.diameter (Topo.path 1))

let test_nodes_at_level () =
  let g = Topo.star 5 in
  let levels = Bfs.levels g ~src:0 in
  Alcotest.(check (array (array int))) "star levels"
    [| [| 0 |]; [| 1; 2; 3; 4 |] |]
    (Bfs.by_level levels);
  Alcotest.(check int) "max level" 1 (Bfs.max_level levels);
  (* by_level buckets every level at once, unreachable (-1) nodes left out *)
  Alcotest.(check (array (array int))) "by_level"
    [| [| 1; 5 |]; [| 3 |]; [| 0; 4; 6 |] |]
    (Bfs.by_level [| 2; 0; -1; 1; 2; 0; 2 |]);
  Alcotest.(check (array (array int))) "empty bucket kept"
    [| [| 1 |]; [||]; [| 0 |] |]
    (Bfs.by_level [| 2; 0 |]);
  Alcotest.(check int) "by_level of nothing" 0
    (Array.length (Bfs.by_level [| -1; -1 |]))

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_gen_balanced_tree () =
  let g = Topo.balanced_tree ~arity:2 ~depth:3 in
  Alcotest.(check int) "n" 15 (Graph.n g);
  Alcotest.(check int) "m" 14 (Graph.m g);
  Alcotest.(check int) "diameter" 6 (Bfs.diameter g)

let test_gen_caterpillar () =
  let g = Topo.caterpillar ~spine:4 ~legs:2 in
  Alcotest.(check int) "n" 12 (Graph.n g);
  Alcotest.(check bool) "connected" true (Bfs.is_connected g);
  Alcotest.(check int) "diameter" 5 (Bfs.diameter g)

let test_gen_random_connected () =
  let g = Topo.random_connected ~rng:(rng ()) ~n:64 ~extra:30 in
  Alcotest.(check int) "n" 64 (Graph.n g);
  Alcotest.(check bool) "connected" true (Bfs.is_connected g);
  Alcotest.(check bool) "has extra edges" true (Graph.m g >= 63)

let test_gen_layered_random () =
  let g = Topo.layered_random ~rng:(rng ()) ~depth:6 ~width:5 ~p:0.3 in
  Alcotest.(check int) "n" 31 (Graph.n g);
  Alcotest.(check bool) "connected" true (Bfs.is_connected g);
  let levels = Bfs.levels g ~src:0 in
  (* Every node's BFS level equals its layer index. *)
  for v = 1 to 30 do
    Alcotest.(check int)
      (Printf.sprintf "layer of %d" v)
      (((v - 1) / 5) + 1)
      levels.(v)
  done;
  Alcotest.(check int) "diameter from src" 6 (Bfs.eccentricity g 0)

let test_gen_cluster_path () =
  let g = Topo.cluster_path ~rng:(rng ()) ~clusters:4 ~size:6 ~p_intra:0.5 in
  Alcotest.(check int) "n" 24 (Graph.n g);
  Alcotest.(check bool) "connected" true (Bfs.is_connected g)

let test_gen_unit_disk_connected () =
  let g = Topo.unit_disk ~rng:(rng ()) ~n:50 ~radius:0.18 in
  Alcotest.(check int) "n" 50 (Graph.n g);
  Alcotest.(check bool) "stitched connected" true (Bfs.is_connected g)

let test_gen_bipartite_random () =
  let reds = 6 and blues = 10 in
  let g = Topo.bipartite_random ~rng:(rng ()) ~reds ~blues ~p:0.2 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  (* No intra-side edges; every blue has a red neighbor. *)
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "crossing edge" true (u < reds && v >= reds))
    (Graph.edges g);
  for b = reds to reds + blues - 1 do
    Alcotest.(check bool) "blue covered" true (Graph.degree g b >= 1)
  done

let test_gen_gnp_extremes () =
  let g0 = Topo.gnp ~rng:(rng ()) ~n:10 ~p:0.0 in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.m g0);
  let g1 = Topo.gnp ~rng:(rng ()) ~n:10 ~p:1.0 in
  Alcotest.(check int) "p=1 complete" 45 (Graph.m g1)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_gen_dot () =
  let s = Topo.dot (Topo.path 3) in
  Alcotest.(check bool) "edge 0--1" true (contains s "0 -- 1");
  Alcotest.(check bool) "edge 1--2" true (contains s "1 -- 2")

(* ------------------------------------------------------------------ *)
(* Builder *)

let same_graph a b =
  Graph.n a = Graph.n b && Graph.m a = Graph.m b
  && Graph.offsets a = Graph.offsets b
  && Graph.targets a = Graph.targets b

let test_builder_matches_create () =
  let edges = [ (0, 1); (1, 0); (3, 2); (2, 2); (0, 3); (0, 1) ] in
  let b = Graph.Builder.create ~n:4 () in
  List.iter (fun (u, v) -> Graph.Builder.add_edge b u v) edges;
  Alcotest.(check int) "edge_count pre-dedup" 6 (Graph.Builder.edge_count b);
  Alcotest.(check bool) "builder ≡ create" true
    (same_graph (Graph.Builder.finish b) (Graph.create ~n:4 ~edges))

let test_builder_empty_and_bounds () =
  let b = Graph.Builder.create ~capacity:1 ~n:3 () in
  Alcotest.(check bool) "empty builder" true
    (same_graph (Graph.Builder.finish b) (Graph.create ~n:3 ~edges:[]));
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument "Graph.Builder.add_edge: node 3 out of range [0,3)")
    (fun () -> Graph.Builder.add_edge b 0 3)

let test_builder_growth () =
  (* Start from a 1-slot buffer so every doubling path is exercised. *)
  let n = 200 in
  let b = Graph.Builder.create ~capacity:1 ~n () in
  let edges = ref [] in
  for i = 0 to n - 2 do
    Graph.Builder.add_edge b i (i + 1);
    edges := (i, i + 1) :: !edges
  done;
  Alcotest.(check bool) "grown builder ≡ create" true
    (same_graph (Graph.Builder.finish b) (Graph.create ~n ~edges:!edges))

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let arb_connected =
  QCheck.make
    ~print:(fun (n, extra, seed) -> Printf.sprintf "(n=%d,extra=%d,seed=%d)" n extra seed)
    QCheck.Gen.(triple (int_range 1 60) (int_range 0 40) (int_range 0 10_000))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"random_connected is connected" ~count:200 arb_connected
      (fun (n, extra, seed) ->
        let g = Topo.random_connected ~rng:(Rng.create ~seed) ~n ~extra in
        Bfs.is_connected g);
    Test.make ~name:"bfs triangle inequality on edges" ~count:100 arb_connected
      (fun (n, extra, seed) ->
        let g = Topo.random_connected ~rng:(Rng.create ~seed) ~n ~extra in
        let d = Bfs.levels g ~src:0 in
        List.for_all (fun (u, v) -> abs (d.(u) - d.(v)) <= 1) (Graph.edges g));
    Test.make ~name:"degree sum = 2m" ~count:200 arb_connected
      (fun (n, extra, seed) ->
        let g = Topo.random_connected ~rng:(Rng.create ~seed) ~n ~extra in
        let sum = ref 0 in
        for v = 0 to n - 1 do
          sum := !sum + Graph.degree g v
        done;
        !sum = 2 * Graph.m g);
    Test.make ~name:"mem_edge matches neighbor lists" ~count:100 arb_connected
      (fun (n, extra, seed) ->
        let g = Topo.random_connected ~rng:(Rng.create ~seed) ~n ~extra in
        let ok = ref true in
        for u = 0 to n - 1 do
          Graph.iter_neighbors g u (fun v ->
              if not (Graph.mem_edge g u v) then ok := false)
        done;
        !ok);
    Test.make ~name:"CSR rows sorted, deduped, offset-consistent" ~count:200
      arb_connected
      (fun (n, extra, seed) ->
        let g = Topo.random_connected ~rng:(Rng.create ~seed) ~n ~extra in
        let off = Graph.offsets g and tgt = Graph.targets g in
        let ok = ref (Array.length off = n + 1 && off.(0) = 0) in
        if Array.length tgt <> off.(n) then ok := false;
        for v = 0 to n - 1 do
          if off.(v) > off.(v + 1) then ok := false;
          for i = off.(v) to off.(v + 1) - 2 do
            (* strictly ascending ⇒ sorted and duplicate-free *)
            if tgt.(i) >= tgt.(i + 1) then ok := false
          done;
          if Graph.neighbors g v <> Array.sub tgt off.(v) (off.(v + 1) - off.(v))
          then ok := false
        done;
        !ok);
    Test.make ~name:"unit disk always connected" ~count:50
      (pair (int_range 2 40) (int_range 0 1000))
      (fun (n, seed) ->
        Bfs.is_connected (Topo.unit_disk ~rng:(Rng.create ~seed) ~n ~radius:0.2));
    Test.make ~name:"Builder ≡ create on random edge lists" ~count:200
      arb_connected
      (fun (n, extra, seed) ->
        let rng = Rng.create ~seed in
        (* Random multiset with duplicates and self-loops: both paths must
           drop them identically. *)
        let k = extra + (2 * n) in
        let edges =
          List.init k (fun _ -> (Rng.int rng n, Rng.int rng n))
        in
        let b = Graph.Builder.create ~capacity:(1 + (seed mod 4)) ~n () in
        List.iter (fun (u, v) -> Graph.Builder.add_edge b u v) edges;
        same_graph (Graph.Builder.finish b) (Graph.create ~n ~edges));
    Test.make ~name:"layered_random levels = layers" ~count:50
      (triple (int_range 1 8) (int_range 1 6) (int_range 0 1000))
      (fun (depth, width, seed) ->
        let g =
          Topo.layered_random ~rng:(Rng.create ~seed) ~depth ~width ~p:0.4
        in
        let levels = Bfs.levels g ~src:0 in
        let ok = ref true in
        for v = 1 to Graph.n g - 1 do
          if levels.(v) <> ((v - 1) / width) + 1 then ok := false
        done;
        !ok);
  ]

let () =
  Alcotest.run "rn_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "create basic" `Quick test_create_basic;
          Alcotest.test_case "dedup & self-loops" `Quick test_create_dedup_selfloop;
          Alcotest.test_case "out of range" `Quick test_create_out_of_range;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "edges listing" `Quick test_edges_listing;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "induced bipartite" `Quick test_induced_bipartite;
          Alcotest.test_case "induced bipartite mapping" `Quick
            test_induced_bipartite_mapping;
        ] );
      ( "Graph.Builder checks",
        [
          Alcotest.test_case "builder matches create" `Quick
            test_builder_matches_create;
          Alcotest.test_case "builder empty & bounds" `Quick
            test_builder_empty_and_bounds;
          Alcotest.test_case "builder growth" `Quick test_builder_growth;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "levels on path" `Quick test_bfs_levels_path;
          Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "parents" `Quick test_bfs_parents;
          Alcotest.test_case "multi-source levels" `Quick test_bfs_multi_levels;
          Alcotest.test_case "diameter shapes" `Quick test_diameter_shapes;
          Alcotest.test_case "nodes at level" `Quick test_nodes_at_level;
        ] );
      ( "generators",
        [
          Alcotest.test_case "balanced tree" `Quick test_gen_balanced_tree;
          Alcotest.test_case "caterpillar" `Quick test_gen_caterpillar;
          Alcotest.test_case "random connected" `Quick test_gen_random_connected;
          Alcotest.test_case "layered random" `Quick test_gen_layered_random;
          Alcotest.test_case "cluster path" `Quick test_gen_cluster_path;
          Alcotest.test_case "unit disk" `Quick test_gen_unit_disk_connected;
          Alcotest.test_case "bipartite random" `Quick test_gen_bipartite_random;
          Alcotest.test_case "gnp extremes" `Quick test_gen_gnp_extremes;
          Alcotest.test_case "dot output" `Quick test_gen_dot;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
