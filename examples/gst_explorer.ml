(* GST explorer: Figure 1 of the paper, reproduced on a live graph.

   Shows a ranked BFS tree built naively (smallest-id parents), the
   collision-freeness violations it commits, and the proper gathering
   spanning tree built by the library, with its fast stretches and
   virtual distances.

   Run with: dune exec examples/gst_explorer.exe *)

open Rn_util
open Rn_graph
open Rn_broadcast

(* A two-branch shape in the spirit of Figure 1: node 3 can hang off
   either branch, and the naive smallest-id choice creates exactly the
   collision-freeness violation the figure's left side shows (3 -> 1 and
   4 -> 2 all of rank 1, with the cross edge 2 - 3). *)
let figure_graph () =
  Graph.create ~n:8
    ~edges:
      [ (0, 1); (0, 2); (1, 3); (2, 3); (2, 4); (3, 5); (4, 6); (5, 7) ]

let show_tree title ~levels ~parents ~ranks g =
  Printf.printf "%s\n" title;
  Array.iteri
    (fun l nodes ->
      Printf.printf "  level %d: " l;
      Array.iter
        (fun v ->
          if parents.(v) < 0 then Printf.printf "[%d r%d] " v ranks.(v)
          else Printf.printf "[%d r%d <-%d] " v ranks.(v) parents.(v))
        nodes;
      print_newline ())
    (Bfs.by_level levels);
  ignore g

let () =
  let g = figure_graph () in
  let levels, naive_parents = Bfs.levels_and_parents g ~src:0 in
  let naive_ranks = Ranked_bfs.ranks ~parents:naive_parents ~levels in
  show_tree "Naive ranked BFS (smallest-id parents):" ~levels
    ~parents:naive_parents ~ranks:naive_ranks g;
  let naive =
    Gst.make ~graph:g ~levels ~parents:naive_parents ~ranks:naive_ranks ()
  in
  (match Gst.collision_violations naive with
  | [] -> Printf.printf "  collision-free: yes (lucky graph)\n\n"
  | viols ->
      Printf.printf "  collision-freeness VIOLATIONS (as in Figure 1, left):\n";
      List.iter
        (fun (u1, v1, u2, v2) ->
          Printf.printf
            "    %d->%d and %d->%d share a cross edge — fast waves would collide\n"
            u1 v1 u2 v2)
        viols;
      print_newline ());

  let gst = Gst.build_centralized ~graph:g ~roots:[| 0 |] () in
  show_tree "Gathering spanning tree (Figure 1, right):" ~levels:gst.Gst.levels
    ~parents:gst.Gst.parents ~ranks:gst.Gst.ranks g;
  (match Gst.validate gst with
  | Ok () -> Printf.printf "  validated: ranked BFS + collision-free + wave-safe\n\n"
  | Error e -> Printf.printf "  UNEXPECTED: %s\n\n" e);

  Printf.printf "Fast stretches (same-rank root-ward chains, pipelined by the\nschedule's fast transmissions):\n";
  let heads = Gst.stretch_head_of gst in
  Array.iteri
    (fun h hv ->
      if h = hv then begin
        match Gst.stretch_members gst h with
        | [ _ ] -> ()
        | members ->
            Printf.printf "  head %d: %s\n" h
              (String.concat " -> " (List.map string_of_int members))
      end)
    heads;

  Printf.printf "\nVirtual distances in G' (Lemma 3.4 bound: <= 2.ceil(log2 n) = %d):\n  "
    (2 * Rn_util.Ilog.clog 13);
  Array.iteri (fun v d -> Printf.printf "%d:%d " v d) (Gst.virtual_distances gst);
  print_newline ();

  (* And the distributed construction reaches an equally valid tree. *)
  let r =
    Gst_distributed.construct ~learn_vd:true ~rng:(Rng.create ~seed:1) ~graph:g
      ~roots:[| 0 |] ()
  in
  Printf.printf
    "\nDistributed construction (Theorem 2.1): %d rounds, valid = %b\n"
    r.Gst_distributed.total_rounds
    (match Gst.validate r.Gst_distributed.gst with Ok () -> true | Error _ -> false)
