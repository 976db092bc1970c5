open Rn_graph
open Rn_util

type t = {
  graph : Graph.t;
  levels : int array;
  parents : int array;
  ranks : int array;
  head_override : bool array;
}

let make ~graph ~levels ~parents ~ranks ?head_override () =
  let n = Graph.n graph in
  let head_override =
    match head_override with Some h -> h | None -> Array.make n false
  in
  if
    Array.length levels <> n
    || Array.length parents <> n
    || Array.length ranks <> n
    || Array.length head_override <> n
  then invalid_arg "Gst.make: array length mismatch";
  { graph; levels; parents; ranks; head_override }

let in_forest t v = t.levels.(v) >= 0

let roots t =
  let acc = ref [] in
  Array.iteri
    (fun v l -> if l = 0 && t.parents.(v) < 0 then acc := v :: !acc)
    t.levels;
  Array.of_list (List.rev !acc)

let size t =
  Array.fold_left (fun acc l -> if l >= 0 then acc + 1 else acc) 0 t.levels

let is_stretch_head t v =
  in_forest t v
  && (t.parents.(v) < 0
     || t.head_override.(v)
     || t.ranks.(t.parents.(v)) <> t.ranks.(v))

let stretch_head_of t =
  let n = Graph.n t.graph in
  let head = Array.make n (-1) in
  let rec resolve v =
    if head.(v) >= 0 then head.(v)
    else begin
      let h = if is_stretch_head t v then v else resolve t.parents.(v) in
      head.(v) <- h;
      h
    end
  in
  for v = 0 to n - 1 do
    if in_forest t v then ignore (resolve v)
  done;
  head

let stretch_members t h =
  if not (is_stretch_head t h) then []
  else begin
    let heads = stretch_head_of t in
    let acc = ref [] in
    Array.iteri (fun v hv -> if hv = h then acc := v :: !acc) heads;
    List.rev !acc
  end

let virtual_distances t =
  let n = Graph.n t.graph in
  let heads = stretch_head_of t in
  (* Fast out-edges, grouped by head. *)
  let fast = Array.make n [] in
  Array.iteri
    (fun v h -> if h >= 0 && h <> v then fast.(h) <- v :: fast.(h))
    heads;
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  Array.iter
    (fun r ->
      dist.(r) <- 0;
      Queue.add r queue)
    (roots t);
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let relax v =
      if in_forest t v && dist.(v) < 0 then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v queue
      end
    in
    Graph.iter_neighbors t.graph u relax;
    List.iter relax fast.(u)
  done;
  dist

(* ------------------------------------------------------------------ *)
(* Checkers                                                            *)

let check_structure t =
  let n = Graph.n t.graph in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go v =
    if v >= n then Ok ()
    else if not (in_forest t v) then
      if t.ranks.(v) <> 0 then err "node %d outside forest has rank %d" v t.ranks.(v)
      else if t.parents.(v) >= 0 then err "node %d outside forest has a parent" v
      else go (v + 1)
    else if t.ranks.(v) < 1 then err "forest node %d has rank %d < 1" v t.ranks.(v)
    else begin
      let p = t.parents.(v) in
      if p < 0 then
        if t.levels.(v) <> 0 then err "non-root forest node %d has no parent" v
        else go (v + 1)
      else if not (in_forest t p) then err "parent of %d is outside the forest" v
      else if t.levels.(p) <> t.levels.(v) - 1 then
        err "parent of %d is at level %d, expected %d" v t.levels.(p)
          (t.levels.(v) - 1)
      else if not (Graph.mem_edge t.graph p v) then
        err "parent edge %d-%d is not a graph edge" p v
      else go (v + 1)
    end
  in
  go 0

let check_ranks t =
  let n = Graph.n t.graph in
  match Ranked_bfs.check_rank_rule ~parents:t.parents ~ranks:t.ranks with
  | Error _ as e -> e
  | Ok () ->
      let mr = Ranked_bfs.max_rank t.ranks in
      let bound = Ilog.clog (max 2 n) in
      if mr > bound then
        Error (Printf.sprintf "max rank %d exceeds ceil(log2 n) = %d" mr bound)
      else Ok ()

let collision_violations t =
  (* For every blue u2 with a same-rank parent v2, an edge to any other
     same-rank node v1 at the parent level that itself has a same-rank
     child u1 is a violating quadruple. *)
  let n = Graph.n t.graph in
  let has_same_rank_child = Array.make n false in
  let sample_child = Array.make n (-1) in
  for v = 0 to n - 1 do
    let p = t.parents.(v) in
    if p >= 0 && t.ranks.(p) = t.ranks.(v) then begin
      has_same_rank_child.(p) <- true;
      sample_child.(p) <- v
    end
  done;
  let viol = ref [] in
  for u2 = 0 to n - 1 do
    let v2 = t.parents.(u2) in
    if v2 >= 0 && t.ranks.(v2) = t.ranks.(u2) then
      Graph.iter_neighbors t.graph u2 (fun v1 ->
          if
            v1 <> v2
            && t.levels.(v1) = t.levels.(u2) - 1
            && t.ranks.(v1) = t.ranks.(u2)
            && has_same_rank_child.(v1)
            && sample_child.(v1) <> u2
          then viol := (sample_child.(v1), v1, u2, v2) :: !viol)
  done;
  List.rev !viol

let wave_unsafe t =
  let n = Graph.n t.graph in
  let bad = ref [] in
  for u = 0 to n - 1 do
    if in_forest t u && not (is_stretch_head t u) then begin
      let p = t.parents.(u) in
      Graph.iter_neighbors t.graph u (fun x ->
          if
            x <> p
            && t.levels.(x) = t.levels.(u) - 1
            && t.ranks.(x) = t.ranks.(u)
          then bad := (u, x) :: !bad)
    end
  done;
  List.rev !bad

let validate t =
  match check_structure t with
  | Error _ as e -> e
  | Ok () -> (
      match check_ranks t with
      | Error _ as e -> e
      | Ok () -> (
          match collision_violations t with
          | (u1, v1, u2, v2) :: _ ->
              Error
                (Printf.sprintf
                   "collision-freeness violated: %d->%d and %d->%d share a cross edge"
                   u1 v1 u2 v2)
          | [] -> (
              match wave_unsafe t with
              | (u, x) :: _ ->
                  Error
                    (Printf.sprintf
                       "wave hazard: interior node %d also hears same-rank %d" u x)
              | [] -> Ok ())))

(* ------------------------------------------------------------------ *)
(* Centralized construction                                            *)

module Int_set = Hashtbl.Make (Int)

let assign_level_pair ~graph ~reds ~blues ~blue_rank ~parents ~ranks =
  (* Sized by the pair, not by n: the centralized build calls this once
     per level pair. *)
  let is_red = Int_set.create 64 and is_blue = Int_set.create 64 in
  Array.iter (fun r -> Int_set.replace is_red r ()) reds;
  Array.iter (fun b -> Int_set.replace is_blue b ()) blues;
  let red_nbrs b =
    Graph.fold_neighbors graph b
      (fun acc v -> if Int_set.mem is_red v then v :: acc else acc)
      []
  in
  let blue_nbrs r =
    Graph.fold_neighbors graph r
      (fun acc v -> if Int_set.mem is_blue v then v :: acc else acc)
      []
  in
  let assigned b = parents.(b) >= 0 in
  let ranked r = ranks.(r) > 0 in
  let max_rank = Array.fold_left (fun acc b -> max acc (blue_rank b)) 0 blues in
  for i = max_rank downto 1 do
    let remaining () =
      Array.to_list blues
      |> List.filter (fun b -> blue_rank b = i && not (assigned b))
    in
    let active_nbrs b = List.filter (fun r -> not (ranked r)) (red_nbrs b) in
    let adopt v =
      (* v takes all its unassigned rank-i blues, is ranked by their count,
         and (Stage III) collects any unassigned lower-rank blues too. *)
      let children =
        List.filter (fun b -> blue_rank b = i && not (assigned b)) (blue_nbrs v)
      in
      assert (match children with [] -> false | _ :: _ -> true);
      List.iter (fun b -> parents.(b) <- v) children;
      ranks.(v) <- (if List.length children >= 2 then i + 1 else i);
      List.iter
        (fun b -> if blue_rank b < i && not (assigned b) then parents.(b) <- v)
        (blue_nbrs v)
    in
    let rec loop () =
      match remaining () with
      | [] -> ()
      | rem ->
          let loner_parent =
            List.find_map
              (fun b ->
                match active_nbrs b with [ v ] -> Some v | _ -> None)
              rem
          in
          let v =
            match loner_parent with
            | Some v -> v
            | None ->
                (* Max unassigned-neighbor count, smallest id on ties. *)
                let count v =
                  List.length
                    (List.filter
                       (fun b -> blue_rank b = i && not (assigned b))
                       (blue_nbrs v))
                in
                let candidates =
                  List.sort_uniq Int.compare (List.concat_map active_nbrs rem)
                in
                (match candidates with
                | [] ->
                    invalid_arg
                      "Gst.assign_level_pair: a blue node has no unranked red \
                       neighbor"
                | c0 :: rest ->
                    List.fold_left
                      (fun best v -> if count v > count best then v else best)
                      c0 rest)
          in
          adopt v;
          loop ()
    in
    loop ()
  done

let repair_wave_safety t =
  let n = Graph.n t.graph in
  let head_override = Array.copy t.head_override in
  for u = 0 to n - 1 do
    if in_forest t u then begin
      let p = t.parents.(u) in
      if p >= 0 && t.ranks.(p) = t.ranks.(u) && not (t.head_override.(u)) then begin
        let hazard = ref false in
        Graph.iter_neighbors t.graph u (fun x ->
            if
              x <> p
              && t.levels.(x) = t.levels.(u) - 1
              && t.ranks.(x) = t.ranks.(u)
            then hazard := true);
        if !hazard then head_override.(u) <- true
      end
    end
  done;
  { t with head_override }

let override_count t =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.head_override

let build_centralized ~graph ?levels ~roots () =
  let n = Graph.n graph in
  let levels =
    match levels with Some l -> l | None -> Bfs.multi_levels graph ~sources:roots
  in
  if Array.length levels <> n then invalid_arg "Gst.build_centralized: levels";
  let parents = Array.make n (-1) in
  let ranks = Array.make n 0 in
  let level_nodes = Bfs.by_level levels in
  let leaf b = if ranks.(b) = 0 then ranks.(b) <- 1 in
  for l = Array.length level_nodes - 1 downto 1 do
    let blues = level_nodes.(l) and reds = level_nodes.(l - 1) in
    (* Blues still unranked at their own pair are leaves: rank 1. *)
    Array.iter leaf blues;
    assign_level_pair ~graph ~reds ~blues ~blue_rank:(fun b -> ranks.(b))
      ~parents ~ranks
  done;
  if Array.length level_nodes > 0 then Array.iter leaf level_nodes.(0);
  let t = make ~graph ~levels ~parents ~ranks () in
  repair_wave_safety t
