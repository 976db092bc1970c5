open Rn_graph

let children_lists ~parents =
  let n = Array.length parents in
  let children = Array.make n [] in
  Array.iteri
    (fun v p ->
      if p >= 0 then begin
        if p >= n then invalid_arg "Ranked_bfs: parent out of range";
        children.(p) <- v :: children.(p)
      end)
    parents;
  children

let ranks ~parents ~levels =
  let n = Array.length parents in
  if Array.length levels <> n then invalid_arg "Ranked_bfs.ranks";
  Array.iteri
    (fun v p ->
      if p >= 0 && levels.(v) >= 0 && levels.(p) <> levels.(v) - 1 then
        invalid_arg "Ranked_bfs.ranks: parent level must be child level - 1")
    parents;
  let children = children_lists ~parents in
  let rank = Array.make n 0 in
  let level_nodes = Bfs.by_level levels in
  (* Deepest levels first, so children (one level deeper) are ranked
     before their parent; order within a level does not matter. *)
  for l = Array.length level_nodes - 1 downto 0 do
    Array.iter
      (fun v ->
        let in_tree = List.filter (fun c -> levels.(c) >= 0) children.(v) in
        match in_tree with
        | [] -> rank.(v) <- 1
        | cs ->
            let rmax = List.fold_left (fun acc c -> max acc rank.(c)) 0 cs in
            let count = List.length (List.filter (fun c -> rank.(c) = rmax) cs) in
            rank.(v) <- (if count >= 2 then rmax + 1 else rmax))
      level_nodes.(l)
  done;
  rank

let max_rank ranks = Array.fold_left max 0 ranks

let subtree_sizes ~parents =
  let n = Array.length parents in
  let size = Array.make n 1 in
  (* Process nodes in reverse topological order: repeatedly push counted
     leaves upward.  A simple two-pass with explicit child counts avoids
     recursion depth issues on path graphs. *)
  let pending = Array.make n 0 in
  Array.iter (fun p -> if p >= 0 then pending.(p) <- pending.(p) + 1) parents;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if pending.(v) = 0 then Queue.add v queue
  done;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let p = parents.(v) in
    if p >= 0 then begin
      size.(p) <- size.(p) + size.(v);
      pending.(p) <- pending.(p) - 1;
      if pending.(p) = 0 then Queue.add p queue
    end
  done;
  size

let check_rank_rule ~parents ~ranks =
  let n = Array.length parents in
  if Array.length ranks <> n then invalid_arg "Ranked_bfs.check_rank_rule";
  let children = children_lists ~parents in
  let problem = ref None in
  Array.iteri
    (fun v cs ->
      if Option.is_none !problem && ranks.(v) > 0 then begin
        let ranked = List.filter (fun c -> ranks.(c) > 0) cs in
        let expected =
          match ranked with
          | [] -> 1
          | cs ->
              let rmax = List.fold_left (fun acc c -> max acc ranks.(c)) 0 cs in
              let count =
                List.length (List.filter (fun c -> ranks.(c) = rmax) cs)
              in
              if count >= 2 then rmax + 1 else rmax
        in
        if ranks.(v) <> expected then
          problem :=
            Some
              (Printf.sprintf "node %d has rank %d but the rule gives %d" v
                 ranks.(v) expected)
      end)
    children;
  match !problem with None -> Ok () | Some msg -> Error msg
