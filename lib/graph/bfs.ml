let levels g ~src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let multi_levels g ~sources =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  Array.iter
    (fun s ->
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let levels_and_parents g ~src =
  let dist = levels g ~src in
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  for v = 0 to n - 1 do
    if dist.(v) > 0 then
      (* Neighbors are stored ascending, so the first match is smallest. *)
      Graph.iter_neighbors g v (fun u ->
          if parent.(v) < 0 && dist.(u) = dist.(v) - 1 then parent.(v) <- u)
  done;
  (dist, parent)

let eccentricity g v =
  let dist = levels g ~src:v in
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Bfs.eccentricity: disconnected graph"
      else max acc d)
    0 dist

let is_connected g =
  let n = Graph.n g in
  n = 0 || Array.for_all (fun d -> d >= 0) (levels g ~src:0)

let diameter g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := max !best (eccentricity g v)
    done;
    !best
  end

let max_level levels = Array.fold_left max (-1) levels

let by_level levels =
  let count = Array.make (max_level levels + 1) 0 in
  Array.iter (fun l -> if l >= 0 then count.(l) <- count.(l) + 1) levels;
  let out = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 (Array.length count) 0;
  Array.iteri
    (fun v l ->
      if l >= 0 then begin
        out.(l).(count.(l)) <- v;
        count.(l) <- count.(l) + 1
      end)
    levels;
  out
