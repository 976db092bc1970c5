(* The routing table of drive.mli, in code: only Sparse takes the fast
   paths; Dense runs the full scan. *)
let run ?(engine = Engine.Sparse) ?stats ?metrics ?after_round ?decide_active
    ?passive ?validate ~graph ~detection ~protocol ~stop ~max_rounds () =
  match engine with
  | Engine.Dense ->
      Engine.run ?stats ?metrics ?after_round ~graph ~detection ~protocol ~stop
        ~max_rounds ()
  | Engine.Sparse ->
      Engine_sparse.run ?stats ?metrics ?after_round ?decide_active ?passive
        ?validate ~graph ~detection ~protocol ~stop ~max_rounds ()

let static_active ~n groups =
  let mark = Array.make n false in
  List.iter (Array.iter (fun v -> mark.(v) <- true)) groups;
  let ids = Array.of_seq (Seq.filter (Array.get mark) (Seq.init n Fun.id)) in
  let count = Array.length ids in
  if count = n then None
  else
    Some
      (fun ~round:_ dst ->
        Array.blit ids 0 dst 0 count;
        count)
