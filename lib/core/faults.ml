open Rn_util
open Rn_radio

type spec = { jammers : int array; p : float }

let with_jammers ~rng ~jammers ~p ~noise (proto : 'msg Engine.protocol) =
  (* Per-node stream, split in [jammers] order; a repeated id keeps its
     last stream. *)
  let jam_rng = Array.make (Array.fold_left max (-1) jammers + 1) None in
  Array.iter (fun v -> jam_rng.(v) <- Some (Rng.split rng)) jammers;
  let decide ~round ~node =
    match if node < Array.length jam_rng then jam_rng.(node) else None with
    | Some r when Rng.bernoulli r p -> Engine.Transmit noise
    | Some _ | None -> proto.Engine.decide ~round ~node
  in
  { Engine.decide; deliver = proto.Engine.deliver }

let pick_jammers ~rng ~n ~count ~exclude =
  if count < 0 then invalid_arg "Faults.pick_jammers";
  let banned = Array.make (max n 0) false in
  Array.iter (fun v -> if v >= 0 && v < n then banned.(v) <- true) exclude;
  let candidates =
    Array.of_list (List.filter (fun v -> not banned.(v)) (List.init n Fun.id))
  in
  if count > Array.length candidates then
    invalid_arg "Faults.pick_jammers: not enough candidates";
  Rng.shuffle rng candidates;
  Array.sub candidates 0 count
