open Rn_util
open Rn_graph
open Rn_coding

let random_messages rng ~k ~msg_len =
  Array.init k (fun _ -> Bitvec.random rng msg_len)

type known_result = {
  rounds : int;
  delivered : bool;
  decode_round : int array;
  payloads_ok : bool;
}

let known ?(params = Params.default) ?engine ~rng ~graph ~source ~k () =
  if k < 1 then invalid_arg "Multi_broadcast.known: k must be >= 1";
  let gst = Gst.build_centralized ~graph ~roots:[| source |] () in
  let vd = Gst.virtual_distances gst in
  let msgs = random_messages rng ~k ~msg_len:32 in
  let r =
    Gst_broadcast.run ~params ?engine ~rng:(Rng.split rng) ~gst ~vd ~msgs
      ~sources:[| source |] ()
  in
  {
    rounds = r.Gst_broadcast.rounds;
    delivered =
      (match r.Gst_broadcast.outcome with
      | Rn_radio.Engine.Completed _ -> true
      | Rn_radio.Engine.Out_of_budget _ -> false);
    decode_round = r.Gst_broadcast.decode_round;
    payloads_ok = r.Gst_broadcast.payloads_ok;
  }

type unknown_result = {
  rounds_total : int;
  rounds_layering : int;
  rounds_construction : int;
  rounds_dissemination : int;
  ring_count : int;
  batch_count : int;
  epochs : int;
  delivered : bool;
  payloads_ok : bool;
}

let unknown ?(params = Params.default) ?rings ?batch_size ?estimate_diameter
    ?engine ~rng ~graph ~source ~k () =
  if k < 1 then invalid_arg "Multi_broadcast.unknown: k must be >= 1";
  let n = Graph.n graph in
  let batch_size =
    match batch_size with
    | Some b ->
        if b < 1 then invalid_arg "Multi_broadcast.unknown: batch_size";
        b
    | None -> Ilog.clog (max 2 n)
  in
  let { Single_broadcast.rings = rings_t; rounds_layering; build } =
    Single_broadcast.front ?rings ~params ?estimate_diameter ?engine ~rng
      ~graph ~source ()
  in
  let levels = rings_t.Rings.levels and rcount = rings_t.Rings.count in
  (* Every batch crosses every ring, so all forests stay live. *)
  let ring_gsts = Array.init rcount build in
  let rounds_construction =
    Rings.charged_parallel_rounds
      (Array.to_list
         (Array.map (fun r -> r.Gst_distributed.total_rounds) ring_gsts))
  in
  (* Batches pipeline through the rings. *)
  let msgs = random_messages rng ~k ~msg_len:32 in
  let bcount = Ilog.cdiv k batch_size in
  let batch b =
    Array.sub msgs (b * batch_size) (min batch_size (k - (b * batch_size)))
  in
  let delivered = ref true in
  let payloads_ok = ref true in
  let max_stage = ref 0 in
  (* got.(b).(v) = node v decoded batch b *)
  let got = Array.make_matrix bcount n false in
  for b = 0 to bcount - 1 do
    let bmsgs = batch b in
    got.(b).(source) <- true;
    for j = 0 to rcount - 1 do
      if !delivered then begin
        let roots = Rings.roots rings_t j in
        if not (Array.for_all (fun v -> got.(b).(v)) roots) then
          delivered := false
        else begin
          let stage_rounds = ref 0 in
          let g = ring_gsts.(j) in
          let r =
            Gst_broadcast.run ~params ?engine ~rng:(Rng.split rng)
              ~gst:g.Gst_distributed.gst ~vd:g.Gst_distributed.vd ~msgs:bmsgs
              ~sources:roots ()
          in
          stage_rounds := r.Gst_broadcast.rounds;
          if not r.Gst_broadcast.payloads_ok then payloads_ok := false;
          (match r.Gst_broadcast.outcome with
          | Rn_radio.Engine.Completed _ ->
              Array.iteri
                (fun v dr -> if dr >= 0 then got.(b).(v) <- true)
                r.Gst_broadcast.decode_round
          | Rn_radio.Engine.Out_of_budget _ -> delivered := false);
          if !delivered && j + 1 < rcount then begin
            let holders = Rings.outer_boundary rings_t j in
            let receivers = Rings.roots rings_t (j + 1) in
            let h, decoded_ok =
              Rings.handoff_fec ~params ?engine ~rng:(Rng.split rng) ~graph
                ~holders ~receivers ~msgs:bmsgs ()
            in
            stage_rounds := !stage_rounds + h.Rings.rounds;
            if h.Rings.delivered then begin
              Array.iter (fun v -> got.(b).(v) <- true) receivers;
              if not decoded_ok then payloads_ok := false
            end
            else delivered := false
          end;
          max_stage := max !max_stage !stage_rounds
        end
      end
    done
  done;
  let all_got =
    !delivered
    && Array.for_all
         (fun per_batch ->
           let ok = ref true in
           Array.iteri
             (fun v got_v -> if levels.(v) >= 0 && not got_v then ok := false)
             per_batch;
           !ok)
         got
  in
  let epochs = rcount + bcount - 1 in
  (* Lockstep pipeline: each epoch lasts twice the slowest stage (adjacent
     rings alternate rounds). *)
  let rounds_dissemination = epochs * 2 * !max_stage in
  {
    rounds_total = rounds_layering + rounds_construction + rounds_dissemination;
    rounds_layering;
    rounds_construction;
    rounds_dissemination;
    ring_count = rcount;
    batch_count = bcount;
    epochs;
    delivered = all_got;
    payloads_ok = !payloads_ok;
  }
