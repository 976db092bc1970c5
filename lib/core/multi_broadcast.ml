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

let known ?(params = Params.default) ~rng ~graph ~source ~k () =
  if k < 1 then invalid_arg "Multi_broadcast.known: k must be >= 1";
  let gst = Gst.build_centralized ~graph ~roots:[| source |] () in
  let vd = Gst.virtual_distances gst in
  let msgs = random_messages rng ~k ~msg_len:32 in
  let r =
    Gst_broadcast.run ~params ~rng:(Rng.split rng) ~gst ~vd ~msgs
      ~sources:[| source |] ()
  in
  {
    rounds = r.Gst_broadcast.rounds;
    delivered =
      (match r.Gst_broadcast.outcome with
      | Rn_radio.Engine.Completed _ ->
          Array.for_all (fun dr -> dr >= 0) r.Gst_broadcast.decode_round
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
    ~rng ~graph ~source ~k () =
  if k < 1 then invalid_arg "Multi_broadcast.unknown: k must be >= 1";
  let n = Graph.n graph in
  let batch_size =
    match batch_size with
    | Some b ->
        if b < 1 then invalid_arg "Multi_broadcast.unknown: batch_size";
        b
    | None -> Ilog.clog (max 2 n)
  in
  let f =
    Single_broadcast.front ?rings ~params ?estimate_diameter ~rng ~graph ~source
      ()
  in
  let msgs = random_messages rng ~k ~msg_len:32 in
  let bcount = Ilog.cdiv k batch_size in
  let batches =
    Array.init bcount (fun b ->
        Array.sub msgs (b * batch_size) (min batch_size (k - (b * batch_size))))
  in
  let r =
    Single_broadcast.relay ~params ~rng f batches
      ~handoff:(fun ~rng ~holders ~receivers msgs ->
        Rings.handoff_fec ~params ~rng ~graph ~holders ~receivers ~msgs ())
  in
  let rcount = f.Single_broadcast.rings.Rings.count in
  let epochs = rcount + bcount - 1 in
  (* Lockstep pipeline: one batch crosses one ring per epoch, and each
     epoch lasts twice the slowest stage (adjacent rings alternate
     rounds). *)
  let rounds_dissemination = epochs * 2 * r.Single_broadcast.stage_max in
  let rounds_layering = f.Single_broadcast.rounds_layering in
  let rounds_construction = r.Single_broadcast.rounds_construction in
  {
    rounds_total = rounds_layering + rounds_construction + rounds_dissemination;
    rounds_layering;
    rounds_construction;
    rounds_dissemination;
    ring_count = rcount;
    batch_count = bcount;
    epochs;
    delivered = r.Single_broadcast.delivered;
    payloads_ok = r.Single_broadcast.payloads_ok;
  }
