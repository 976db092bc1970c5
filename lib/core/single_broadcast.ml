open Rn_util
open Rn_graph
open Rn_coding

type ring_choice = Auto | Ring_count of int | Ring_width of int

type result = {
  delivered : bool;
  rounds_total : int;
  rounds_layering : int;
  rounds_construction : int;
  rounds_broadcast : int;
  ring_count : int;
  ring_width : int;
  received : bool array;
}

let ring_width_of ~depth = function
  | Ring_width w ->
      if w < 1 then invalid_arg "Single_broadcast: ring width must be >= 1";
      w
  | Ring_count c ->
      if c < 1 then invalid_arg "Single_broadcast: ring count must be >= 1";
      max 1 (Ilog.cdiv (depth + 1) c)
  | Auto ->
      (* Balance construction cost (∝ width) against handoff cost
         (∝ count): √D rings.  See the module documentation. *)
      let count = max 1 (Ilog.isqrt (max 1 depth)) in
      max 1 (Ilog.cdiv (depth + 1) count)

type front = {
  rings : Rings.t;
  rounds_layering : int;
  build : int -> Gst_distributed.result;
}

let front ?(rings = Auto) ?(params = Params.default)
    ?(estimate_diameter = false) ~rng ~graph ~source () =
  if Graph.n graph = 0 then invalid_arg "Single_broadcast.front: empty graph";
  (* Collision-detection layering — either the D-round wave alone (when a
     constant-factor D bound is assumed known, the model default) or the
     footnote-2 estimator, which costs O(D) and also layers. *)
  let levels, rounds_layering, depth_bound =
    if estimate_diameter then begin
      let e = Diameter_estimate.run ~graph ~source () in
      (e.Diameter_estimate.levels, e.Diameter_estimate.rounds,
       e.Diameter_estimate.estimate)
    end
    else begin
      let wave = Layering.collision_wave ~graph ~sources:[| source |] () in
      (wave.Layering.levels, wave.Layering.rounds,
       Bfs.max_level wave.Layering.levels)
    end
  in
  let rings_t =
    Rings.decompose ~levels ~width:(ring_width_of ~depth:depth_bound rings)
  in
  (* Per-ring GST construction with learned virtual distances.  Every
     ring's stream is split here, in ring order, so [rng] advances the
     same however the rings are later built; [build] works on a copy, so
     building a ring twice gives the same forest. *)
  let ring_rngs = Array.init rings_t.Rings.count (fun _ -> Rng.split rng) in
  let build j =
    Gst_distributed.construct ~mode:Gst_distributed.Pipelined
      ~layering:(Gst_distributed.Given_layering (Rings.ring_levels rings_t j))
      ~learn_vd:true ~params ~rng:(Rng.copy ring_rngs.(j)) ~graph
      ~roots:(Rings.roots rings_t j) ()
  in
  { rings = rings_t; rounds_layering; build }

type relayed = {
  got : bool array array;
  delivered : bool;
  payloads_ok : bool;
  rounds_construction : int;
  stage_total : int;
  stage_max : int;
}

let relay ~params ~rng ~handoff { rings = rings_t; build; _ } batches =
  let count = rings_t.Rings.count in
  (* Stage streams in batch-major order: per batch, per ring, the
     spread's and then the handoff's. *)
  let streams =
    Array.map (fun _ -> Array.init ((2 * count) - 1) (fun _ -> Rng.split rng))
      batches
  in
  (* got.(b).(v) = node v holds batch b; the source (level 0) starts so. *)
  let levels = rings_t.Rings.levels in
  let got = Array.map (fun _ -> Array.map (fun l -> l = 0) levels) batches in
  let ok = ref true and payloads_ok = ref true in
  let stage_total = ref 0 and stage_max = ref 0 and ring_rounds = ref [] in
  (* Ring-major: build ring j, run every batch's stage on it, drop it.
     Rings past a failure are still built: the charged 2 × max runs over
     every ring. *)
  for j = 0 to count - 1 do
    let r = build j in
    ring_rounds := r.Gst_distributed.total_rounds :: !ring_rounds;
    let roots = Rings.roots rings_t j in
    Array.iteri
      (fun b msgs ->
        let held = got.(b) in
        ok := !ok && Array.for_all (fun v -> held.(v)) roots;
        if !ok then begin
          let s =
            Gst_broadcast.run ~params ~rng:streams.(b).(2 * j)
              ~gst:r.Gst_distributed.gst ~vd:r.Gst_distributed.vd ~msgs
              ~sources:roots ()
          in
          payloads_ok := !payloads_ok && s.Gst_broadcast.payloads_ok;
          ok :=
            s.Gst_broadcast.payloads_ok
            && Rn_radio.Engine.(
                 match s.Gst_broadcast.outcome with
                 | Completed _ -> true
                 | Out_of_budget _ -> false);
          if !ok then
            Array.iteri
              (fun v dr -> if dr >= 0 then held.(v) <- true)
              s.Gst_broadcast.decode_round;
          let handoff_rounds =
            if !ok && j + 1 < count then begin
              let receivers = Rings.roots rings_t (j + 1) in
              let h, decoded_ok =
                handoff ~rng:streams.(b).((2 * j) + 1)
                  ~holders:(Rings.outer_boundary rings_t j) ~receivers msgs
              in
              if h.Rings.delivered then
                payloads_ok := !payloads_ok && decoded_ok;
              ok := h.Rings.delivered && decoded_ok;
              if !ok then Array.iter (fun v -> held.(v) <- true) receivers;
              h.Rings.rounds
            end
            else 0
          in
          let rounds = s.Gst_broadcast.rounds + handoff_rounds in
          stage_total := !stage_total + rounds;
          stage_max := max !stage_max rounds
        end)
      batches
  done;
  {
    got;
    delivered = !ok && Array.for_all (Array.for_all Fun.id) got;
    payloads_ok = !payloads_ok;
    rounds_construction = Rings.charged_parallel_rounds !ring_rounds;
    stage_total = !stage_total;
    stage_max = !stage_max;
  }

let run ?rings ?(params = Params.default) ?estimate_diameter ~rng ~graph
    ~source () =
  let f = front ?rings ~params ?estimate_diameter ~rng ~graph ~source () in
  let msg = [| Bitvec.random rng 32 |] in
  let r =
    relay ~params ~rng f [| msg |]
      ~handoff:(fun ~rng ~holders ~receivers _ ->
        ( Rings.handoff_single ~params ~rng ~graph ~holders ~receivers (),
          true ))
  in
  {
    delivered = r.delivered;
    rounds_total = f.rounds_layering + r.rounds_construction + r.stage_total;
    rounds_layering = f.rounds_layering;
    rounds_construction = r.rounds_construction;
    rounds_broadcast = r.stage_total;
    ring_count = f.rings.Rings.count;
    ring_width = f.rings.Rings.width;
    received = r.got.(0);
  }
