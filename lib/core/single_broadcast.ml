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

let run ?(rings = Auto) ?(params = Params.default)
    ?(construction_mode = Gst_distributed.Pipelined)
    ?(estimate_diameter = false) ?engine ~rng ~graph ~source () =
  let n = Graph.n graph in
  if n = 0 then invalid_arg "Single_broadcast.run: empty graph";
  (* Phase 1: collision-detection layering — either the D-round wave alone
     (when a constant-factor D bound is assumed known, the model default)
     or the footnote-2 estimator, which costs O(D) and also layers. *)
  let levels, layering_rounds, depth_bound =
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
  let width = ring_width_of ~depth:depth_bound rings in
  let rings_t = Rings.decompose ~levels ~width in
  let count = rings_t.Rings.count in
  (* Phase 2: per-ring GST construction, rings in parallel. *)
  let ring_results =
    List.init count (fun j ->
        let roots = Rings.roots rings_t j in
        let local = Rings.ring_levels rings_t j in
        Gst_distributed.construct ~mode:construction_mode
          ~layering:(Gst_distributed.Given_layering local) ~learn_vd:true
          ~params ?engine ~rng:(Rng.split rng) ~graph ~roots ())
  in
  let rounds_construction =
    Rings.charged_parallel_rounds
      (List.map (fun r -> r.Gst_distributed.total_rounds) ring_results)
  in
  (* Phase 3: ring-by-ring dissemination. *)
  let msg = [| Bitvec.random rng 32 |] in
  let received = Array.make n false in
  received.(source) <- true;
  let rounds_broadcast = ref 0 in
  let ok = ref true in
  List.iteri
    (fun j r ->
      if !ok then begin
        let roots = Rings.roots rings_t j in
        if not (Array.for_all (fun v -> received.(v)) roots) then ok := false
        else begin
          let gst = r.Gst_distributed.gst in
          let b =
            Gst_broadcast.run ~params ?engine ~rng:(Rng.split rng) ~gst
              ~vd:r.Gst_distributed.vd ~msgs:msg ~sources:roots ()
          in
          rounds_broadcast := !rounds_broadcast + b.Gst_broadcast.rounds;
          (match b.Gst_broadcast.outcome with
          | Rn_radio.Engine.Completed _ ->
              Array.iteri
                (fun v dr -> if dr >= 0 then received.(v) <- true)
                b.Gst_broadcast.decode_round
          | Rn_radio.Engine.Out_of_budget _ -> ok := false);
          if !ok && j + 1 < count then begin
            let holders = Rings.outer_boundary rings_t j in
            let receivers = Rings.roots rings_t (j + 1) in
            let h =
              Rings.handoff_single ~params ?engine ~rng:(Rng.split rng) ~graph
                ~holders ~receivers ()
            in
            rounds_broadcast := !rounds_broadcast + h.Rings.rounds;
            if h.Rings.delivered then
              Array.iter (fun v -> received.(v) <- true) receivers
            else ok := false
          end
        end
      end)
    ring_results;
  let delivered = !ok && Array.for_all (fun b -> b) received in
  {
    delivered;
    rounds_total = layering_rounds + rounds_construction + !rounds_broadcast;
    rounds_layering = layering_rounds;
    rounds_construction;
    rounds_broadcast = !rounds_broadcast;
    ring_count = count;
    ring_width = width;
    received;
  }
