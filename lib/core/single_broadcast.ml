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
    ?(estimate_diameter = false) ?engine ~rng ~graph ~source () =
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
      ~learn_vd:true ~params ?engine ~rng:(Rng.copy ring_rngs.(j)) ~graph
      ~roots:(Rings.roots rings_t j) ()
  in
  { rings = rings_t; rounds_layering; build }

let run ?rings ?(params = Params.default) ?estimate_diameter ?engine ~rng
    ~graph ~source () =
  let { rings = rings_t; rounds_layering; build } =
    front ?rings ~params ?estimate_diameter ?engine ~rng ~graph ~source ()
  in
  let n = Graph.n graph in
  let count = rings_t.Rings.count in
  (* Ring by ring: build ring j, spread across it and hand off to ring
     j+1, then drop its forest, so at most one ring's forest is live.
     The rings are built in parallel in the charged accounting, whose
     2 × max runs over every ring, so rings past a failed spread are
     still built for their round counts. *)
  let msg = [| Bitvec.random rng 32 |] in
  let received = Array.make n false in
  received.(source) <- true;
  let rounds_broadcast = ref 0 in
  let ring_rounds = ref [] in
  let ok = ref true in
  for j = 0 to count - 1 do
    let r = build j in
    ring_rounds := r.Gst_distributed.total_rounds :: !ring_rounds;
    if !ok then begin
      let roots = Rings.roots rings_t j in
      if not (Array.for_all (fun v -> received.(v)) roots) then ok := false
      else begin
        let b =
          Gst_broadcast.run ~params ?engine ~rng:(Rng.split rng)
            ~gst:r.Gst_distributed.gst ~vd:r.Gst_distributed.vd ~msgs:msg
            ~sources:roots ()
        in
        rounds_broadcast := !rounds_broadcast + b.Gst_broadcast.rounds;
        (match b.Gst_broadcast.outcome with
        | Rn_radio.Engine.Completed _ when b.Gst_broadcast.payloads_ok ->
            Array.iteri
              (fun v dr -> if dr >= 0 then received.(v) <- true)
              b.Gst_broadcast.decode_round
        | Rn_radio.Engine.Completed _ | Rn_radio.Engine.Out_of_budget _ ->
            ok := false);
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
    end
  done;
  let rounds_construction = Rings.charged_parallel_rounds !ring_rounds in
  let delivered = !ok && Array.for_all (fun b -> b) received in
  {
    delivered;
    rounds_total = rounds_layering + rounds_construction + !rounds_broadcast;
    rounds_layering;
    rounds_construction;
    rounds_broadcast = !rounds_broadcast;
    ring_count = count;
    ring_width = rings_t.Rings.width;
    received;
  }
