open Rn_util
open Rn_graph
open Rn_coding
open Rn_radio

type t = {
  levels : int array;
  width : int;
  count : int;
  by_level : int array array;
}

let decompose ~levels ~width =
  if width < 1 then invalid_arg "Rings.decompose: width must be >= 1";
  let by_level = Bfs.by_level levels in
  (* ⌈layers / width⌉ rings *)
  let count = (Array.length by_level + width - 1) / width in
  { levels; width; count; by_level }

let layer t l = if l < Array.length t.by_level then t.by_level.(l) else [||]

let ring_levels t j =
  let local = Array.make (Array.length t.levels) (-1) in
  let first = j * t.width in
  for l = first to min (first + t.width) (Array.length t.by_level) - 1 do
    Array.iter (fun v -> local.(v) <- l - first) t.by_level.(l)
  done;
  local

let roots t j = layer t (j * t.width)

let outer_boundary t j = layer t (((j + 1) * t.width) - 1)

let charged_parallel_rounds rounds =
  match rounds with [] -> 0 | l -> 2 * List.fold_left max 0 l

type handoff_result = { rounds : int; delivered : bool }

(* Shared Decay loop for both handoff flavours: [payload] builds the packet
   a holder sends when its coin comes up; [receive] consumes a clean
   reception and returns true once that receiver is satisfied. *)
let decay_handoff ?engine ~params ~rng ~graph ~holders ~receivers ~payload
    ~receive ~satisfied () =
  let n = Graph.n graph in
  let ladder = Params.phase_len ~n in
  let node_rng = Rng.split_n rng n in
  let is_holder = Array.make n false in
  Array.iter (fun v -> is_holder.(v) <- true) holders;
  (* [missing] counts distinct receivers: one satisfied receiver
     decrements it once, however often the caller listed it. *)
  let is_receiver = Array.make n false in
  let missing = Atomic.make 0 in
  Array.iter
    (fun v ->
      if not is_receiver.(v) then begin
        is_receiver.(v) <- true;
        if not (satisfied v) then Atomic.incr missing
      end)
    receivers;
  let decide ~round ~node =
    if is_holder.(node) then begin
      if Rng.coin_pow2 node_rng.(node) ((round mod ladder) + 1) then
        Engine.Transmit (payload node)
      else Engine.Listen
    end
    else if is_receiver.(node) && not (satisfied node) then Engine.Listen
    else Engine.Sleep
  in
  let deliver ~round:_ ~node reception =
    match reception with
    | Engine.Received msg ->
        if is_receiver.(node) && not (satisfied node) then
          if receive node msg then Atomic.decr missing
    | Engine.Silence | Engine.Collision -> ()
  in
  let budget =
    params.Params.max_round_factor * Params.whp_phases params ~n * ladder * 4
  in
  let protocol = { Engine.decide; deliver } in
  let stop ~round:_ = Atomic.get missing = 0 in
  (* Everyone else sleeps, so the awake set is the (static, disjoint)
     boundary populations; deduped defensively in case a caller passes
     overlapping sets.  No skip hint: holders draw a coin every round. *)
  let decide_active = Drive.static_active ~n [ holders; receivers ] in
  let outcome =
    Drive.run ?engine ?decide_active ~graph
      ~detection:Engine.No_collision_detection ~protocol ~stop
      ~max_rounds:budget ()
  in
  {
    rounds = Engine.rounds_of_outcome outcome;
    delivered = (match outcome with Engine.Completed _ -> true | _ -> false);
  }

let handoff_single ?(params = Params.default) ?engine ~rng ~graph ~holders
    ~receivers () =
  if Array.length holders = 0 then { rounds = 0; delivered = false }
  else begin
    let got = Array.make (Graph.n graph) false in
    decay_handoff ?engine ~params ~rng ~graph ~holders ~receivers
      ~payload:(fun _ -> Cmsg.Beacon)
      ~receive:(fun v _ ->
        got.(v) <- true;
        true)
      ~satisfied:(fun v -> got.(v))
      ()
  end

type fec_msg = Fec_packet of Rlnc.packet

let handoff_fec ?(params = Params.default) ?engine ~rng ~graph ~holders
    ~receivers ~msgs () =
  let k = Array.length msgs in
  if k = 0 then invalid_arg "Rings.handoff_fec: empty batch";
  let msg_len = Bitvec.length msgs.(0) in
  if Array.length holders = 0 then ({ rounds = 0; delivered = false }, None)
  else begin
    let n = Graph.n graph in
    let fec_rng = Rng.split_n rng n in
    let decoders = Array.init n (fun _ -> Rlnc.create ~k ~msg_len) in
    let result =
      decay_handoff ?engine ~params ~rng ~graph ~holders ~receivers
        ~payload:(fun v ->
          (* Fresh random combination per transmission — RLNC-grade FEC,
             at least as decodable as the paper's fixed Θ(k′) codebook. *)
          let pkts = Fec.encode fec_rng.(v) ~msgs ~count:1 in
          Fec_packet pkts.(0))
        ~receive:(fun v msg ->
          match msg with
          | Fec_packet p ->
              ignore (Rlnc.receive decoders.(v) p);
              Rlnc.can_decode decoders.(v))
        ~satisfied:(fun v -> Rlnc.can_decode decoders.(v))
        ()
    in
    let decoded =
      if Array.length receivers = 0 then Some (Array.map Bitvec.copy msgs)
      else Rlnc.decode decoders.(receivers.(0))
    in
    (result, decoded)
  end
