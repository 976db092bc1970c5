open Rn_graph
open Rn_radio

type result = {
  estimate : int;
  eccentricity : int;
  rounds : int;
  levels : int array;
}

(* One guess: forward wave (rounds 0..T-1), coverage probe (round T),
   aligned echo (rounds T+1..2T+1).  Returns (levels, too_small). *)
let run_guess ~graph ~source ~t =
  let n = Graph.n graph in
  let level = Array.make n (-1) in
  let front = Layering.wave ~graph ~levels:level ~sources:[| source |] in
  let by_level = ref [||] in
  let boundary_hit = Array.make n false in
  let echo = Array.make n false in
  let source_heard_echo = Atomic.make false in
  let decide ~round ~node =
    if round < t then
      (* Forward wave: level l beeps exactly in round l. *)
      if level.(node) = round then Engine.Transmit Cmsg.Beacon
      else if level.(node) < 0 then Engine.Listen
      else Engine.Sleep
    else if round = t then
      (* Coverage probe: the unreached beep, the reached listen. *)
      if level.(node) < 0 then Engine.Transmit Cmsg.Beacon else Engine.Listen
    else begin
      (* Echo: level l owns slot 2T+1-l, deeper levels first. *)
      let l = level.(node) in
      if l < 0 then Engine.Sleep
      else if round = (2 * t) + 1 - l then begin
        if boundary_hit.(node) || echo.(node) then Engine.Transmit Cmsg.Beacon
        else Engine.Sleep
      end
      else if round = (2 * t) - l then Engine.Listen (* the deeper slot *)
      else Engine.Sleep
    end
  in
  let deliver ~round ~node reception =
    match reception with
    | Engine.Silence -> ()
    | Engine.Received _ | Engine.Collision ->
        if round < t then begin
          if level.(node) < 0 then level.(node) <- round + 1
        end
        else if round = t then boundary_hit.(node) <- true
        else begin
          (* Hearing anything in the slot just below ours relays the bit. *)
          let l = level.(node) in
          if l >= 0 && round = (2 * t) - l then begin
            echo.(node) <- true;
            if node = source then Atomic.set source_heard_echo true
          end
        end
  in
  (* Awake sets: the wave's front in the forward rounds, everyone in the
     probe, and the two level buckets an echo slot reads, grouped once
     when the forward wave ends.  Every other node sleeps in [decide]. *)
  let after_round ~round =
    if round < t - 1 then Layering.wave_advance front
    else if round = t - 1 then by_level := Bfs.by_level level
  in
  let bucket l buf k =
    if l < 0 || l >= Array.length !by_level then k
    else begin
      let nodes = !by_level.(l) in
      Array.blit nodes 0 buf k (Array.length nodes);
      k + Array.length nodes
    end
  in
  let decide_active ~round (buf : int array) =
    if round < t then Layering.wave_awake front buf
    else if round = t then begin
      for v = 0 to n - 1 do
        buf.(v) <- v
      done;
      n
    end
    else bucket ((2 * t) - round) buf (bucket ((2 * t) + 1 - round) buf 0)
  in
  ignore
    (Drive.run ~graph
       ~detection:Engine.Collision_detection
       ~protocol:{ Engine.decide; deliver }
       ~after_round ~decide_active
       ~stop:(fun ~round:_ -> false)
       ~max_rounds:((2 * t) + 2)
       ());
  let too_small =
    Atomic.get source_heard_echo
    || (* the source itself may border the uncovered region *)
    boundary_hit.(source)
  in
  (level, too_small)

(* The reference eccentricity also rejects a disconnected graph before
   any guess runs; on a connected one a guess [t >= ecc] covers the whole
   graph and ends the doubling, so [go] stops at the first such guess. *)
let run ~graph ~source () =
  let n = Graph.n graph in
  if n = 0 then invalid_arg "Diameter_estimate.run: empty graph";
  let eccentricity = Bfs.eccentricity graph source in
  let rec go t spent =
    let levels, too_small = run_guess ~graph ~source ~t in
    let spent = spent + (2 * t) + 2 in
    if too_small then go (2 * t) spent
    else { estimate = t; eccentricity; rounds = spent; levels }
  in
  go 1 0
