open Rn_util
open Rn_graph
open Rn_radio

type red_state = {
  red_rng : Rng.t;
  mutable coin : bool;
  mutable claims : int list;  (* distinct unrecruited blues claiming me *)
  mutable recruits : int;  (* saturating at 2 = "many" *)
  mutable single : int;  (* the unique recruit when recruits = 1 *)
}

type blue_state = {
  blue_rng : Rng.t;
  mutable heard : int;  (* red heard in this iteration's announce round; -1 none *)
  mutable parent : int;  (* -1 = not recruited *)
  mutable many : bool;  (* belief about parent's class *)
}

type t = {
  graph : Graph.t;
  params : Params.t;
  ladder : int;  (* ⌈log n⌉ *)
  iter_len : int;  (* 2 + ladder *)
  total_rounds : int;
  reds : int array;
  blues : int array;
  red_st : (int, red_state) Hashtbl.t;
  blue_st : (int, blue_state) Hashtbl.t;
  mutable round : int;
  mutable done_flag : bool;
}

let create ~rng ~params ~scale_n ~graph ~reds ~blues () =
  let ladder = Params.phase_len ~n:scale_n in
  let iter_len = 2 + ladder in
  let iters = Params.recruit_iterations params ~n:scale_n in
  let red_st = Hashtbl.create (Array.length reds) in
  Array.iter
    (fun r ->
      Hashtbl.replace red_st r
        { red_rng = Rng.split rng; coin = false; claims = []; recruits = 0; single = -1 })
    reds;
  let blue_st = Hashtbl.create (Array.length blues) in
  Array.iter
    (fun b ->
      Hashtbl.replace blue_st b
        { blue_rng = Rng.split rng; heard = -1; parent = -1; many = false })
    blues;
  {
    graph;
    params;
    ladder;
    iter_len;
    total_rounds = iters * iter_len;
    reds;
    blues;
    red_st;
    blue_st;
    round = 0;
    done_flag = false;
  }

type slot = Announce | Claiming of int | Verdict

let slot t =
  let r = t.round mod t.iter_len in
  if r = 0 then Announce
  else if r <= t.ladder then Claiming r
  else Verdict

let iteration t = t.round / t.iter_len

let announce_exponent t =
  (* Exponent of 2^{-⌈j/⌈log n⌉⌉}, cycling so long runs keep sweeping all
     scales. *)
  ((iteration t / t.ladder) mod t.ladder) + 1

let decide t ~node =
  if t.done_flag then Engine.Sleep
  else
    match (Hashtbl.find_opt t.red_st node, slot t) with
    | Some red, Announce ->
        red.coin <- Rng.coin_pow2 red.red_rng (announce_exponent t);
        red.claims <- [];
        if red.coin then Engine.Transmit (Cmsg.Red_id node) else Engine.Listen
    | Some _, Claiming _ -> Engine.Listen
    | Some red, Verdict ->
        if not red.coin then Engine.Listen
        else begin
          let n_claims = List.length red.claims in
          let verdict =
            if n_claims >= 2 then Cmsg.Sigma node
            else if n_claims = 1 then begin
              if red.recruits >= 1 then Cmsg.Sigma node
              else Cmsg.Confirm { red = node; blue = List.hd red.claims }
            end
            else if
              (* Echo the standing verdict for class consistency. *)
              red.recruits >= 2
            then Cmsg.Sigma node
            else if red.recruits = 1 then
              Cmsg.Confirm { red = node; blue = red.single }
            else Cmsg.Beacon
          in
          Engine.Transmit verdict
        end
    | None, _ -> (
        match (Hashtbl.find_opt t.blue_st node, slot t) with
        | None, _ -> Engine.Sleep
        | Some blue, Announce ->
            blue.heard <- -1;
            Engine.Listen
        | Some blue, Claiming d ->
            if blue.parent < 0 && blue.heard >= 0 then begin
              if Rng.coin_pow2 blue.blue_rng d then
                Engine.Transmit (Cmsg.Claim { blue = node; red = blue.heard })
              else Engine.Listen
            end
            else Engine.Listen
        | Some _, Verdict -> Engine.Listen)

let commit_recruit red_state ~red:_ ~blue =
  if red_state.recruits = 0 then begin
    red_state.recruits <- 1;
    red_state.single <- blue
  end
  else red_state.recruits <- 2

let deliver t ~node reception =
  if not t.done_flag then
    match reception with
    | Engine.Silence | Engine.Collision -> ()
    | Engine.Received msg -> (
        match Hashtbl.find_opt t.red_st node with
        | Some red -> (
            match (msg, slot t) with
            | Cmsg.Claim { blue; red = target }, Claiming _ when target = node ->
                if not (List.mem blue red.claims) then
                  red.claims <- blue :: red.claims
            | _ -> ())
        | None -> (
            match Hashtbl.find_opt t.blue_st node with
            | None -> ()
            | Some blue -> (
                match (msg, slot t) with
                | Cmsg.Red_id r, Announce -> blue.heard <- r
                | Cmsg.Confirm { red; blue = b }, Verdict ->
                    if b = node && blue.parent < 0 && blue.heard = red then begin
                      blue.parent <- red;
                      blue.many <- false;
                      commit_recruit (Hashtbl.find t.red_st red) ~red ~blue:node
                    end
                | Cmsg.Sigma red, Verdict ->
                    if blue.parent = red then blue.many <- true
                    else if blue.parent < 0 && blue.heard = red then begin
                      blue.parent <- red;
                      blue.many <- true;
                      (* The red might not have heard this blue; its class is
                         already Many by construction of Sigma. *)
                      let rs = Hashtbl.find t.red_st red in
                      (* rblint:allow R12 Lemma-6 bookkeeping writes the recruiting red's record from the blue's callback; the recruiting subroutine is a serial building block: all three drivers of this deliver (Recruiting.run_standalone, Bipartite_assignment.run_standalone, Gst_distributed.run_assignment) map Sharded to Sparse with Drive.serial, so Engine_sharded never runs it. *)
                      if rs.recruits < 2 then rs.recruits <- 2
                    end
                | _ -> ())))

let coverable_blues t =
  Array.to_list t.blues
  |> List.filter (fun b ->
         Graph.fold_neighbors t.graph b
           (fun acc v -> acc || Hashtbl.mem t.red_st v)
           false)

let goal_reached t =
  List.for_all
    (fun b ->
      let bs = Hashtbl.find t.blue_st b in
      bs.parent >= 0
      &&
      let rs = Hashtbl.find t.red_st bs.parent in
      bs.many = (rs.recruits >= 2))
    (coverable_blues t)

let advance t =
  if not t.done_flag then begin
    t.round <- t.round + 1;
    if t.round >= t.total_rounds then t.done_flag <- true
    else if
      t.params.Params.adaptive
      && t.round mod t.iter_len = 0
      && goal_reached t
    then t.done_flag <- true
  end

let finished t = t.done_flag

type red_class = Zero | One of int | Many

let parent_of t b =
  match Hashtbl.find_opt t.blue_st b with
  | Some bs when bs.parent >= 0 -> Some bs.parent
  | Some _ | None -> None

let red_class t r =
  match Hashtbl.find_opt t.red_st r with
  | None -> Zero
  | Some rs ->
      if rs.recruits >= 2 then Many
      else if rs.recruits = 1 then One rs.single
      else Zero

let blue_sees_many t b =
  match Hashtbl.find_opt t.blue_st b with
  | Some bs when bs.parent >= 0 -> Some bs.many
  | Some _ | None -> None

let rounds_used t = t.round

type outcome = {
  recruited : (int * int) list;
  rounds : int;
  all_covered : bool;
  classes_consistent : bool;
}

let run_standalone ?(detection = Engine.No_collision_detection) ?engine
    ?metrics ~rng ~params ~graph ~reds ~blues () =
  let t = create ~rng ~params ~scale_n:(Graph.n graph) ~graph ~reds ~blues () in
  (* rblint:allow R14 internal Lemma-6 driver: a serial building block of the assignment phase, reachable from registered pipelines only through Bipartite_assignment; not a user-facing protocol. *)
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node -> decide t ~node);
      deliver = (fun ~round:_ ~node r -> deliver t ~node r);
    }
  in
  (* Nodes outside the bipartite population sleep in every round (decide
     falls through both tables), so the awake set is static.  No skip
     hint: every slot keeps some population awake (announce coins, claim
     listeners, verdict transmitters). *)
  let decide_active = Drive.static_active ~n:(Graph.n graph) [ reds; blues ] in
  (* Phase = recruiting iteration (one announce/claim/verdict cycle).
     [advance] moves [t.round], so the annotation reads the machine's own
     iteration counter right after advancing — coordinator-serial. *)
  let after_round =
    match metrics with
    | None -> fun ~round:_ -> advance t
    | Some m ->
        Rn_obs.Phase.enter m 0;
        fun ~round:_ ->
          advance t;
          Rn_obs.Phase.enter m (iteration t)
  in
  let stop ~round:_ = finished t in
  let max_rounds = t.total_rounds + 1 in
  let outcome =
    Drive.run
      ?engine:(Option.map Drive.serial engine)
      ?metrics ?decide_active ~graph ~detection ~protocol ~after_round ~stop
      ~max_rounds ()
  in
  let rounds = Engine.rounds_of_outcome outcome in
  let recruited =
    Array.to_list t.blues
    |> List.filter_map (fun b ->
           match parent_of t b with Some r -> Some (b, r) | None -> None)
  in
  let all_covered =
    List.for_all (fun b -> Option.is_some (parent_of t b)) (coverable_blues t)
  in
  let classes_consistent =
    List.for_all
      (fun (b, r) ->
        match (blue_sees_many t b, red_class t r) with
        | Some m, Many -> m
        | Some m, One _ -> not m
        | _ -> false)
      recruited
  in
  { recruited; rounds; all_covered; classes_consistent }
