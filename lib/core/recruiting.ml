open Rn_util
open Rn_graph
open Rn_radio

(* Per-instance state lives in flat arrays indexed by a node's {e slot}
   (its position in [reds] or [blues]); [keys]/[red_of]/[blue_of] map a
   node id to its slots.  The map is open addressing with linear probing
   over a power-of-two table at most half full: cell [h] holds node
   [keys.(h)] (-1 = empty) with its red and blue slot (-1 = not one).  A
   node listed twice keeps its last slot, and a node in both arrays acts
   as a red in [decide]/[deliver]. *)
type t = {
  params : Params.t;
  ladder : int;  (* ⌈log n⌉ *)
  iter_len : int;  (* 2 + ladder *)
  total_rounds : int;
  reds : int array;
  blues : int array;
  keys : int array;
  red_of : int array;
  blue_of : int array;
  (* red slots *)
  red_rng : Rng.t array;
  coin : bool array;
  claims : int array;  (* distinct unrecruited blues claiming me, saturating at 2 *)
  first_claim : int array;  (* the claimant when claims = 1 *)
  recruits : int array;  (* saturating at 2 = "many" *)
  single : int array;  (* the unique recruit when recruits = 1 *)
  (* blue slots *)
  blue_rng : Rng.t array;
  heard : int array;  (* red heard in this iteration's announce round; -1 none *)
  parent : int array;  (* -1 = not recruited *)
  many : bool array;  (* belief about parent's class *)
  coverable : int array;  (* blue slots with a red neighbour *)
  (* This iteration's claim or verdict actors (node ids), refilled by
     [advance] on entering each of those slots; see [awake]. *)
  acts : int array;
  mutable n_acts : int;
  mutable round : int;
  mutable done_flag : bool;
}

let cell_of keys node =
  (* Multiplicative hashing: middle bits of [node * ⌊2^62/φ⌋]. *)
  let mask = Array.length keys - 1 in
  let rec probe h =
    let k = keys.(h) in
    if k = node || k < 0 then h else probe ((h + 1) land mask)
  in
  probe (((node * 0x278DDE6E5FD29F05) lsr 20) land mask)

let find keys slots node =
  let h = cell_of keys node in
  if keys.(h) = node then slots.(h) else -1

let red_slot t node = find t.keys t.red_of node
let blue_slot t node = find t.keys t.blue_of node

let create ~rng ~params ~scale_n ~graph ~reds ~blues () =
  let ladder = Params.phase_len ~n:scale_n in
  let iter_len = 2 + ladder in
  let iters = Params.recruit_iterations params ~n:scale_n in
  let nr = Array.length reds and nb = Array.length blues in
  let cap = ref 2 in
  while !cap < 2 * (nr + nb) do
    cap := 2 * !cap
  done;
  let keys = Array.make !cap (-1) in
  let red_of = Array.make !cap (-1) and blue_of = Array.make !cap (-1) in
  let add slots i v =
    let h = cell_of keys v in
    keys.(h) <- v;
    slots.(h) <- i
  in
  Array.iteri (add red_of) reds;
  Array.iteri (add blue_of) blues;
  let red_rng = Array.init nr (fun _ -> Rng.split rng) in
  let blue_rng = Array.init nb (fun _ -> Rng.split rng) in
  let coverable =
    Array.of_list
      (List.filter_map
         (fun b ->
           if
             Graph.fold_neighbors graph b
               (fun acc v -> acc || find keys red_of v >= 0)
               false
           then Some (find keys blue_of b)
           else None)
         (Array.to_list blues))
  in
  {
    params;
    ladder;
    iter_len;
    total_rounds = iters * iter_len;
    reds;
    blues;
    keys;
    red_of;
    blue_of;
    red_rng;
    coin = Array.make nr false;
    claims = Array.make nr 0;
    first_claim = Array.make nr (-1);
    recruits = Array.make nr 0;
    single = Array.make nr (-1);
    blue_rng;
    heard = Array.make nb (-1);
    parent = Array.make nb (-1);
    many = Array.make nb false;
    coverable;
    acts = Array.make (nr + nb) 0;
    n_acts = 0;
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
  Decay.exponent ~ladder:t.ladder (iteration t / t.ladder)

let decide t ~node =
  if t.done_flag then Engine.Sleep
  else
    (* One probe serves both colours. *)
    let h = cell_of t.keys node in
    let r = if t.keys.(h) = node then t.red_of.(h) else -1 in
    if r >= 0 then
      match slot t with
      | Announce ->
          let c = Rng.coin_pow2 t.red_rng.(r) (announce_exponent t) in
          t.coin.(r) <- c;
          t.claims.(r) <- 0;
          if c then Engine.Transmit (Cmsg.Red_id node) else Engine.Listen
      | Claiming _ -> Engine.Listen
      | Verdict ->
          if not t.coin.(r) then Engine.Listen
          else begin
            let n_claims = t.claims.(r) and recruits = t.recruits.(r) in
            let verdict =
              if n_claims >= 2 then Cmsg.Sigma node
              else if n_claims = 1 then begin
                if recruits >= 1 then Cmsg.Sigma node
                else Cmsg.Confirm { red = node; blue = t.first_claim.(r) }
              end
              else if
                (* Echo the standing verdict for class consistency. *)
                recruits >= 2
              then Cmsg.Sigma node
              else if recruits = 1 then
                Cmsg.Confirm { red = node; blue = t.single.(r) }
              else Cmsg.Beacon
            in
            Engine.Transmit verdict
          end
    else
      let b = if t.keys.(h) = node then t.blue_of.(h) else -1 in
      if b < 0 then Engine.Sleep
      else
        match slot t with
        | Announce ->
            t.heard.(b) <- -1;
            Engine.Listen
        | Claiming d ->
            if t.parent.(b) < 0 && t.heard.(b) >= 0 then begin
              if Rng.coin_pow2 t.blue_rng.(b) d then
                Engine.Transmit (Cmsg.Claim { blue = node; red = t.heard.(b) })
              else Engine.Listen
            end
            else Engine.Listen
        | Verdict -> Engine.Listen

let commit_recruit t r ~blue =
  if t.recruits.(r) = 0 then begin
    t.recruits.(r) <- 1;
    t.single.(r) <- blue
  end
  else t.recruits.(r) <- 2

let deliver t ~node reception =
  if not t.done_flag then
    match reception with
    | Engine.Silence | Engine.Collision -> ()
    | Engine.Received msg -> (
        let r = red_slot t node in
        if r >= 0 then
          match (msg, slot t) with
          | Cmsg.Claim { blue; red = target }, Claiming _ when target = node ->
              (* Only the count (saturating at 2) and a lone claimant are
                 ever read. *)
              if t.claims.(r) = 0 then begin
                t.claims.(r) <- 1;
                t.first_claim.(r) <- blue
              end
              else if t.claims.(r) = 1 && t.first_claim.(r) <> blue then
                t.claims.(r) <- 2
          | _ -> ()
        else
          let b = blue_slot t node in
          if b >= 0 then
            match (msg, slot t) with
            | Cmsg.Red_id r, Announce -> t.heard.(b) <- r
            | Cmsg.Confirm { red; blue = target }, Verdict ->
                if target = node && t.parent.(b) < 0 && t.heard.(b) = red then begin
                  t.parent.(b) <- red;
                  t.many.(b) <- false;
                  commit_recruit t (red_slot t red) ~blue:node
                end
            | Cmsg.Sigma red, Verdict ->
                if t.parent.(b) = red then t.many.(b) <- true
                else if t.parent.(b) < 0 && t.heard.(b) = red then begin
                  t.parent.(b) <- red;
                  t.many.(b) <- true;
                  (* The red might not have heard this blue; its class is
                     already Many by construction of Sigma. *)
                  let rs = red_slot t red in
                  (* rblint:allow R12 Lemma-6 bookkeeping, a simulation device: the blue's callback writes the red's record, standing in for the Many class that Sigma already implies; the write only saturates the red's count at 2, so no delivery order can change the red's class. *)
                  if t.recruits.(rs) < 2 then t.recruits.(rs) <- 2
                end
            | _ -> ())

let goal_reached t =
  Array.for_all
    (fun b ->
      let p = t.parent.(b) in
      p >= 0 && t.many.(b) = (t.recruits.(red_slot t p) >= 2))
    t.coverable

let push_act t v =
  t.acts.(t.n_acts) <- v;
  t.n_acts <- t.n_acts + 1

(* The actors of the slot just entered: the reds that announced, then the
   blues that may claim ([~claim:true]) or may act on a verdict.  A slot
   with nobody to transmit (no eligible blue, no announcing red) gets no
   actors at all.  Slot [i] holds [reds.(i)]/[blues.(i)] because members
   are distinct ([awake]'s precondition). *)
let fill_acts t ~claim =
  t.n_acts <- 0;
  for i = 0 to Array.length t.reds - 1 do
    if t.coin.(i) then push_act t t.reds.(i)
  done;
  let n_reds = t.n_acts in
  if n_reds > 0 || claim then begin
    for b = 0 to Array.length t.blues - 1 do
      let acts =
        if claim then t.parent.(b) < 0 && t.heard.(b) >= 0
        else t.heard.(b) >= 0 || t.parent.(b) >= 0
      in
      if acts then push_act t t.blues.(b)
    done;
    if claim && t.n_acts = n_reds then t.n_acts <- 0
  end
[@@zero_alloc_hot]

let advance t =
  if not t.done_flag then begin
    t.round <- t.round + 1;
    if
      Params.stage_over t.params ~round:t.round ~budget:t.total_rounds
        ~period:t.iter_len goal_reached t
    then t.done_flag <- true
    else
      let r = t.round mod t.iter_len in
      if r = 1 then fill_acts t ~claim:true
      else if r = t.ladder + 1 then fill_acts t ~claim:false
  end

let finished t = t.done_flag

let blit_into buf k src len =
  Array.blit src 0 buf k len;
  k + len

let awake t buf k =
  if t.done_flag then k
  else if t.round mod t.iter_len = 0 then
    let k = blit_into buf k t.reds (Array.length t.reds) in
    blit_into buf k t.blues (Array.length t.blues)
  else blit_into buf k t.acts t.n_acts
[@@zero_alloc_hot]

type red_class = Zero | One of int | Many

let parent_of t b =
  let s = blue_slot t b in
  if s >= 0 && t.parent.(s) >= 0 then Some t.parent.(s) else None

let red_class t r =
  let s = red_slot t r in
  if s < 0 then Zero
  else if t.recruits.(s) >= 2 then Many
  else if t.recruits.(s) = 1 then One t.single.(s)
  else Zero

let blue_sees_many t b =
  let s = blue_slot t b in
  if s >= 0 && t.parent.(s) >= 0 then Some t.many.(s) else None

type outcome = {
  recruited : (int * int) list;
  rounds : int;
  all_covered : bool;
  classes_consistent : bool;
}

let run_standalone ~rng ~params ~graph ~reds ~blues () =
  let t = create ~rng ~params ~scale_n:(Graph.n graph) ~graph ~reds ~blues () in
  (* rblint:allow R14 internal Lemma-6 driver: a serial building block of the assignment phase, reachable from registered pipelines only through Bipartite_assignment; not a user-facing protocol. *)
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node -> decide t ~node);
      deliver = (fun ~round:_ ~node r -> deliver t ~node r);
    }
  in
  (* Nodes outside the bipartite population sleep in every round (decide
     falls through both tables), so the awake set is static. *)
  let decide_active = Drive.static_active ~n:(Graph.n graph) [ reds; blues ] in
  let stop ~round:_ = finished t in
  let max_rounds = t.total_rounds + 1 in
  let outcome =
    Drive.run ?decide_active ~graph
      ~detection:Engine.No_collision_detection ~protocol
      ~after_round:(fun ~round:_ -> advance t)
      ~stop ~max_rounds ()
  in
  let rounds = Engine.rounds_of_outcome outcome in
  let recruited =
    Array.to_list t.blues
    |> List.filter_map (fun b ->
           match parent_of t b with Some r -> Some (b, r) | None -> None)
  in
  let all_covered = Array.for_all (fun b -> t.parent.(b) >= 0) t.coverable in
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
