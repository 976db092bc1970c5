open Rn_util
open Rn_graph
open Rn_radio

type stage =
  | Waiting
  | Identify
  | Loner_probe
  | Loner_inform
  | Part of int * Recruiting.t
  | Stage3
  | Done

(* Per-node state lives in arrays indexed by a member's {e slot}: a red's
   index in [reds], or [Array.length reds] plus a blue's index in
   [blues].  [pos] maps a node to its index in its own array; it is
   shared with the other instances of a construction (a node's index
   within its level is the same whether the level is red or blue), so an
   instance's own arrays are sized by its members, not by [n].  [v] is
   a member only if [pos] points back at it. *)
type t = {
  rng : Rng.t;
  params : Params.t;
  scale_n : int;
  graph : Graph.t;
  reds : int array;
  blues : int array;
  pos : int array;
  nr : int;  (* Array.length reds: the first blue slot *)
  parents : int array;
  ranks : int array;
  parent_rank : int array;
  ready : rank:int -> bool;
  ladder : int;
  decay_budget : int;
  node_rng : Rng.t array;
  (* rank-phase state *)
  mutable rank : int;
  mutable stage : stage;
  mutable stage_round : int;
  mutable rounds : int;
  active : bool array;
  excluded : bool array;
  (* epoch state *)
  loner : bool array;
  loner_parent : bool array;
  brisk : bool array;
  temp_taken : bool array;
  offer_red : int array;
  offer_rank : int array;
  ranked_now : bool array;  (* reds ranked in this epoch's parts *)
  mutable any_ranked : bool;
  mutable epoch : int;
  mutable epoch_hist : (int * int) list;
  mutable fixups : int;
  mutable fallbacks : int;
}

(* Member slot of [v], or -1 for a non-member.  The hot [decide],
   [wakes] and [deliver] look it up once per call. *)
let slot t v =
  let p = t.pos.(v) in
  if p < 0 then -1
  else if p < t.nr && t.reds.(p) = v then p
  else if p < Array.length t.blues && t.blues.(p) = v then t.nr + p
  else -1

let is_red t v =
  let s = slot t v in
  s >= 0 && s < t.nr

let is_blue t v = slot t v >= t.nr

(* Slots of a node known to be a red / a blue. *)
let rs t v = t.pos.(v)
let bs t v = t.nr + t.pos.(v)

(* The rank-phase roles of a node known to be a blue. *)
let primary t b = t.parents.(b) < 0 && t.ranks.(b) = t.rank
let secondary t b = t.parents.(b) < 0 && t.ranks.(b) < t.rank && t.ranks.(b) >= 1
let is_primary t b = is_blue t b && primary t b

let red_eligible t v =
  is_red t v && t.ranks.(v) = 0 && not t.excluded.(rs t v)

(* A blue that heard a Stage III announcement before knowing its own rank
   buffered the offer; attach as soon as the rank is known (pipelined mode
   learns blue ranks while shallower phases are already running). *)
let apply_offers t =
  Array.iteri
    (fun i b ->
      let s = t.nr + i in
      if
        t.parents.(b) < 0
        && t.offer_red.(s) >= 0
        && t.ranks.(b) >= 1
        && t.ranks.(b) < t.offer_rank.(s)
      then begin
        t.parents.(b) <- t.offer_red.(s);
        t.parent_rank.(b) <- t.offer_rank.(s)
      end)
    t.blues

let unassigned_primaries t =
  Array.to_list t.blues |> List.filter (fun b -> primary t b)

let exists_unassigned_primary t = Array.exists (fun b -> primary t b) t.blues

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~rng ~params ~scale_n ~graph ~reds ~blues ~pos ~parents ~ranks
    ~parent_rank ~ready () =
  let nr = Array.length reds in
  let m = nr + Array.length blues in
  let mk_flag () = Array.make m false in
  (* One coin stream per member, split in slot order: reds, then blues. *)
  let node_rng = Array.init m (fun _ -> Rng.split rng) in
  let ladder = Params.phase_len ~n:scale_n in
  {
    rng;
    params;
    scale_n;
    graph;
    reds;
    blues;
    pos;
    nr;
    parents;
    ranks;
    parent_rank;
    ready;
    ladder;
    decay_budget = Params.whp_rounds params ~n:scale_n;
    node_rng;
    rank = Ilog.clog (max 2 scale_n);
    stage = Waiting;
    stage_round = 0;
    rounds = 0;
    active = mk_flag ();
    excluded = mk_flag ();
    loner = mk_flag ();
    loner_parent = mk_flag ();
    brisk = mk_flag ();
    temp_taken = mk_flag ();
    offer_red = Array.make m (-1);
    offer_rank = Array.make m (-1);
    ranked_now = mk_flag ();
    any_ranked = false;
    epoch = 0;
    epoch_hist = [];
    fixups = 0;
    fallbacks = 0;
  }

(* ------------------------------------------------------------------ *)
(* Stage transitions (run inside [advance]) *)

let clear a = Array.fill a 0 (Array.length a) false

let reset_rank_state t =
  clear t.active;
  clear t.excluded;
  t.epoch <- 0

let reset_epoch_state t =
  clear t.loner;
  clear t.loner_parent;
  clear t.brisk;
  clear t.temp_taken;
  clear t.ranked_now;
  t.any_ranked <- false

let enter t stage =
  t.stage <- stage;
  t.stage_round <- 0

let identify_goal t =
  (* Every eligible red adjacent to an unassigned primary has activated. *)
  Array.for_all
    (fun v ->
      (not (red_eligible t v))
      || t.active.(rs t v)
      || not (Graph.fold_neighbors t.graph v (fun acc b -> acc || is_primary t b) false))
    t.reds

let loner_inform_goal t =
  Array.for_all
    (fun v ->
      let s = rs t v in
      (not (t.active.(s) && not t.loner_parent.(s)))
      || not
           (Graph.fold_neighbors t.graph v
              (fun acc b -> acc || (is_primary t b && t.loner.(bs t b)))
              false))
    t.reds

let no_loners t =
  not (Array.exists (fun b -> primary t b && t.loner.(bs t b)) t.blues)

let stage3_goal t =
  Array.for_all
    (fun b ->
      let has_marked_nbr () =
        Graph.fold_neighbors t.graph b
          (fun acc v -> acc || (is_red t v && t.ranked_now.(rs t v)))
          false
      in
      if secondary t b then not (has_marked_nbr ())
      else if t.parents.(b) < 0 && t.ranks.(b) = 0 then
        t.offer_red.(bs t b) >= 0 || not (has_marked_nbr ())
      else true)
    t.blues

let part_reds t k =
  let keep s =
    match k with
    | 1 -> t.active.(s) && t.loner_parent.(s)
    | 2 -> t.active.(s) && t.brisk.(s)
    | 3 -> t.active.(s) && (not t.loner_parent.(s)) && not t.brisk.(s)
    | _ -> assert false
  in
  Array.to_list t.reds |> List.filteri (fun s _ -> keep s)

let part_blues t =
  unassigned_primaries t |> List.filter (fun b -> not t.temp_taken.(bs t b))

let mark_ranked t v =
  t.ranked_now.(rs t v) <- true;
  t.any_ranked <- true

let harvest_part t k (recr : Recruiting.t) =
  let bl = part_blues t in
  (* Blues first: permanence decisions from (class-consistent) beliefs. *)
  List.iter
    (fun b ->
      match Recruiting.parent_of recr b with
      | None -> ()
      | Some v ->
          let truth =
            match Recruiting.red_class recr v with
            | Recruiting.Many -> true
            | Recruiting.One _ -> false
            | Recruiting.Zero -> assert false
          in
          (match Recruiting.blue_sees_many recr b with
          | Some belief when belief <> truth -> t.fixups <- t.fixups + 1
          | Some _ | None -> ());
          let many = truth in
          if k = 1 then begin
            (* Part 1 recruits are permanent regardless of class. *)
            t.parents.(b) <- v;
            t.parent_rank.(b) <- (if many then t.rank + 1 else t.rank)
          end
          else if many then begin
            t.parents.(b) <- v;
            t.parent_rank.(b) <- t.rank + 1
          end
          else t.temp_taken.(bs t b) <- true)
    bl;
  (* Reds: marking and ranking. *)
  List.iter
    (fun v ->
      match Recruiting.red_class recr v with
      | Recruiting.Zero -> if k >= 2 then t.excluded.(rs t v) <- true
      | Recruiting.One _ ->
          if k = 1 then begin
            t.ranks.(v) <- t.rank;
            t.excluded.(rs t v) <- true;
            mark_ranked t v
          end
          (* Parts 2/3 single recruits stay active with a temporary child. *)
      | Recruiting.Many ->
          t.ranks.(v) <- t.rank + 1;
          t.excluded.(rs t v) <- true;
          mark_ranked t v)
    (part_reds t k)

let rec next_rank t =
  t.rank <- t.rank - 1;
  if t.rank < 1 then enter t Done
  else if not (t.ready ~rank:t.rank) then enter t Waiting
  else start_rank t

and start_rank t =
  reset_rank_state t;
  apply_offers t;
  if exists_unassigned_primary t then enter t Identify else next_rank t

let begin_epoch t =
  t.epoch <- t.epoch + 1;
  if t.epoch > 4 * Params.max_epochs t.params ~n:t.scale_n then
    failwith "Bipartite_assignment: epoch budget blown (protocol stalled)";
  reset_epoch_state t;
  (* Only red slots are ever active. *)
  let count =
    Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.active
  in
  t.epoch_hist <- (t.rank, count) :: t.epoch_hist;
  enter t Loner_probe

let enter_part t k =
  let rl = part_reds t k and bl = part_blues t in
  match (rl, bl) with
  | [], _ -> None
  | _ :: _, [] ->
      begin
    (* The part would run with nothing to recruit: every red of the part
       recruits zero, so (Stage III) it is marked and leaves the rank
       phase.  Skipping without marking would let a red hold a temporary
       child epoch after epoch and stall the shrinkage of Lemma 2.4. *)
    if k >= 2 then List.iter (fun v -> t.excluded.(rs t v) <- true) rl;
    None
  end
  | _ :: _, _ :: _ ->
      Some
        (Recruiting.create ~rng:(Rng.split t.rng) ~params:t.params
           ~scale_n:t.scale_n ~graph:t.graph ~reds:(Array.of_list rl)
           ~blues:(Array.of_list bl) ())

let end_epoch t =
  (* Temporaries dissolve; marked reds leave the rank phase. *)
  clear t.temp_taken;
  for s = 0 to t.nr - 1 do
    if t.excluded.(s) then t.active.(s) <- false
  done;
  if exists_unassigned_primary t then begin
    (* Last-resort net for a w.h.p. failure: a primary whose upper
       neighbors are all permanently ranked can still attach to one of
       strictly higher rank without disturbing any announced rank (the
       Stage III rule applied late).  An all-equal-rank neighborhood
       cannot be repaired locally; surface it. *)
    List.iter
      (fun b ->
        let has_unranked =
          Graph.fold_neighbors t.graph b
            (fun acc v -> acc || (is_red t v && t.ranks.(v) = 0))
            false
        in
        if not has_unranked then begin
          let higher =
            Graph.fold_neighbors t.graph b
              (fun acc v ->
                if is_red t v && t.ranks.(v) > t.ranks.(b) then v :: acc
                else acc)
              []
          in
          match higher with
          | v :: _ ->
              t.parents.(b) <- v;
              t.parent_rank.(b) <- t.ranks.(v)
          | [] ->
              failwith
                "Bipartite_assignment: stranded blue with only equal-rank \
                 ranked neighbors (w.h.p. failure; raise Params budgets)"
        end)
      (unassigned_primaries t);
    let stranded =
      List.exists
        (fun b ->
          not
            (Graph.fold_neighbors t.graph b
               (fun acc v -> acc || (is_red t v && t.active.(rs t v)))
               false))
        (unassigned_primaries t)
    in
    if stranded then begin
      (* Robustness fallback: let unranked marked reds rejoin and
         re-identify the active set. *)
      t.fallbacks <- t.fallbacks + 1;
      Array.iteri
        (fun s v -> if t.ranks.(v) = 0 then t.excluded.(s) <- false)
        t.reds;
      clear t.active;
      enter t Identify
    end
    else begin_epoch t
  end
  else next_rank t

let decay_stage_over t goal =
  Params.stage_over t.params ~round:t.stage_round ~budget:t.decay_budget
    ~period:t.ladder goal t

(* Move through zero-round transitions until a stage that consumes rounds. *)
let rec settle t =
  match t.stage with
  | Done -> ()
  | Waiting ->
      if t.ready ~rank:t.rank then begin
        start_rank t;
        settle t
      end
  | Identify ->
      (* The goal holds vacuously at round 0 when no primary has an
         unranked red neighbour (a blue Stage III missed), so Identify ends
         early no sooner than the first phase boundary.  Loner_inform needs
         no guard: under oracle exits it is entered only when a loner
         exists ([no_loners]), and the red it heard is active and not yet
         a loner-parent, so its goal is false at round 0. *)
      if decay_stage_over t (fun t -> t.stage_round > 0 && identify_goal t)
      then begin
        begin_epoch t;
        settle t
      end
  | Loner_probe -> () (* consumes exactly one round; advanced explicitly *)
  | Loner_inform ->
      if decay_stage_over t loner_inform_goal then begin
        (match enter_part t 1 with
        | Some r -> enter t (Part (1, r))
        | None -> enter_next_part t 1);
        settle t
      end
  | Part (k, recr) ->
      if Recruiting.finished recr then begin
        harvest_part t k recr;
        enter_next_part t k;
        settle t
      end
  | Stage3 ->
      if decay_stage_over t stage3_goal then begin
        end_epoch t;
        settle t
      end

and enter_next_part t k =
  if k >= 3 then begin
    (* Brisk/lazy coins are per-epoch; after part 3 comes Stage III (skip
       straight to the epoch end when nobody was ranked and no secondary
       can attach). *)
    if t.any_ranked then enter t Stage3 else end_epoch t
  end
  else begin
    if k = 1 then
      (* Flip the brisk/lazy coins now that loner-parents are known. *)
      for s = 0 to t.nr - 1 do
        if t.active.(s) && not t.loner_parent.(s) then
          t.brisk.(s) <- Rng.bool t.node_rng.(s)
      done;
    match enter_part t (k + 1) with
    | Some r -> enter t (Part (k + 1, r))
    | None -> enter_next_part t (k + 1)
  end

(* ------------------------------------------------------------------ *)
(* Scheduler interface *)

let coin t s =
  Rng.coin_pow2 t.node_rng.(s) (Decay.exponent ~ladder:t.ladder t.stage_round)

(* Outside the recruiting parts, the red [v] in slot [s] and the blue
   [b] in slot [s]. *)
let decide_red t s v =
  match t.stage with
  | Identify ->
      if t.ranks.(v) = 0 && (not t.excluded.(s)) && not t.active.(s) then
        Engine.Listen
      else Engine.Sleep
  | Loner_probe -> if t.active.(s) then Engine.Transmit Cmsg.Beacon else Engine.Sleep
  | Loner_inform -> if t.active.(s) then Engine.Listen else Engine.Sleep
  | Stage3 ->
      if t.ranked_now.(s) then begin
        if coin t s then
          Engine.Transmit (Cmsg.Marked { red = v; rank = t.ranks.(v) })
        else Engine.Listen
      end
      else Engine.Sleep
  | Done | Waiting | Part _ -> Engine.Sleep

let decide_blue t s b =
  match t.stage with
  | Identify ->
      if primary t b then
        if coin t s then Engine.Transmit Cmsg.Blue_here else Engine.Listen
      else Engine.Sleep
  | Loner_probe -> if primary t b then Engine.Listen else Engine.Sleep
  | Loner_inform ->
      if primary t b && t.loner.(s) then
        if coin t s then Engine.Transmit Cmsg.Loner_here else Engine.Listen
      else Engine.Sleep
  | Stage3 ->
      if secondary t b || (t.parents.(b) < 0 && t.ranks.(b) = 0) then
        Engine.Listen
      else Engine.Sleep
  | Done | Waiting | Part _ -> Engine.Sleep

let decide t ~node =
  match t.stage with
  | Done | Waiting -> Engine.Sleep
  | Part (_, recr) -> Recruiting.decide recr ~node
  | Identify | Loner_probe | Loner_inform | Stage3 ->
      let s = slot t node in
      if s < 0 then Engine.Sleep
      else if s < t.nr then decide_red t s node
      else decide_blue t s node

(* Whether [decide] is not [Sleep] for the member [v] in slot [s],
   outside the recruiting parts. *)
let wakes t s v =
  if s < t.nr then
    match t.stage with
    | Identify -> t.ranks.(v) = 0 && (not t.excluded.(s)) && not t.active.(s)
    | Loner_probe | Loner_inform -> t.active.(s)
    | Stage3 -> t.ranked_now.(s)
    | Done | Waiting | Part _ -> false
  else
    match t.stage with
    | Identify | Loner_probe -> primary t v
    | Loner_inform -> primary t v && t.loner.(s)
    | Stage3 -> secondary t v || (t.parents.(v) < 0 && t.ranks.(v) = 0)
    | Done | Waiting | Part _ -> false

(* [nodes.(i)] is in slot [first + i]. *)
let rec awake_scan t nodes first i buf k =
  if i >= Array.length nodes then k
  else begin
    let v = nodes.(i) in
    if wakes t (first + i) v then begin
      buf.(k) <- v;
      awake_scan t nodes first (i + 1) buf (k + 1)
    end
    else awake_scan t nodes first (i + 1) buf k
  end
[@@zero_alloc_hot]

let awake t buf k =
  match t.stage with
  | Done | Waiting -> k
  | Part (_, recr) -> Recruiting.awake recr buf k
  | Identify | Loner_probe | Loner_inform | Stage3 ->
      awake_scan t t.blues t.nr 0 buf (awake_scan t t.reds 0 0 buf k)
[@@zero_alloc_hot]

let deliver t ~node reception =
  match t.stage with
  | Identify -> (
      match reception with
      | Engine.Received Cmsg.Blue_here ->
          let s = slot t node in
          if s >= 0 && s < t.nr && t.ranks.(node) = 0 && not t.excluded.(s)
          then t.active.(s) <- true
      | _ -> ())
  | Loner_probe -> (
      match reception with
      | Engine.Received Cmsg.Beacon ->
          let s = slot t node in
          if s >= t.nr && primary t node then t.loner.(s) <- true
      | _ -> ())
  | Loner_inform -> (
      match reception with
      | Engine.Received Cmsg.Loner_here ->
          let s = slot t node in
          if s >= 0 && s < t.nr && t.active.(s) then t.loner_parent.(s) <- true
      | _ -> ())
  | Part (_, recr) -> Recruiting.deliver recr ~node reception
  | Stage3 -> (
      match reception with
      | Engine.Received (Cmsg.Marked { red; rank }) ->
          let s = slot t node in
          if s >= t.nr then
            if secondary t node then begin
              t.parents.(node) <- red;
              t.parent_rank.(node) <- rank
            end
            else if
              t.parents.(node) < 0 && t.ranks.(node) = 0 && t.offer_red.(s) < 0
            then begin
              t.offer_red.(s) <- red;
              t.offer_rank.(s) <- rank
            end
      | _ -> ())
  | Done | Waiting -> ()

let advance t =
  t.rounds <- t.rounds + 1;
  (match t.stage with
  | Part (_, recr) -> Recruiting.advance recr
  | Loner_probe ->
      (* One-shot stage: move on unconditionally. *)
      t.stage_round <- t.stage_round + 1;
      if Params.skip_stage t.params no_loners t then begin
        (* No loners: skip the inform stage. *)
        match enter_part t 1 with
        | Some r -> enter t (Part (1, r))
        | None -> enter_next_part t 1
      end
      else enter t Loner_inform
  | Identify | Loner_inform | Stage3 -> t.stage_round <- t.stage_round + 1
  | Waiting | Done -> ());
  settle t

let finished t = match t.stage with Done -> true | _ -> false

let current_rank t = if finished t then 0 else t.rank

let waiting t = match t.stage with Waiting -> true | _ -> false

let class_fixups t = t.fixups

let fallback_reactivations t = t.fallbacks

(* ------------------------------------------------------------------ *)
(* Standalone *)

type outcome = {
  rounds : int;
  parents : int array;
  ranks : int array;
  parent_rank : int array;
  epoch_history : (int * int) list;
}

let run_standalone ~rng ~params ~graph ~reds ~blues ~blue_ranks () =
  let n = Graph.n graph in
  let parents = Array.make n (-1) in
  let ranks = Array.make n 0 in
  let parent_rank = Array.make n (-1) in
  Array.iter (fun b -> ranks.(b) <- blue_ranks.(b)) blues;
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) reds;
  Array.iteri (fun i v -> pos.(v) <- i) blues;
  let t =
    create ~rng ~params ~scale_n:n ~graph ~reds ~blues ~pos ~parents ~ranks
      ~parent_rank
      ~ready:(fun ~rank:_ -> true)
      ()
  in
  settle t;
  (* rblint:allow R14 internal Lemma-7 driver: exercised by the assignment phase of registered GST pipelines and directly by its unit tests, not a user-facing protocol. *)
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node -> decide t ~node);
      deliver = (fun ~round:_ ~node r -> deliver t ~node r);
    }
  in
  (* [Ilog.pow] now overflow-checked: [clog n ≤ 63] keeps [63^5 < 2^30]
     comfortably in range, and a bad exponent raises instead of silently
     wrapping into a negative round budget. *)
  let max_rounds =
    params.Params.max_round_factor * Ilog.pow (Params.phase_len ~n) 5
  in
  (* Only reds and blues ever act (decide falls through both tables to
     Sleep); the awake set is static. *)
  let decide_active = Drive.static_active ~n [ reds; blues ] in
  let stop ~round:_ = finished t in
  ignore
    (Drive.run ?decide_active ~graph
       ~detection:Engine.No_collision_detection ~protocol
       ~after_round:(fun ~round:_ -> advance t)
       ~stop ~max_rounds ());
  {
    rounds = t.rounds;
    parents;
    ranks;
    parent_rank;
    epoch_history = List.rev t.epoch_hist;
  }
