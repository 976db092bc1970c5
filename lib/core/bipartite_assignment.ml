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

type t = {
  rng : Rng.t;
  params : Params.t;
  scale_n : int;
  graph : Graph.t;
  reds : int array;
  blues : int array;
  is_red : bool array;
  is_blue : bool array;
  parents : int array;
  ranks : int array;
  parent_rank : int array;
  ready : rank:int -> bool;
  ladder : int;
  decay_budget : int;
  node_rng : Rng.t option array;
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
  mutable late_attaches : int;
}

let decay_exponent t r = (r mod t.ladder) + 1

let node_rng t v =
  match t.node_rng.(v) with
  | Some r -> r
  | None -> invalid_arg "Bipartite_assignment: foreign node"

let is_primary t b =
  t.is_blue.(b) && t.parents.(b) < 0 && t.ranks.(b) = t.rank

let is_secondary t b =
  t.is_blue.(b) && t.parents.(b) < 0 && t.ranks.(b) < t.rank && t.ranks.(b) >= 1

let red_eligible t v = t.is_red.(v) && t.ranks.(v) = 0 && not t.excluded.(v)

(* A blue that heard a Stage III announcement before knowing its own rank
   buffered the offer; attach as soon as the rank is known (pipelined mode
   learns blue ranks while shallower phases are already running). *)
let apply_offers t =
  Array.iter
    (fun b ->
      if
        t.parents.(b) < 0
        && t.offer_red.(b) >= 0
        && t.ranks.(b) >= 1
        && t.ranks.(b) < t.offer_rank.(b)
      then begin
        t.parents.(b) <- t.offer_red.(b);
        t.parent_rank.(b) <- t.offer_rank.(b)
      end)
    t.blues

let unassigned_primaries t =
  Array.to_list t.blues |> List.filter (fun b -> is_primary t b)

let exists_unassigned_primary t = Array.exists (fun b -> is_primary t b) t.blues

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~rng ~params ~scale_n ~graph ~reds ~blues ~parents ~ranks
    ~parent_rank ~ready () =
  let n = Graph.n graph in
  let mk_flag () = Array.make n false in
  let is_red = mk_flag () and is_blue = mk_flag () in
  Array.iter (fun v -> is_red.(v) <- true) reds;
  Array.iter (fun v -> is_blue.(v) <- true) blues;
  let node_rng = Array.make n None in
  Array.iter (fun v -> node_rng.(v) <- Some (Rng.split rng)) reds;
  Array.iter (fun v -> node_rng.(v) <- Some (Rng.split rng)) blues;
  let ladder = Params.phase_len ~n:scale_n in
  {
    rng;
    params;
    scale_n;
    graph;
    reds;
    blues;
    is_red;
    is_blue;
    parents;
    ranks;
    parent_rank;
    ready;
    ladder;
    decay_budget = Params.whp_phases params ~n:scale_n * ladder;
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
    offer_red = Array.make n (-1);
    offer_rank = Array.make n (-1);
    ranked_now = mk_flag ();
    any_ranked = false;
    epoch = 0;
    epoch_hist = [];
    fixups = 0;
    fallbacks = 0;
    late_attaches = 0;
  }

(* ------------------------------------------------------------------ *)
(* Stage transitions (run inside [advance]) *)

let clear t a =
  Array.iter (fun v -> a.(v) <- false) t.reds;
  Array.iter (fun v -> a.(v) <- false) t.blues

let reset_rank_state t =
  clear t t.active;
  clear t t.excluded;
  t.epoch <- 0

let reset_epoch_state t =
  clear t t.loner;
  clear t t.loner_parent;
  clear t t.brisk;
  clear t t.temp_taken;
  clear t t.ranked_now;
  t.any_ranked <- false

let enter t stage =
  t.stage <- stage;
  t.stage_round <- 0

let identify_goal t =
  (* Every eligible red adjacent to an unassigned primary has activated. *)
  Array.for_all
    (fun v ->
      (not (red_eligible t v))
      || t.active.(v)
      || not (Graph.fold_neighbors t.graph v (fun acc b -> acc || is_primary t b) false))
    t.reds

let loner_inform_goal t =
  Array.for_all
    (fun v ->
      (not (t.active.(v) && not t.loner_parent.(v)))
      || not
           (Graph.fold_neighbors t.graph v
              (fun acc b -> acc || (t.loner.(b) && is_primary t b))
              false))
    t.reds

let stage3_goal t =
  Array.for_all
    (fun b ->
      let has_marked_nbr () =
        Graph.fold_neighbors t.graph b (fun acc v -> acc || t.ranked_now.(v)) false
      in
      if is_secondary t b then not (has_marked_nbr ())
      else if t.is_blue.(b) && t.parents.(b) < 0 && t.ranks.(b) = 0 then
        t.offer_red.(b) >= 0 || not (has_marked_nbr ())
      else true)
    t.blues

let part_reds t = function
  | 1 -> Array.to_list t.reds |> List.filter (fun v -> t.active.(v) && t.loner_parent.(v))
  | 2 -> Array.to_list t.reds |> List.filter (fun v -> t.active.(v) && t.brisk.(v))
  | 3 ->
      Array.to_list t.reds
      |> List.filter (fun v ->
             t.active.(v) && (not t.loner_parent.(v)) && not t.brisk.(v))
  | _ -> assert false

let part_blues t =
  unassigned_primaries t |> List.filter (fun b -> not t.temp_taken.(b))

let mark_ranked t v =
  t.ranked_now.(v) <- true;
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
          else t.temp_taken.(b) <- true)
    bl;
  (* Reds: marking and ranking. *)
  List.iter
    (fun v ->
      match Recruiting.red_class recr v with
      | Recruiting.Zero -> if k >= 2 then t.excluded.(v) <- true
      | Recruiting.One _ ->
          if k = 1 then begin
            t.ranks.(v) <- t.rank;
            t.excluded.(v) <- true;
            mark_ranked t v
          end
          (* Parts 2/3 single recruits stay active with a temporary child. *)
      | Recruiting.Many ->
          t.ranks.(v) <- t.rank + 1;
          t.excluded.(v) <- true;
          mark_ranked t v)
    (part_reds t k)

let rec next_rank t =
  t.rank <- t.rank - 1;
  if t.rank < 1 then enter t Done
  else if not (t.ready ~rank:t.rank) then enter t Waiting
  else begin
    reset_rank_state t;
    apply_offers t;
    if exists_unassigned_primary t then enter t Identify else next_rank t
  end

let begin_epoch t =
  t.epoch <- t.epoch + 1;
  if t.epoch > 4 * Params.max_epochs t.params ~n:t.scale_n then
    failwith "Bipartite_assignment: epoch budget blown (protocol stalled)";
  reset_epoch_state t;
  let count =
    Array.fold_left (fun acc v -> if t.active.(v) then acc + 1 else acc) 0 t.reds
  in
  t.epoch_hist <- (t.rank, count) :: t.epoch_hist;
  enter t Loner_probe

let start_rank_or_finish t =
  (* Called when the current rank has no unassigned primaries left. *)
  next_rank t

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
    if k >= 2 then List.iter (fun v -> t.excluded.(v) <- true) rl;
    None
  end
  | _ :: _, _ :: _ ->
      Some
        (Recruiting.create ~rng:(Rng.split t.rng) ~params:t.params
           ~scale_n:t.scale_n ~graph:t.graph ~reds:(Array.of_list rl)
           ~blues:(Array.of_list bl) ())

let end_epoch t =
  (* Temporaries dissolve; marked reds leave the rank phase. *)
  clear t t.temp_taken;
  Array.iter (fun v -> if t.excluded.(v) then t.active.(v) <- false) t.reds;
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
            (fun acc v -> acc || (t.is_red.(v) && t.ranks.(v) = 0))
            false
        in
        if not has_unranked then begin
          let higher =
            Graph.fold_neighbors t.graph b
              (fun acc v ->
                if t.is_red.(v) && t.ranks.(v) > t.ranks.(b) then v :: acc
                else acc)
              []
          in
          match higher with
          | v :: _ ->
              t.parents.(b) <- v;
              t.parent_rank.(b) <- t.ranks.(v);
              t.late_attaches <- t.late_attaches + 1
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
               (fun acc v -> acc || (t.is_red.(v) && t.active.(v)))
               false))
        (unassigned_primaries t)
    in
    if stranded then begin
      (* Robustness fallback: let unranked marked reds rejoin and
         re-identify the active set. *)
      t.fallbacks <- t.fallbacks + 1;
      Array.iter (fun v -> if t.ranks.(v) = 0 then t.excluded.(v) <- false) t.reds;
      clear t t.active;
      enter t Identify
    end
    else begin_epoch t
  end
  else start_rank_or_finish t

(* Move through zero-round transitions until a stage that consumes rounds. *)
let rec settle t =
  match t.stage with
  | Done -> ()
  | Waiting ->
      if t.ready ~rank:t.rank then begin
        reset_rank_state t;
        apply_offers t;
        if exists_unassigned_primary t then begin
          enter t Identify;
          settle t
        end
        else begin
          next_rank t;
          settle t
        end
      end
  | Identify ->
      if
        t.stage_round >= t.decay_budget
        || (t.params.Params.adaptive && t.stage_round mod t.ladder = 0
           && t.stage_round > 0 && identify_goal t)
      then begin
        begin_epoch t;
        settle t
      end
  | Loner_probe -> () (* consumes exactly one round; advanced explicitly *)
  | Loner_inform ->
      if
        t.stage_round >= t.decay_budget
        || (t.params.Params.adaptive && t.stage_round mod t.ladder = 0
           && t.stage_round > 0 && loner_inform_goal t)
      then begin
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
      if
        t.stage_round >= t.decay_budget
        || (t.params.Params.adaptive && t.stage_round mod t.ladder = 0
           && stage3_goal t)
      then begin
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
      Array.iter
        (fun v ->
          if t.active.(v) && not t.loner_parent.(v) then
            t.brisk.(v) <- Rng.bool (node_rng t v))
        t.reds;
    match enter_part t (k + 1) with
    | Some r -> enter t (Part (k + 1, r))
    | None -> enter_next_part t (k + 1)
  end

(* ------------------------------------------------------------------ *)
(* Scheduler interface *)

let decide t ~node =
  match t.stage with
  | Done | Waiting -> Engine.Sleep
  | Identify ->
      if is_primary t node then begin
        if Rng.coin_pow2 (node_rng t node) (decay_exponent t t.stage_round) then
          Engine.Transmit Cmsg.Blue_here
        else Engine.Listen
      end
      else if red_eligible t node && not t.active.(node) then Engine.Listen
      else Engine.Sleep
  | Loner_probe ->
      if t.is_red.(node) && t.active.(node) then Engine.Transmit Cmsg.Beacon
      else if is_primary t node then Engine.Listen
      else Engine.Sleep
  | Loner_inform ->
      if is_primary t node && t.loner.(node) then begin
        if Rng.coin_pow2 (node_rng t node) (decay_exponent t t.stage_round) then
          Engine.Transmit Cmsg.Loner_here
        else Engine.Listen
      end
      else if t.is_red.(node) && t.active.(node) then Engine.Listen
      else Engine.Sleep
  | Part (_, recr) -> Recruiting.decide recr ~node
  | Stage3 ->
      if t.ranked_now.(node) then begin
        if Rng.coin_pow2 (node_rng t node) (decay_exponent t t.stage_round) then
          Engine.Transmit (Cmsg.Marked { red = node; rank = t.ranks.(node) })
        else Engine.Listen
      end
      else if
        is_secondary t node
        || (t.is_blue.(node) && t.parents.(node) < 0 && t.ranks.(node) = 0)
      then Engine.Listen
      else Engine.Sleep

(* Whether [decide t ~node:v] is not [Sleep], outside the recruiting parts. *)
let wakes t v =
  match t.stage with
  | Identify -> is_primary t v || (red_eligible t v && not t.active.(v))
  | Loner_probe -> (t.is_red.(v) && t.active.(v)) || is_primary t v
  | Loner_inform ->
      (is_primary t v && t.loner.(v)) || (t.is_red.(v) && t.active.(v))
  | Stage3 ->
      t.ranked_now.(v) || is_secondary t v
      || (t.is_blue.(v) && t.parents.(v) < 0 && t.ranks.(v) = 0)
  | Done | Waiting | Part _ -> false

let rec awake_scan t nodes i buf k =
  if i >= Array.length nodes then k
  else begin
    let v = nodes.(i) in
    if wakes t v then begin
      buf.(k) <- v;
      awake_scan t nodes (i + 1) buf (k + 1)
    end
    else awake_scan t nodes (i + 1) buf k
  end
[@@zero_alloc_hot]

let awake t buf k =
  match t.stage with
  | Done | Waiting -> k
  | Part (_, recr) -> Recruiting.awake recr buf k
  | Identify | Loner_probe | Loner_inform | Stage3 ->
      awake_scan t t.blues 0 buf (awake_scan t t.reds 0 buf k)
[@@zero_alloc_hot]

let deliver t ~node reception =
  match t.stage with
  | Identify -> (
      match reception with
      | Engine.Received Cmsg.Blue_here ->
          if red_eligible t node then t.active.(node) <- true
      | _ -> ())
  | Loner_probe -> (
      match reception with
      | Engine.Received Cmsg.Beacon ->
          if is_primary t node then t.loner.(node) <- true
      | _ -> ())
  | Loner_inform -> (
      match reception with
      | Engine.Received Cmsg.Loner_here ->
          if t.is_red.(node) && t.active.(node) then t.loner_parent.(node) <- true
      | _ -> ())
  | Part (_, recr) -> Recruiting.deliver recr ~node reception
  | Stage3 -> (
      match reception with
      | Engine.Received (Cmsg.Marked { red; rank }) ->
          if is_secondary t node then begin
            t.parents.(node) <- red;
            t.parent_rank.(node) <- rank
          end
          else if
            t.is_blue.(node) && t.parents.(node) < 0 && t.ranks.(node) = 0
            && t.offer_red.(node) < 0
          then begin
            t.offer_red.(node) <- red;
            t.offer_rank.(node) <- rank
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
      if
        t.params.Params.adaptive
        && not (Array.exists (fun b -> is_primary t b && t.loner.(b)) t.blues)
      then begin
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

let rounds_used t = t.rounds

let epoch_active_history t = List.rev t.epoch_hist

let class_fixups t = t.fixups

let fallback_reactivations t = t.fallbacks

let late_attaches t = t.late_attaches

(* ------------------------------------------------------------------ *)
(* Standalone *)

type outcome = {
  rounds : int;
  parents : int array;
  ranks : int array;
  parent_rank : int array;
  epoch_history : (int * int) list;
}

let run_standalone ?(detection = Engine.No_collision_detection) ?engine
    ?metrics ~rng ~params ~graph ~reds ~blues ~blue_ranks () =
  let n = Graph.n graph in
  let parents = Array.make n (-1) in
  let ranks = Array.make n 0 in
  let parent_rank = Array.make n (-1) in
  Array.iter (fun b -> ranks.(b) <- blue_ranks.(b)) blues;
  let t =
    create ~rng ~params ~scale_n:n ~graph ~reds ~blues ~parents ~ranks
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
    params.Params.max_round_factor
    * Ilog.pow (Ilog.clog (max 2 n)) 5
  in
  (* Phase = bipartite epoch (Lemma 2.4's shrinkage unit), read off the
     machine's own counter right after [advance] — coordinator-serial. *)
  let after_round =
    match metrics with
    | None -> fun ~round:_ -> advance t
    | Some m ->
        Rn_obs.Phase.enter m 0;
        fun ~round:_ ->
          advance t;
          Rn_obs.Phase.enter m t.epoch
  in
  (* Only reds and blues ever act (decide falls through both tables to
     Sleep); the awake set is static.  No hint: Waiting never occurs under
     the standalone [ready], and every live stage keeps nodes awake. *)
  let decide_active = Drive.static_active ~n [ reds; blues ] in
  let stop ~round:_ = finished t in
  (* Recruiting's deliver writes across nodes: never sharded. *)
  ignore
    (Drive.run
       ?engine:(Option.map Drive.serial engine)
       ?metrics ?decide_active ~graph ~detection ~protocol ~after_round ~stop
       ~max_rounds ());
  {
    rounds = rounds_used t;
    parents;
    ranks;
    parent_rank;
    epoch_history = epoch_active_history t;
  }
