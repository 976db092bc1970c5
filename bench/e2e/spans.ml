(* Spans of the traced run: one per call the benchmark makes into a layer,
   kept in memory and written out when the run ends.  Spans are recorded
   from the benchmark's side of each call; nothing inside the simulator is
   instrumented. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start : float;
  stop : float;
}

type t = {
  workload : string;
  clock : unit -> float;
  origin : float;
  mutable open_ : int list;  (** ids of the enclosing spans, innermost first *)
  mutable next : int;
  mutable closed : span list;
}

let create ~workload ~clock =
  { workload; clock; origin = clock (); open_ = []; next = 0; closed = [] }

(* [record t name f] runs [f] inside a span; with no recorder it is [f ()]. *)
let record t name f =
  match t with
  | None -> f ()
  | Some t ->
      let id = t.next in
      t.next <- id + 1;
      let parent = match t.open_ with p :: _ -> p | [] -> -1 in
      t.open_ <- id :: t.open_;
      let start = t.clock () in
      Fun.protect f ~finally:(fun () ->
          let stop = t.clock () in
          t.open_ <- (match t.open_ with _ :: rest -> rest | [] -> []);
          t.closed <- { id; parent; name; start; stop } :: t.closed)

let spans t = List.rev t.closed

(* Per span name, largest self time first: (name, calls, total_s, self_s).
   A span's self time is its duration minus that of its direct children. *)
let self_times t =
  let spans = spans t in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)
          +. (s.stop -. s.start)))
    spans;
  let rows = ref [] in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self =
        dur -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      rows :=
        match List.assoc_opt s.name !rows with
        | Some (calls, total, self0) ->
            (s.name, (calls + 1, total +. dur, self0 +. self))
            :: List.remove_assoc s.name !rows
        | None -> (s.name, (1, dur, self)) :: !rows)
    (List.sort (fun a b -> Int.compare a.id b.id) spans);
  List.sort
    (fun (_, (_, _, a)) (_, (_, _, b)) -> Float.compare b a)
    !rows
  |> List.map (fun (name, (calls, total, self)) -> (name, calls, total, self))

let jsonl t =
  let open Rn_util.Jsons in
  List.map
    (fun s ->
      obj
        [
          ("workload", quote t.workload);
          ("id", string_of_int s.id);
          ("parent", string_of_int s.parent);
          ("name", quote s.name);
          ("start", float_lit (s.start -. t.origin));
          ("end", float_lit (s.stop -. t.origin));
        ])
    (spans t)
