type status = Running | Exited of int | Signaled of int

type io = {
  spawn : slot:int -> attempt:int -> cells:int array -> unit;
  status : slot:int -> status;
  kill : slot:int -> unit;
  journal_lines : slot:int -> string list;
  clock : unit -> float;
  sleep : float -> unit;
}

type config = {
  workers : int;
  retries : int;
  heartbeat_timeout : float;
  backoff_base : float;
  poll_interval : float;
}

type event =
  | Spawn of { slot : int; attempt : int; cells : int }
  | Progress of { slot : int; completed : int; total : int }
  | Stall of { slot : int; idle : float }
  | Kill of { slot : int }
  | Crash of { slot : int; attempt : int; reason : string }
  | Backoff of { slot : int; attempt : int; delay : float }
  | Retire of { slot : int }
  | Death of { slot : int; orphans : int }
  | Reassign of { slot : int; cells : int }

type sup_stats = {
  spawns : int;
  kills : int;
  crashes : int;
  reassigned : int;
}

type merge_stats = {
  shards : int;
  lines_in : int;
  torn : int;
  stale : int;
  duplicates : int;
  conflicts : int;
  missing : int list;
}

type stats = { cells : int; sup : sup_stats; merge : merge_stats }

let plan ~workers ~pending =
  let n = Array.length pending in
  let q = n / workers and r = n mod workers in
  let off = ref 0 in
  Array.init workers (fun s ->
      let len = q + if s < r then 1 else 0 in
      let part = Array.sub pending !off len in
      off := !off + len;
      part)

let cells_to_string cells =
  let b = Buffer.create 64 in
  let n = Array.length cells in
  let i = ref 0 in
  while !i < n do
    let lo = cells.(!i) in
    let j = ref !i in
    while !j + 1 < n && cells.(!j + 1) = cells.(!j) + 1 do
      incr j
    done;
    if Buffer.length b > 0 then Buffer.add_char b ',';
    if !j = !i then Buffer.add_string b (string_of_int lo)
    else Buffer.add_string b (Printf.sprintf "%d-%d" lo cells.(!j));
    i := !j + 1
  done;
  Buffer.contents b

let cells_of_string s =
  let bad () = invalid_arg (Printf.sprintf "Dist.cells_of_string: %S" s) in
  let int_of tok =
    match int_of_string_opt tok with
    | Some v when v >= 0 -> v
    | _ -> bad ()
  in
  if String.equal (String.trim s) "" then [||]
  else
    let out =
      String.split_on_char ',' s
      |> List.concat_map (fun tok ->
             match String.index_opt tok '-' with
             | None -> [ int_of tok ]
             | Some cut ->
                 let lo = int_of (String.sub tok 0 cut) in
                 let hi =
                   int_of
                     (String.sub tok (cut + 1) (String.length tok - cut - 1))
                 in
                 if hi < lo then bad ();
                 List.init (hi - lo + 1) (fun k -> lo + k))
    in
    let a = Array.of_list out in
    Array.sort Int.compare a;
    a

(* ----------------------------------------------------------------- *)
(* Supervisor                                                         *)
(* ----------------------------------------------------------------- *)

(* Per-slot life cycle.  [Wait] covers both the initial pre-spawn state
   (until = neg_infinity) and post-crash backoff; [cells] is always the
   slot's still-pending assignment at the time it entered the state. *)
type slot_state =
  | Wait of { attempt : int; until : float; cells : int array }
  | Live of { attempt : int; mutable last : float; cells : int array }
  | Retired
  | Dead

type slot = {
  id : int;
  mutable st : slot_state;
  mutable attempts : int;  (* spawns so far *)
  mutable seen : int;  (* valid journal lines observed in this shard *)
}

let supervise ?(on_event = fun _ -> ()) ~config ~io spec =
  if config.workers < 1 then invalid_arg "Dist.supervise: workers < 1";
  if config.retries < 0 then invalid_arg "Dist.supervise: retries < 0";
  let cells = Spec.cells spec in
  let n = Array.length cells in
  let done_ = Array.make n false in
  let ndone = ref 0 in
  let mark line =
    match Journal.classify cells line with
    | Journal.Cell { idx; rounds = _ } ->
        if not done_.(idx) then begin
          done_.(idx) <- true;
          incr ndone
        end;
        true
    | Journal.Torn | Journal.Stale -> false
  in
  let spawns = ref 0
  and kills = ref 0
  and crashes = ref 0
  and reassigned = ref 0 in
  let stats () =
    {
      spawns = !spawns;
      kills = !kills;
      crashes = !crashes;
      reassigned = !reassigned;
    }
  in
  let slots =
    Array.init config.workers (fun id ->
        { id; st = Retired; attempts = 0; seen = 0 })
  in
  (* Resume: whatever the shard journals already hold counts as done —
     a re-run after a failed campaign picks up where it stopped. *)
  Array.iter
    (fun s ->
      List.iter
        (fun l -> if mark l then s.seen <- s.seen + 1)
        (io.journal_lines ~slot:s.id))
    slots;
  let pending =
    Array.of_list
      (List.filter
         (fun i -> not done_.(i))
         (List.init n (fun i -> i)))
  in
  Array.iteri
    (fun i part ->
      if Array.length part > 0 then
        slots.(i).st <- Wait { attempt = 0; until = neg_infinity; cells = part })
    (plan ~workers:config.workers ~pending);
  let remaining cs = Array.of_seq (Seq.filter (fun i -> not done_.(i)) (Array.to_seq cs)) in
  let orphans = ref [||] in
  let do_spawn s cs =
    s.attempts <- s.attempts + 1;
    incr spawns;
    io.spawn ~slot:s.id ~attempt:s.attempts ~cells:cs;
    s.st <- Live { attempt = s.attempts; last = io.clock (); cells = cs };
    on_event (Spawn { slot = s.id; attempt = s.attempts; cells = Array.length cs })
  in
  let retire s =
    s.st <- Retired;
    on_event (Retire { slot = s.id })
  in
  (* A crash either schedules a respawn on the slot's remaining cells
     (exponential backoff) or, once the budget is spent, kills the slot
     and hands its cells to the orphan pool for reassignment. *)
  let crash s cs reason =
    incr crashes;
    on_event (Crash { slot = s.id; attempt = s.attempts; reason });
    if s.attempts > config.retries then begin
      s.st <- Dead;
      orphans := Array.append !orphans cs;
      on_event (Death { slot = s.id; orphans = Array.length cs })
    end
    else begin
      let delay =
        config.backoff_base *. (2. ** float_of_int (max 0 (s.attempts - 1)))
      in
      s.st <-
        Wait { attempt = s.attempts; until = io.clock () +. delay; cells = cs };
      on_event (Backoff { slot = s.id; attempt = s.attempts; delay })
    end
  in
  let failure () =
    Error
      (Printf.sprintf
         "retry budget exhausted with %d of %d cells incomplete; shard \
          journals preserved for resume"
         (n - !ndone) n)
  in
  let result = ref None in
  let polled = Array.make config.workers Running in
  while Option.is_none !result do
    (* 1. child status, polled before the journals are read: a child seen
       exited has flushed its last line, so step 2 reads it and step 3
       judges the exit on the complete journal *)
    Array.iter
      (fun s ->
        match s.st with
        | Live _ -> polled.(s.id) <- io.status ~slot:s.id
        | _ -> ())
      slots;
    (* 2. journal growth is the heartbeat *)
    Array.iter
      (fun s ->
        match s.st with
        | Live l ->
            let valid = ref 0 in
            List.iter
              (fun line -> if mark line then incr valid)
              (io.journal_lines ~slot:s.id);
            if !valid > s.seen then begin
              s.seen <- !valid;
              l.last <- io.clock ();
              on_event (Progress { slot = s.id; completed = !ndone; total = n })
            end
        | _ -> ())
      slots;
    (* 3. exits + stall detection *)
    Array.iter
      (fun s ->
        match s.st with
        | Live l -> (
            let rem = remaining l.cells in
            let unfinished = Array.length rem in
            match polled.(s.id) with
            | Exited 0 ->
                if unfinished = 0 then retire s
                else
                  crash s rem
                    (Printf.sprintf "exited 0 with %d unfinished cells"
                       unfinished)
            | Exited c ->
                if unfinished = 0 then retire s
                else crash s rem (Printf.sprintf "exit code %d" c)
            | Signaled sg ->
                (* killed after its last flush: the work is journaled,
                   so the slot retires as a success *)
                if unfinished = 0 then retire s
                else crash s rem (Printf.sprintf "killed by signal %d" sg)
            | Running ->
                let idle = io.clock () -. l.last in
                if idle > config.heartbeat_timeout then begin
                  on_event (Stall { slot = s.id; idle });
                  io.kill ~slot:s.id;
                  incr kills;
                  on_event (Kill { slot = s.id });
                  if unfinished = 0 then retire s
                  else crash s rem "heartbeat timeout"
                end)
        | _ -> ())
      slots;
    (* 4. expired backoffs respawn on their remaining cells *)
    Array.iter
      (fun s ->
        match s.st with
        | Wait w when io.clock () >= w.until ->
            let rem = remaining w.cells in
            if Array.length rem = 0 then retire s else do_spawn s rem
        | _ -> ())
      slots;
    (* 5. orphaned cells of dead slots go to a retired survivor *)
    (if Array.length !orphans > 0 then
       let eligible s =
         match s.st with
         | Retired -> s.attempts <= config.retries
         | _ -> false
       in
       match Array.find_opt eligible slots with
       | Some s ->
           let cs = remaining !orphans in
           orphans := [||];
           if Array.length cs > 0 then begin
             reassigned := !reassigned + Array.length cs;
             on_event (Reassign { slot = s.id; cells = Array.length cs });
             do_spawn s cs
           end
       | None -> ());
    (* 6. termination *)
    if !ndone = n then begin
      Array.iter
        (fun s ->
          match s.st with
          | Live _ ->
              io.kill ~slot:s.id;
              incr kills;
              on_event (Kill { slot = s.id });
              retire s
          | _ -> ())
        slots;
      result := Some (Ok (stats ()))
    end
    else begin
      let alive =
        Array.exists
          (fun s -> match s.st with Live _ | Wait _ -> true | _ -> false)
          slots
      in
      let can_adopt =
        Array.length !orphans > 0
        && Array.exists
             (fun s ->
               match s.st with
               | Retired -> s.attempts <= config.retries
               | _ -> false)
             slots
      in
      if (not alive) && not can_adopt then result := Some (failure ())
      else io.sleep config.poll_interval
    end
  done;
  match !result with Some r -> r | None -> assert false

(* ----------------------------------------------------------------- *)
(* Merge                                                              *)
(* ----------------------------------------------------------------- *)

let merge spec shards =
  let cells = Spec.cells spec in
  let n = Array.length cells in
  let best = Array.make n None in
  let lines_in = ref 0
  and torn = ref 0
  and stale = ref 0
  and duplicates = ref 0
  and conflicts = ref 0 in
  List.iter
    (fun lines ->
      List.iter
        (fun line ->
          if not (String.equal (String.trim line) "") then begin
            incr lines_in;
            match Journal.classify cells line with
            | Journal.Torn -> incr torn
            | Journal.Stale -> incr stale
            | Journal.Cell { idx; rounds = _ } -> (
                match best.(idx) with
                | None -> best.(idx) <- Some line
                | Some prev when String.equal prev line -> incr duplicates
                | Some prev ->
                    (* corrupt-but-sealed twins: keep the lexicographic
                       least so the choice is independent of shard and
                       arrival order *)
                    incr conflicts;
                    if String.compare line prev < 0 then
                      best.(idx) <- Some line)
          end)
        lines)
    shards;
  let missing = ref [] in
  for i = n - 1 downto 0 do
    match best.(i) with None -> missing := i :: !missing | Some _ -> ()
  done;
  let out =
    Array.to_list best |> List.filter_map (fun o -> o)
  in
  ( out,
    {
      shards = List.length shards;
      lines_in = !lines_in;
      torn = !torn;
      stale = !stale;
      duplicates = !duplicates;
      conflicts = !conflicts;
      missing = !missing;
    } )

let run ?on_event ~config ~io ~emit spec =
  match supervise ?on_event ~config ~io spec with
  | Error m -> Error m
  | Ok sup -> (
      let shards =
        List.init config.workers (fun s -> io.journal_lines ~slot:s)
      in
      let out, m = merge spec shards in
      match m.missing with
      | _ :: _ ->
          Error
            (Printf.sprintf
               "merge: %d cells missing from shard journals"
               (List.length m.missing))
      | [] ->
          List.iter emit out;
          Ok { cells = Array.length (Spec.cells spec); sup; merge = m })
