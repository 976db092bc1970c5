open Rn_radio

type stats = {
  cells : int;
  executed : int;
  replayed : int;
  aborted : bool;
  steals : int;
  gen_s : float;
  run_s : float;
  drain_s : float;
  cell_wall : float array;
  cell_rounds : int array;
}

(* One lane's share of the cell indices.  [order.(lo..hi)] is the
   unclaimed window: the owner takes from the front, thieves take from
   the back, both under [qlock] — every cross-domain access to [lo]/[hi]
   is ordered by the mutex, and each index leaves exactly one queue
   exactly once. *)
type lane_queue = {
  qlock : Mutex.t;
  order : int array;
  mutable lo : int;
  mutable hi : int;
}

(* Owner-local result buffer: the executing domain pushes, only the
   coordinator drains.  A short critical section around a list swap —
   no atomics, and no contention unless the coordinator is draining this
   very buffer. *)
type buffer = { block : Mutex.t; mutable items : (int * string) list }

let run ?domains ?journal ?(resume_lines = []) ?select ?abort_after
    ?(clock = fun () -> 0.) ~emit spec =
  let instances = Spec.instances spec in
  let cells = Spec.cells spec in
  let ncells = Array.length cells in
  (* [select] restricts the run to a subset of cell indices — the shard a
     distributed campaign-worker owns.  Unselected cells are invisible:
     never queued, cached, journaled, or emitted; resume lines naming
     them are ignored. *)
  let selected =
    match select with
    | None -> Array.make ncells true
    | Some idxs ->
        let a = Array.make ncells false in
        Array.iter (fun i -> if i >= 0 && i < ncells then a.(i) <- true) idxs;
        a
  in
  let d =
    let want =
      match domains with Some d -> d | None -> Runner.default_domains ()
    in
    max 1 (min want (max 1 ncells))
  in
  let entry_of =
    Array.map
      (fun (c : Spec.cell) ->
        if not selected.(c.idx) then None
        else
          match Registry.find c.proto with
          | Some e -> Some e
          | None ->
              failwith
                (Printf.sprintf
                   "campaign: protocol %S is not registered (run \
                    Protocols.ensure_registered first)"
                   c.proto))
      cells
  in
  (* --- resume: replay journal lines into their output slots --------- *)
  let slots = Array.make ncells None in
  let cell_rounds = Array.make ncells 0 in
  let replayed = ref 0 in
  List.iter
    (fun line ->
      match Journal.classify cells line with
      | Journal.Cell { idx; rounds } when selected.(idx) -> (
          match slots.(idx) with
          | None ->
              slots.(idx) <- Some line;
              cell_rounds.(idx) <- rounds;
              incr replayed
          | Some _ -> ())
      | _ -> ())
    resume_lines;
  (* --- topology cache: build each needed instance once, then freeze.
     The array is a local immutable value by the time any worker starts,
     so sharing it read-only across stolen cells is R6/R12-clean — there
     is no post-publication mutation to race on. ------------------------ *)
  let needed = Array.make (Array.length instances) false in
  Array.iter
    (fun (c : Spec.cell) ->
      if selected.(c.idx) then
        match slots.(c.idx) with
        | None -> needed.(c.topo) <- true
        | Some _ -> ())
    cells;
  let t_gen0 = clock () in
  let topo_cache =
    Array.mapi
      (fun i inst -> if needed.(i) then Some (Spec.build inst) else None)
      instances
  in
  let gen_s = clock () -. t_gen0 in
  (* --- per-lane queues over the still-pending cells ------------------ *)
  let queues =
    Array.init d (fun l ->
        let count = ref 0 in
        let i = ref l in
        while !i < ncells do
          (match slots.(!i) with
          | None when selected.(!i) -> incr count
          | _ -> ());
          i := !i + d
        done;
        let order = Array.make (max 1 !count) 0 in
        let pos = ref 0 in
        let i = ref l in
        while !i < ncells do
          (match slots.(!i) with
          | None when selected.(!i) ->
              order.(!pos) <- !i;
              incr pos
          | _ -> ());
          i := !i + d
        done;
        { qlock = Mutex.create (); order; lo = 0; hi = !count })
  in
  let take_own q =
    Mutex.lock q.qlock;
    let r =
      if q.lo < q.hi then (
        let i = q.order.(q.lo) in
        q.lo <- q.lo + 1;
        i)
      else -1
    in
    Mutex.unlock q.qlock;
    r
  in
  let steal_back q =
    Mutex.lock q.qlock;
    let r =
      if q.lo < q.hi then (
        q.hi <- q.hi - 1;
        q.order.(q.hi))
      else -1
    in
    Mutex.unlock q.qlock;
    r
  in
  let remaining q =
    Mutex.lock q.qlock;
    let r = q.hi - q.lo in
    Mutex.unlock q.qlock;
    r
  in
  let workers = Runner.Pool.borrow ~want:(d - 1) in
  let execs = Array.length workers + 1 in
  let stop = Atomic.make false in
  let buffers =
    Array.init execs (fun _ -> { block = Mutex.create (); items = [] })
  in
  let run_acc = Array.make execs 0.0 in
  let steal_acc = Array.make execs 0 in
  let exec_acc = Array.make execs 0 in
  let cell_wall = Array.make ncells 0.0 in
  (* Executor [e] owns lanes e, e+execs, … (all of them when running
     solo); when its lanes are dry, it takes one cell from the back of
     the most loaded lane.  Single-cell steals keep the residual work
     stealable by others, which is what bounds the tail on heavy-tailed
     cell mixes. *)
  let rec next_cell e =
    let rec own l =
      if l >= d then -1
      else
        let i = take_own queues.(l) in
        if i >= 0 then i else own (l + execs)
    in
    let i = own e in
    if i >= 0 then i
    else
      let best = ref (-1) and best_rem = ref 0 in
      for l = 0 to d - 1 do
        let r = remaining queues.(l) in
        if r > !best_rem then (
          best_rem := r;
          best := l)
      done;
      if !best < 0 then -1
      else
        let i = steal_back queues.(!best) in
        if i >= 0 then (
          steal_acc.(e) <- steal_acc.(e) + 1;
          i)
        else next_cell e (* lost the race; rescan *)
  in
  let exec_cell e idx =
    let c = cells.(idx) in
    let g = Option.get topo_cache.(c.topo) in
    let entry = Option.get entry_of.(idx) in
    let t0 = clock () in
    let { Registry.rounds; delivered; details } =
      entry.Registry.run ?k:c.k ~seed:c.run_seed ~graph:g ~source:0 ()
    in
    let t1 = clock () in
    run_acc.(e) <- run_acc.(e) +. (t1 -. t0);
    exec_acc.(e) <- exec_acc.(e) + 1;
    cell_wall.(idx) <- t1 -. t0;
    cell_rounds.(idx) <- rounds;
    let line =
      Journal.line ~idx ~key:c.key ~cell:c.label ~rounds ~delivered ~details
    in
    let b = buffers.(e) in
    Mutex.lock b.block;
    b.items <- (idx, line) :: b.items;
    Mutex.unlock b.block
  in
  let worker_body e () =
    let continue = ref true in
    while !continue do
      if Atomic.get stop then continue := false
      else
        let i = next_cell e in
        if i < 0 then continue := false else exec_cell e i
    done
  in
  (* --- coordinator: journal in completion order, emit in index order - *)
  let completed = ref 0 in
  let cursor = ref 0 in
  let aborted = ref false in
  let drain_s = ref 0.0 in
  let drain () =
    let t0 = clock () in
    for e = 0 to execs - 1 do
      let b = buffers.(e) in
      Mutex.lock b.block;
      let got = b.items in
      b.items <- [];
      Mutex.unlock b.block;
      List.iter
        (fun (idx, line) ->
          if not !aborted then begin
            (match abort_after with
            | Some n when !completed >= n ->
                (* Simulated kill: everything from here on — including
                   this very result — is dropped, exactly as a SIGKILL
                   between two journal flushes would drop it. *)
                aborted := true;
                Atomic.set stop true
            | _ -> ());
            if not !aborted then begin
              (match journal with Some j -> j line | None -> ());
              slots.(idx) <- Some line;
              incr completed
            end
          end)
        (List.rev got)
    done;
    if not !aborted then begin
      let advancing = ref true in
      while !advancing && !cursor < ncells do
        if not selected.(!cursor) then incr cursor
        else
          match slots.(!cursor) with
          | Some l ->
              emit l;
              incr cursor
          | None -> advancing := false
      done
    end;
    drain_s := !drain_s +. (clock () -. t0)
  in
  drain () (* stream the replayed prefix before any new work *);
  Array.iteri (fun t w -> Runner.Pool.run_on w (worker_body (t + 1))) workers;
  let caller_exn =
    try
      let continue = ref true in
      while !continue do
        if Atomic.get stop then continue := false
        else
          let i = next_cell 0 in
          if i < 0 then continue := false
          else begin
            exec_cell 0 i;
            drain ()
          end
      done;
      None
    with ex ->
      Atomic.set stop true;
      Some ex
  in
  let worker_exn = ref None in
  Array.iter
    (fun w ->
      match Runner.Pool.await w with
      | Some ex when Option.is_none !worker_exn -> worker_exn := Some ex
      | _ -> ())
    workers;
  Runner.Pool.release workers;
  drain ();
  (match (caller_exn, !worker_exn) with
  | Some ex, _ | None, Some ex -> raise ex
  | None, None -> ());
  let sumf a = Array.fold_left ( +. ) 0.0 a in
  let sumi a = Array.fold_left ( + ) 0 a in
  {
    cells = ncells;
    executed = sumi exec_acc;
    replayed = !replayed;
    aborted = !aborted;
    steals = sumi steal_acc;
    gen_s;
    run_s = sumf run_acc;
    drain_s = !drain_s;
    cell_wall;
    cell_rounds;
  }
