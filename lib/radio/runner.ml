let default_domains () = max 1 (Domain.recommended_domain_count ())

module Pool = struct
  (* A process-wide pool of reusable worker domains shared by every
     parallel entry point (trial-level [map], cell-level [Campaign.run]).
     Two jobs motivate it over bare [Domain.spawn]:

     - spawn amortization: a bench or campaign fans out many short
       parallel regions, so respawning domains per region would dwarf the
       work; borrowed workers park on a condition variable between jobs;
     - oversubscription control: [borrow] spawns new workers only when the
       pool is completely idle.  A nested parallel region (a [map] inside
       a [map] trial or a campaign cell) therefore gets zero workers and
       falls back to running in its calling domain — the domain count
       stays bounded by one level of parallelism instead of multiplying
       across levels.  Determinism is unaffected: [map]'s sharding and a
       campaign's output depend only on their requested width, never on
       how many workers actually execute the lanes.

     Memory model: [slot.job] is only ever read or written under
     [slot.lock], and the registry only under [registry_lock], so every
     cross-domain access is ordered by a mutex happens-before edge. *)

  type job = Idle | Run of (unit -> unit) | Done of exn option | Quit

  type slot = { lock : Mutex.t; cond : Condition.t; mutable job : job }

  type worker = { slot : slot; domain : unit Domain.t }

  let worker_loop slot () =
    let rec serve () =
      Mutex.lock slot.lock;
      while match slot.job with Run _ | Quit -> false | _ -> true do
        Condition.wait slot.cond slot.lock
      done;
      match slot.job with
      | Quit -> Mutex.unlock slot.lock
      | Run f ->
          Mutex.unlock slot.lock;
          let outcome = (try f (); None with e -> Some e) in
          Mutex.lock slot.lock;
          slot.job <- Done outcome;
          Condition.broadcast slot.cond;
          Mutex.unlock slot.lock;
          serve ()
      | Idle | Done _ -> assert false
    in
    serve ()

  let registry_lock = Mutex.create ()

  (* rblint:allow R6 registry is only accessed under registry_lock *)
  let idle_workers : worker list ref = ref []

  (* rblint:allow R6 busy count is only accessed under registry_lock *)
  let busy_count = ref 0

  (* Total domains ever spawned and still alive (busy + idle); under
     registry_lock. *)
  (* rblint:allow R6 pool size is only accessed under registry_lock *)
  let pool_size = ref 0

  (* Hardware cap: the calling domain plus a full pool exactly saturate
     the cores.  CPU-bound lanes gain nothing from more executors than
     cores, and by the determinism contracts of [map] and [Campaign.run]
     the executor count never affects results, so capping is free.  Tests
     raise it to force true multi-domain execution on small machines. *)
  let size_cap : int Atomic.t = Atomic.make (max 0 (default_domains () - 1))

  (* rblint:allow R6 at_exit hook registration flag, flipped once under registry_lock *)
  let shutdown_registered = ref false

  let shutdown () =
    Mutex.lock registry_lock;
    let workers = !idle_workers in
    idle_workers := [];
    pool_size := !pool_size - List.length workers;
    Mutex.unlock registry_lock;
    List.iter
      (fun w ->
        Mutex.lock w.slot.lock;
        w.slot.job <- Quit;
        Condition.broadcast w.slot.cond;
        Mutex.unlock w.slot.lock;
        Domain.join w.domain)
      workers

  let spawn_worker () =
    let slot = { lock = Mutex.create (); cond = Condition.create (); job = Idle } in
    (* rblint:allow R7 slot handshake: [job] is only touched under [slot.lock] *)
    { slot; domain = Domain.spawn (worker_loop slot) }

  (* [borrow ~want] hands back between 0 and [want] workers.  Idle workers
     are always reused; new domains are spawned only when nothing is busy,
     so only the outermost parallel region ever grows the pool. *)
  let borrow ~want =
    if want <= 0 then [||]
    else begin
      Mutex.lock registry_lock;
      let rec take k acc = function
        | w :: rest when k > 0 -> take (k - 1) (w :: acc) rest
        | rest ->
            idle_workers := rest;
            acc
      in
      let taken = take want [] !idle_workers in
      let fresh =
        if !busy_count = 0 then
          min
            (want - List.length taken)
            (max 0 (Atomic.get size_cap - !pool_size))
        else 0
      in
      pool_size := !pool_size + fresh;
      busy_count := !busy_count + List.length taken + fresh;
      if not !shutdown_registered then begin
        shutdown_registered := true;
        (* Parked domains must be joined before runtime teardown. *)
        at_exit shutdown
      end;
      Mutex.unlock registry_lock;
      let spawned = List.init fresh (fun _ -> spawn_worker ()) in
      Array.of_list (taken @ spawned)
    end

  let release ws =
    let k = Array.length ws in
    if k > 0 then begin
      Mutex.lock registry_lock;
      Array.iter (fun w -> idle_workers := w :: !idle_workers) ws;
      busy_count := !busy_count - k;
      Mutex.unlock registry_lock
    end

  let run_on w f =
    Mutex.lock w.slot.lock;
    (match w.slot.job with Idle -> () | _ -> assert false);
    w.slot.job <- Run f;
    Condition.broadcast w.slot.cond;
    Mutex.unlock w.slot.lock

  (* Wait for the worker's current job; returns the exception it raised,
     if any, leaving the worker idle and reusable either way. *)
  let await w =
    Mutex.lock w.slot.lock;
    while match w.slot.job with Done _ -> false | _ -> true do
      Condition.wait w.slot.cond w.slot.lock
    done;
    let outcome = match w.slot.job with Done o -> o | _ -> assert false in
    w.slot.job <- Idle;
    Mutex.unlock w.slot.lock;
    outcome
end

let map_array ?domains f items =
  let k = Array.length items in
  let d =
    match domains with
    | Some d -> max 1 (min d k)
    | None -> max 1 (min (default_domains ()) k)
  in
  if k = 0 then [||]
  else if d <= 1 then Array.map f items
  else begin
    (* Deterministic static sharding: lane [i] takes items i, i+d, i+2d, …
       Each lane evaluates its first item, sizes one result array off it,
       and then fills the remaining slots in place — no per-element option
       boxing, no list building.  Each lane array is written by exactly
       one executor and [lane_results.(i)] exactly once, so the plain
       arrays are race-free; the pool's mutex handshake publishes the
       writes.  The merge below restores input order, so the output is
       bit-identical to the serial map — and independent of how many pool
       workers actually ran the lanes. *)
    let lane_results = Array.make d [||] in
    let lane i () =
      let first = f items.(i) in
      let len = (k - i + d - 1) / d in
      let out = Array.make len first in
      let fill () =
        let j = ref (i + d) in
        let slot = ref 1 in
        while !j < k do
          out.(!slot) <- f items.(!j);
          incr slot;
          j := !j + d
        done
      [@@zero_alloc_hot]
      in
      fill ();
      lane_results.(i) <- out
    in
    let workers = Pool.borrow ~want:(d - 1) in
    let execs = Array.length workers + 1 in
    let run_executor e () =
      let l = ref e in
      while !l < d do
        lane !l ();
        l := !l + execs
      done
    in
    Array.iteri (fun t w -> Pool.run_on w (run_executor (t + 1))) workers;
    let caller_exn = (try run_executor 0 (); None with e -> Some e) in
    let worker_exn = ref None in
    Array.iter
      (fun w ->
        match Pool.await w with
        | Some e when Option.is_none !worker_exn -> worker_exn := Some e
        | _ -> ())
      workers;
    Pool.release workers;
    (match (caller_exn, !worker_exn) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ());
    (* Every lane is non-empty (d <= k), so lane 0 seeds the merge. *)
    let out = Array.make k lane_results.(0).(0) in
    for l = 0 to d - 1 do
      let lr = lane_results.(l) in
      for s = 0 to Array.length lr - 1 do
        out.(l + (s * d)) <- lr.(s)
      done
    done;
    out
  end

let map ?domains f items =
  Array.to_list (map_array ?domains f (Array.of_list items))
