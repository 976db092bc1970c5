(* Distributed campaign executor: supervisor state machine, shard-journal
   merge, and the ISSUE 10 acceptance property — a distributed campaign
   with random worker-kill schedules at worker counts 1/2/4 must merge to
   output byte-identical to a serial single-process run, with no cell
   executed more times than the retry budget allows.

   Everything runs against a simulated io harness on a virtual clock:
   [sleep] advances time and steps each live simulated worker by one
   cell, so crashes, torn journal tails, hangs, and lying exit codes are
   exact and deterministic. *)

open Rn_campaign
open Rn_broadcast

let () = Protocols.ensure_registered ()

let parse_ok text =
  match Spec.parse text with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "spec rejected: %s" msg

let small_spec =
  "{\"topo\":\"path\",\"n\":10}\n"
  ^ "{\"topo\":\"layered\",\"depth\":3,\"width\":3,\"p\":0.5,\"seeds\":[1,2]}\n"
  ^ "{\"proto\":\"decay\"}\n" ^ "{\"proto\":\"cr\"}\n" ^ "{\"seeds\":[1,2,3]}\n"

(* The serial single-process reference: emit order is cell-index order,
   so [lines.(idx)] is cell [idx]'s one true journal/output line. *)
let serial_lines spec =
  let acc = ref [] in
  let (_ : Campaign.stats) =
    Campaign.run ~domains:1 ~emit:(fun l -> acc := l :: !acc) spec
  in
  Array.of_list (List.rev !acc)

(* --- simulated workers ---------------------------------------------- *)

type fault =
  | Clean
  | Crash_after of int  (* exit 3 after executing this many cells *)
  | Sigkill_after of int * int
      (* SIGKILL after this many cells; the second field tears that many
         bytes off a final half-written line (0 = die between the last
         flush and exit) *)
  | Exit0_after of int  (* exit 0 with work unfinished — a lying worker *)
  | Hang_after of int  (* stop progressing but stay alive *)
  | Finish_on_poll
      (* run every remaining cell and exit 0 at the moment the
         supervisor polls its status: a healthy worker whose last lines
         land between the supervisor's journal read and its status poll *)

type proc = Alive | Dead_exit of int | Dead_signal of int

type simw = {
  mutable cells : int array;
  mutable pos : int;
  mutable ran : int;  (* cells executed this attempt *)
  mutable proc : proc;
  mutable fault : fault;
}

type harness = {
  io : Dist.io;
  journals : string list array;  (* newest first, per slot *)
  exec_count : int array;  (* per cell, across all attempts *)
}

(* [fault_of ~slot ~attempt] scripts each spawn.  [initial_journals]
   pre-seeds shard journals (the --resume path). *)
let make_harness ~workers ~fault_of ?(initial_journals = [||]) ~lines () =
  let journals =
    Array.init workers (fun s ->
        if s < Array.length initial_journals then
          List.rev initial_journals.(s)
        else [])
  in
  let exec_count = Array.make (Array.length lines) 0 in
  let sims =
    Array.init workers (fun _ ->
        { cells = [||]; pos = 0; ran = 0; proc = Dead_exit 0; fault = Clean })
  in
  let vclock = ref 0.0 in
  let step s (w : simw) =
    match w.proc with
    | Dead_exit _ | Dead_signal _ -> ()
    | Alive -> (
        let fire =
          match w.fault with
          | Clean | Finish_on_poll -> `Run
          | Crash_after k when w.ran >= k -> `Crash
          | Sigkill_after (k, tear) when w.ran >= k -> `Sig tear
          | Exit0_after k when w.ran >= k -> `Exit0
          | Hang_after k when w.ran >= k -> `Hang
          | _ -> `Run
        in
        match fire with
        | `Crash -> w.proc <- Dead_exit 3
        | `Exit0 -> w.proc <- Dead_exit 0
        | `Hang -> ()
        | `Sig tear ->
            (* the kill lands mid-write: the next cell ran, but only a
               torn prefix of its line reached the journal *)
            if tear > 0 && w.pos < Array.length w.cells then begin
              let idx = w.cells.(w.pos) in
              let line = lines.(idx) in
              let cut = min tear (String.length line - 1) in
              exec_count.(idx) <- exec_count.(idx) + 1;
              journals.(s) <-
                String.sub line 0 (String.length line - cut) :: journals.(s)
            end;
            w.proc <- Dead_signal 9
        | `Run ->
            if w.pos >= Array.length w.cells then w.proc <- Dead_exit 0
            else begin
              let idx = w.cells.(w.pos) in
              w.pos <- w.pos + 1;
              w.ran <- w.ran + 1;
              exec_count.(idx) <- exec_count.(idx) + 1;
              journals.(s) <- lines.(idx) :: journals.(s)
            end)
  in
  let io =
    {
      Dist.spawn =
        (fun ~slot ~attempt ~cells ->
          let w = sims.(slot) in
          w.cells <- cells;
          w.pos <- 0;
          w.ran <- 0;
          w.fault <- fault_of ~slot ~attempt;
          w.proc <- Alive);
      status =
        (fun ~slot ->
          let w = sims.(slot) in
          (match (w.fault, w.proc) with
          | Finish_on_poll, Alive ->
              while w.proc = Alive do
                step slot w
              done
          | _ -> ());
          match w.proc with
          | Alive -> Dist.Running
          | Dead_exit c -> Dist.Exited c
          | Dead_signal sg -> Dist.Signaled sg);
      kill =
        (fun ~slot ->
          match sims.(slot).proc with
          | Alive -> sims.(slot).proc <- Dead_signal 9
          | _ -> ());
      journal_lines = (fun ~slot -> List.rev journals.(slot));
      clock = (fun () -> !vclock);
      sleep =
        (fun dt ->
          vclock := !vclock +. dt;
          Array.iteri step sims);
    }
  in
  { io; journals; exec_count }

let config workers =
  {
    Dist.workers;
    retries = 2;
    heartbeat_timeout = 0.45;
    backoff_base = 0.1;
    poll_interval = 0.1;
  }

let run_dist ?(workers = 2) ?initial_journals ~fault_of spec =
  let lines = serial_lines spec in
  let h = make_harness ~workers ~fault_of ?initial_journals ~lines () in
  let events = ref [] in
  let out = Buffer.create 4096 in
  let r =
    Dist.run
      ~on_event:(fun e -> events := e :: !events)
      ~config:(config workers) ~io:h.io
      ~emit:(fun l ->
        Buffer.add_string out l;
        Buffer.add_char out '\n')
      spec
  in
  let reference =
    String.concat "" (Array.to_list (Array.map (fun l -> l ^ "\n") lines))
  in
  (r, Buffer.contents out, reference, h, List.rev !events)

let no_fault ~slot:_ ~attempt:_ = Clean

let fault_table table ~slot ~attempt =
  match List.assoc_opt (slot, attempt) table with
  | Some f -> f
  | None -> Clean

let crash_reasons events =
  List.filter_map
    (function Dist.Crash { reason; _ } -> Some reason | _ -> None)
    events

let has_substring needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

let check_ok = function
  | Ok (s : Dist.stats) -> s
  | Error m -> Alcotest.failf "distributed run failed: %s" m

(* --- supervisor ------------------------------------------------------ *)

let test_clean_run () =
  let spec = parse_ok small_spec in
  List.iter
    (fun workers ->
      let r, out, reference, _, _ =
        run_dist ~workers ~fault_of:no_fault spec
      in
      let stats = check_ok r in
      Alcotest.(check string)
        (Printf.sprintf "bytes at %d workers" workers)
        reference out;
      Alcotest.(check int) "no crashes" 0 stats.Dist.sup.crashes;
      Alcotest.(check int) "one spawn per busy slot"
        (min workers (Array.length (Spec.cells spec)))
        stats.Dist.sup.spawns)
    [ 1; 2; 4; 32 ]

(* satellite 4: a worker that exits 0 having journaled nothing is a
   crash, not a success — its cells must be re-run, not lost *)
let test_exit0_nothing_journaled () =
  let spec = parse_ok small_spec in
  let r, out, reference, _, events =
    run_dist ~workers:1
      ~fault_of:(fault_table [ ((0, 1), Exit0_after 0) ])
      spec
  in
  let stats = check_ok r in
  Alcotest.(check string) "recovered bytes" reference out;
  Alcotest.(check int) "one crash" 1 stats.Dist.sup.crashes;
  Alcotest.(check int) "respawned once" 2 stats.Dist.sup.spawns;
  Alcotest.(check bool) "reason names the lying exit" true
    (List.exists (has_substring "exited 0") (crash_reasons events))

(* satellite 4: a worker killed between its final journal flush and its
   exit did all its work — the slot retires as a success, zero retries *)
let test_killed_between_flush_and_exit () =
  let spec = parse_ok small_spec in
  let total = Array.length (Spec.cells spec) in
  let shard0 =
    Array.length (Dist.plan ~workers:2 ~pending:(Array.init total Fun.id)).(0)
  in
  let r, out, reference, _, events =
    run_dist ~workers:2
      ~fault_of:(fault_table [ ((0, 1), Sigkill_after (shard0, 0)) ])
      spec
  in
  let stats = check_ok r in
  Alcotest.(check string) "bytes intact" reference out;
  Alcotest.(check int) "no crash recorded" 0 stats.Dist.sup.crashes;
  Alcotest.(check int) "no respawn" 2 stats.Dist.sup.spawns;
  Alcotest.(check bool) "no Crash event" true
    (List.for_all (function Dist.Crash _ -> false | _ -> true) events)

(* satellite 4: retry budget exhaustion fails loudly and preserves the
   partial shard journals — a later resumed run finishes from them *)
let test_retry_exhaustion_then_resume () =
  let spec = parse_ok small_spec in
  let total = Array.length (Spec.cells spec) in
  let lines = serial_lines spec in
  let always_crash ~slot:_ ~attempt:_ = Crash_after 1 in
  let h = make_harness ~workers:1 ~fault_of:always_crash ~lines () in
  let r =
    Dist.supervise ~config:(config 1) ~io:h.io spec
  in
  (match r with
  | Ok _ -> Alcotest.fail "exhausted campaign must fail"
  | Error msg ->
      Alcotest.(check bool) "message names the budget" true
        (has_substring "budget" msg));
  (* one cell survived per attempt: 3 attempts, 3 journaled lines *)
  Alcotest.(check int) "partial journal preserved" 3
    (List.length h.journals.(0));
  (* resume: seed a fresh harness with the surviving shard journal *)
  let r2, out, reference, h2, _ =
    run_dist ~workers:1
      ~initial_journals:[| List.rev h.journals.(0) |]
      ~fault_of:no_fault spec
  in
  let stats = check_ok r2 in
  Alcotest.(check string) "resumed bytes" reference out;
  Alcotest.(check int) "journaled cells not re-run" (total - 3)
    (Array.fold_left ( + ) 0 h2.exec_count);
  Alcotest.(check int) "no crashes after resume" 0 stats.Dist.sup.crashes;
  (* resume over the now complete shard journal: the merge on its own *)
  let r3, out3, _, h3, _ =
    run_dist ~workers:1
      ~initial_journals:[| List.rev h2.journals.(0) |]
      ~fault_of:no_fault spec
  in
  let stats = check_ok r3 in
  Alcotest.(check string) "merge-only bytes" reference out3;
  Alcotest.(check int) "merge-only spawns nothing" 0 stats.Dist.sup.spawns;
  Alcotest.(check int) "merge-only runs nothing" 0
    (Array.fold_left ( + ) 0 h3.exec_count)

(* a slot that dies hands its unfinished cells to a retired survivor *)
let test_orphan_reassignment () =
  let spec = parse_ok small_spec in
  let slot0_dead ~slot ~attempt:_ =
    if slot = 0 then Crash_after 0 else Clean
  in
  let r, out, reference, _, events = run_dist ~workers:2 ~fault_of:slot0_dead spec in
  let stats = check_ok r in
  Alcotest.(check string) "bytes after reassignment" reference out;
  Alcotest.(check bool) "slot 0 died" true
    (List.exists (function Dist.Death { slot = 0; _ } -> true | _ -> false) events);
  Alcotest.(check bool) "cells moved to slot 1" true
    (List.exists (function Dist.Reassign { slot = 1; _ } -> true | _ -> false) events);
  Alcotest.(check bool) "reassigned count" true (stats.Dist.sup.reassigned > 0)

(* a worker that journals its last cells and exits between the
   supervisor's journal read and its status poll finished its work: no
   crash, no backoff, no respawn *)
let test_finish_on_poll () =
  let spec = parse_ok small_spec in
  List.iter
    (fun workers ->
      let r, out, reference, h, events =
        run_dist ~workers ~fault_of:(fun ~slot:_ ~attempt:_ -> Finish_on_poll)
          spec
      in
      let stats = check_ok r in
      Alcotest.(check string)
        (Printf.sprintf "bytes at %d workers" workers)
        reference out;
      Alcotest.(check int) "no crashes" 0 stats.Dist.sup.crashes;
      Alcotest.(check bool) "no Crash event" true
        (List.for_all (function Dist.Crash _ -> false | _ -> true) events);
      Alcotest.(check int) "one spawn per busy slot"
        (min workers (Array.length (Spec.cells spec)))
        stats.Dist.sup.spawns;
      Alcotest.(check bool) "every cell ran once" true
        (Array.for_all (fun c -> c = 1) h.exec_count))
    [ 1; 2; 4 ]

(* a hung worker (alive, journal not growing) is killed and respawned *)
let test_hang_heartbeat () =
  let spec = parse_ok small_spec in
  let r, out, reference, _, events =
    run_dist ~workers:2
      ~fault_of:(fault_table [ ((0, 1), Hang_after 2) ])
      spec
  in
  let stats = check_ok r in
  Alcotest.(check string) "bytes after hang" reference out;
  Alcotest.(check bool) "stall observed" true
    (List.exists (function Dist.Stall _ -> true | _ -> false) events);
  Alcotest.(check bool) "heartbeat names the timeout" true
    (List.exists (has_substring "heartbeat") (crash_reasons events));
  Alcotest.(check bool) "killed at least once" true (stats.Dist.sup.kills >= 1)

(* --- merge ----------------------------------------------------------- *)

let test_merge_order_independent () =
  let spec = parse_ok small_spec in
  let lines = Array.to_list (serial_lines spec) in
  let conflict =
    (* same cell, different-but-sealed bytes: a corrupt twin *)
    let c = (Spec.cells spec).(0) in
    Journal.line ~idx:0 ~key:c.Spec.key ~cell:c.Spec.label ~rounds:9999
      ~delivered:false ~details:[]
  in
  let torn = String.sub (List.hd lines) 0 (String.length (List.hd lines) - 5) in
  let shards_a = [ lines; [ conflict; torn ]; [ List.hd lines ] ] in
  let shards_b = [ [ torn; conflict ]; List.rev lines; [ List.nth lines 0 ] ] in
  let out_a, stats_a = Dist.merge spec shards_a in
  let out_b, stats_b = Dist.merge spec shards_b in
  Alcotest.(check (list string)) "shard/line order invisible" out_a out_b;
  Alcotest.(check int) "torn dropped" 1 stats_a.Dist.torn;
  Alcotest.(check bool) "conflict counted" true (stats_a.Dist.conflicts >= 1);
  (* idx 0 saw three extra events beyond its accepted line: however the
     twins are ordered, conflicts + duplicates is the same *)
  Alcotest.(check int) "conflict/duplicate split is order-independent"
    (stats_a.Dist.conflicts + stats_a.Dist.duplicates)
    (stats_b.Dist.conflicts + stats_b.Dist.duplicates);
  Alcotest.(check int) "conflicts agree" stats_a.Dist.conflicts
    stats_b.Dist.conflicts;
  Alcotest.(check (list int)) "nothing missing" [] stats_a.Dist.missing;
  Alcotest.(check (list int)) "nothing missing (b)" [] stats_b.Dist.missing;
  (* winner is the lexicographic least of the conflicting twins *)
  let winner = List.hd out_a in
  Alcotest.(check string) "deterministic conflict winner"
    (if String.compare conflict (List.hd lines) < 0 then conflict
     else List.hd lines)
    winner

let test_plan_and_ranges () =
  let pending = Array.init 17 (fun i -> i * 2) in
  let parts = Dist.plan ~workers:5 ~pending in
  Alcotest.(check int) "five shards" 5 (Array.length parts);
  let glued = Array.concat (Array.to_list parts) in
  Alcotest.(check (array int)) "contiguous cover" pending glued;
  Array.iter
    (fun p ->
      Alcotest.(check bool) "balanced" true
        (abs (Array.length p - (17 / 5)) <= 1))
    parts;
  List.iter
    (fun a ->
      Alcotest.(check (array int)) "range round-trip" a
        (Dist.cells_of_string (Dist.cells_to_string a)))
    [ [||]; [| 3 |]; [| 0; 1; 2; 7; 9; 10 |]; Array.init 40 (fun i -> i) ];
  Alcotest.(check string) "compact ranges" "0-2,7,9-10"
    (Dist.cells_to_string [| 0; 1; 2; 7; 9; 10 |]);
  Alcotest.check_raises "malformed ranges rejected"
    (Invalid_argument "Dist.cells_of_string: \"3-\"") (fun () ->
      ignore (Dist.cells_of_string "3-"))

(* --- QCheck: the ISSUE 10 acceptance property ------------------------ *)

let spec_gen =
  QCheck.Gen.(
    let topo_pool =
      [
        "{\"topo\":\"path\",\"n\":11}";
        "{\"topo\":\"star\",\"n\":9}";
        "{\"topo\":\"grid\",\"w\":3,\"h\":4}";
        "{\"topo\":\"layered\",\"depth\":3,\"width\":3,\"p\":0.5,\"seeds\":[1,2]}";
      ]
    and proto_pool =
      [ "{\"proto\":\"decay\"}"; "{\"proto\":\"cr\"}"; "{\"proto\":\"mmv\",\"k\":2}" ]
    in
    let pick_slice pool =
      int_range 0 (List.length pool - 1) >>= fun start ->
      int_range 1 (List.length pool - start) >>= fun len ->
      return (List.filteri (fun i _ -> i >= start && i < start + len) pool)
    in
    pick_slice topo_pool >>= fun topos ->
    pick_slice proto_pool >>= fun protos ->
    int_range 1 3 >>= fun nseeds ->
    let seeds =
      "{\"seeds\":" ^ Rn_util.Jsons.int_array (List.init nseeds (fun i -> i + 1))
      ^ "}"
    in
    return (String.concat "\n" (topos @ protos @ [ seeds ])))

let fault_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Clean);
        (2, int_range 0 3 >>= fun k -> return (Crash_after k));
        ( 2,
          int_range 0 3 >>= fun k ->
          int_range 0 30 >>= fun tear -> return (Sigkill_after (k, tear)) );
        (1, int_range 0 2 >>= fun k -> return (Exit0_after k));
        (1, int_range 0 2 >>= fun k -> return (Hang_after k));
      ])

(* Random kill schedules over every (slot, attempt) with the final
   attempt clean, so the run always recovers; the merged bytes must
   equal the serial single-process run's, and the per-cell execution
   count stays within the retry budget. *)
let dist_recovery_prop (spec_text, workers, schedules) =
  let spec = parse_ok spec_text in
  let retries = (config workers).Dist.retries in
  let fault_of ~slot ~attempt =
    if attempt > retries then Clean
    else
      match List.nth_opt schedules slot with
      | Some per_slot -> (
          match List.nth_opt per_slot (attempt - 1) with
          | Some f -> f
          | None -> Clean)
      | None -> Clean
  in
  let r, out, reference, h, _ = run_dist ~workers ~fault_of spec in
  (match r with
  | Error m ->
      QCheck.Test.fail_reportf "run failed (%s) workers=%d@.%s" m workers
        spec_text
  | Ok _ -> ());
  if not (String.equal out reference) then
    QCheck.Test.fail_reportf "merged bytes differ at workers=%d@.%s" workers
      spec_text;
  Array.iteri
    (fun idx c ->
      if c > retries + 1 then
        QCheck.Test.fail_reportf
          "cell %d executed %d times (budget %d) at workers=%d" idx c
          (retries + 1) workers)
    h.exec_count;
  true

let dist_recovery =
  QCheck.Test.make ~count:25
    ~name:"distributed crash recovery == serial bytes (QCheck)"
    (QCheck.make
       QCheck.Gen.(
         spec_gen >>= fun s ->
         oneofl [ 1; 2; 4 ] >>= fun w ->
         list_size (return w) (list_size (return 2) fault_gen)
         >>= fun schedules -> return (s, w, schedules)))
    dist_recovery_prop

let () =
  Alcotest.run "dist"
    [
      ( "supervisor",
        [
          Alcotest.test_case "clean fan-out matches serial" `Quick
            test_clean_run;
          Alcotest.test_case "exit 0 with nothing journaled is a crash" `Quick
            test_exit0_nothing_journaled;
          Alcotest.test_case "killed between flush and exit retires" `Quick
            test_killed_between_flush_and_exit;
          Alcotest.test_case "retry exhaustion fails loudly, resume finishes"
            `Quick test_retry_exhaustion_then_resume;
          Alcotest.test_case "orphans reassigned to survivor" `Quick
            test_orphan_reassignment;
          Alcotest.test_case "hung worker killed by heartbeat" `Quick
            test_hang_heartbeat;
          Alcotest.test_case "exit between journal read and poll retires"
            `Quick test_finish_on_poll;
        ] );
      ( "merge",
        [
          Alcotest.test_case "order independent, torn/conflict resolved"
            `Quick test_merge_order_independent;
          Alcotest.test_case "plan and cell ranges" `Quick test_plan_and_ranges;
        ] );
      ( "recovery",
        [ QCheck_alcotest.to_alcotest dist_recovery ] );
    ]
