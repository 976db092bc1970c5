(* rbcast — command-line driver for the radio-broadcast library.

   Subcommands:
     rbcast broadcast  single-message broadcast with a chosen algorithm
     rbcast multi      k-message broadcast (Theorems 1.2 / 1.3, baselines)
     rbcast gst        build a GST (centralized or distributed) and report
     rbcast topo       describe or export a generated topology
     rbcast campaign   run a sweep campaign (cache, stealing, resume)
     rbcast campaign-dist    distributed campaign: supervised worker fan-out
     rbcast campaign-worker  one shard of a distributed campaign (internal)
     rbcast campaign-merge   merge shard journals into campaign output *)

open Cmdliner
open Rn_util
open Rn_graph
open Rn_broadcast

(* ------------------------------------------------------------------ *)
(* Topology specification *)

type topo =
  | Path
  | Cycle
  | Star
  | Grid
  | Tree
  | Random
  | Layered
  | Clusters
  | Disk

let topo_conv =
  Arg.enum
    [
      ("path", Path); ("cycle", Cycle); ("star", Star); ("grid", Grid);
      ("tree", Tree); ("random", Random); ("layered", Layered);
      ("clusters", Clusters); ("disk", Disk);
    ]

let build_graph topo n depth seed =
  let rng = Rng.create ~seed in
  match topo with
  | Path -> Gen.path n
  | Cycle -> Gen.cycle (max 3 n)
  | Star -> Gen.star n
  | Grid ->
      let w = max 1 (Ilog.isqrt n) in
      Gen.grid ~w ~h:(max 1 (Ilog.cdiv n w))
  | Tree ->
      let d = max 1 depth in
      Gen.balanced_tree ~arity:2 ~depth:d
  | Random -> Gen.random_connected ~rng ~n ~extra:(n * 3 / 2)
  | Layered ->
      let d = max 1 depth in
      Gen.layered_random ~rng ~depth:d ~width:(max 1 ((n - 1) / d)) ~p:0.3
  | Clusters ->
      let d = max 1 depth in
      Gen.cluster_path ~rng ~clusters:d ~size:(max 1 (n / d)) ~p_intra:0.4
  | Disk -> Gen.unit_disk ~rng ~n ~radius:(1.8 /. sqrt (float_of_int n))

let topo_args =
  let topo =
    Arg.(value & opt topo_conv Random & info [ "topo" ] ~docv:"TOPO"
           ~doc:"Topology: path, cycle, star, grid, tree, random, layered, \
                 clusters or disk.")
  in
  let n =
    Arg.(value & opt int 64 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let depth =
    Arg.(value & opt int 8 & info [ "depth" ] ~docv:"DEPTH"
           ~doc:"Depth parameter for layered/clusters/tree topologies.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  Term.(const build_graph $ topo $ n $ depth $ seed)

let seed_arg =
  Arg.(value & opt int 42 & info [ "run-seed" ] ~docv:"SEED"
         ~doc:"Seed for the protocol's randomness.")

(* ------------------------------------------------------------------ *)
(* Protocol selection — enumerated from the registry, not hand-wired.
   Registering here (module init, before any Term is built) makes the
   [--proto] completions and the --help listing reflect exactly what
   [Protocols.ensure_registered] publishes. *)

module Registry = Rn_radio.Registry

let () = Protocols.ensure_registered ()

let proto_arg ~multi ~default =
  let entries =
    List.filter (fun e -> e.Registry.multi = multi) (Registry.all ())
  in
  (* Enumerate names, not entries: Cmdliner prints enum defaults with
     structural equality, which is undefined on the closures inside
     [Registry.entry]. *)
  let name_enum =
    Arg.enum (List.map (fun e -> (e.Registry.name, e.Registry.name)) entries)
  in
  let doc =
    String.concat " "
      ("Protocol to run:"
      :: List.map
           (fun e -> Printf.sprintf "$(b,%s) (%s)." e.Registry.name e.Registry.summary)
           entries)
  in
  Arg.(value & opt name_enum default & info [ "proto"; "algo" ] ~docv:"PROTO" ~doc)

let entry_of name =
  match Registry.find name with
  | Some e -> e
  | None -> invalid_arg ("rbcast: unregistered protocol " ^ name)

let print_result name (r : Registry.result) =
  Printf.printf "%s: %d rounds delivered=%b" name r.Registry.rounds
    r.Registry.delivered;
  List.iter (fun (key, v) -> Printf.printf " %s=%s" key v) r.Registry.details;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* broadcast *)

(* JSONL trace: one object per retained round, then the run summary. *)
let write_trace path m =
  let oc = open_out path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (Rn_obs.Export.round_jsonl m);
  output_string oc (Rn_obs.Export.summary_json m);
  output_char oc '\n';
  close_out oc;
  Printf.printf "trace: %d round rows + summary -> %s\n"
    (Rn_obs.Metrics.ring_length m) path

let broadcast_cmd =
  let run graph proto seed trace =
    let e = entry_of proto in
    match trace with
    | Some _ when not e.Registry.traceable ->
        (* Rejected before any simulation, so no partial FILE is left. *)
        Printf.eprintf "rbcast: --trace is not supported for --proto %s\n%!"
          e.Registry.name;
        1
    | _ ->
        Printf.printf "n=%d m=%d\n" (Graph.n graph) (Graph.m graph);
        (* One metrics registry per traced run, sized to retain a full run;
           the histogram bins first-receive rounds by the Decay phase
           length. *)
        let metrics =
          Option.map
            (fun _ ->
              Rn_obs.Metrics.create ~phases:1024 ~ring:65536 ~hist_bins:1024
                ~hist_width:(max 1 (Ilog.clog (Graph.n graph)))
                ())
            trace
        in
        let r = e.Registry.run ?metrics ~seed ~graph ~source:0 () in
        print_result e.Registry.name r;
        (match (trace, metrics) with
        | Some path, Some m -> write_trace path m
        | _ -> ());
        0
  in
  let proto = proto_arg ~multi:false ~default:"thm11" in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a per-round JSONL trace (round, phase, tx, deliveries, \
                 collisions; final line is the run summary) to $(docv). \
                 Supported for protocols whose registry entry is traceable \
                 (decay, cr, gst); any other $(b,--proto) is rejected \
                 before running, with exit status 1.")
  in
  Cmd.v
    (Cmd.info "broadcast" ~doc:"Single-message broadcast from node 0.")
    Term.(const run $ topo_args $ proto $ seed_arg $ trace)

(* ------------------------------------------------------------------ *)
(* multi *)

let multi_cmd =
  let run graph proto k seed =
    let e = entry_of proto in
    let r = e.Registry.run ~k ~seed ~graph ~source:0 () in
    print_result e.Registry.name r;
    0
  in
  let proto = proto_arg ~multi:true ~default:"known" in
  let k =
    Arg.(value & opt int 8 & info [ "k"; "messages" ] ~docv:"K" ~doc:"Number of messages.")
  in
  Cmd.v
    (Cmd.info "multi" ~doc:"k-message broadcast from node 0.")
    Term.(const run $ topo_args $ proto $ k $ seed_arg)

(* ------------------------------------------------------------------ *)
(* gst *)

let gst_cmd =
  let run graph distributed pipelined seed =
    let source = 0 in
    if distributed then begin
      let mode =
        if pipelined then Gst_distributed.Pipelined else Gst_distributed.Sequential
      in
      let r =
        Gst_distributed.construct ~mode ~learn_vd:true ~rng:(Rng.create ~seed)
          ~graph ~roots:[| source |] ()
      in
      Printf.printf
        "distributed GST: %d rounds (layering %d, assignment %d, self-test %d, \
         vd %d)\n"
        r.Gst_distributed.total_rounds r.Gst_distributed.layering_rounds
        r.Gst_distributed.assignment_rounds r.Gst_distributed.selftest_rounds
        r.Gst_distributed.vd_rounds;
      (match Gst.validate r.Gst_distributed.gst with
      | Ok () -> Printf.printf "validated: yes\n"
      | Error e -> Printf.printf "INVALID: %s\n" e);
      Printf.printf "max rank=%d overrides=%d\n"
        (Ranked_bfs.max_rank r.Gst_distributed.gst.Gst.ranks)
        (Gst.override_count r.Gst_distributed.gst)
    end
    else begin
      let gst = Gst.build_centralized ~graph ~roots:[| source |] () in
      (match Gst.validate gst with
      | Ok () -> Printf.printf "centralized GST: valid\n"
      | Error e -> Printf.printf "centralized GST INVALID: %s\n" e);
      let vd = Gst.virtual_distances gst in
      Printf.printf "max rank=%d max vd=%d overrides=%d\n"
        (Ranked_bfs.max_rank gst.Gst.ranks)
        (Array.fold_left max 0 vd) (Gst.override_count gst)
    end;
    0
  in
  let distributed =
    Arg.(value & flag & info [ "distributed" ]
           ~doc:"Use the distributed construction (Theorem 2.1).")
  in
  let pipelined =
    Arg.(value & flag & info [ "pipelined" ]
           ~doc:"Pipeline level pairs (with --distributed).")
  in
  Cmd.v
    (Cmd.info "gst" ~doc:"Build a gathering spanning tree rooted at node 0.")
    Term.(const run $ topo_args $ distributed $ pipelined $ seed_arg)

(* ------------------------------------------------------------------ *)
(* estimate *)

let estimate_cmd =
  let run graph =
    let r = Diameter_estimate.run ~graph ~source:0 () in
    Printf.printf
      "eccentricity(0)=%d estimate=%d (2-approximation) in %d rounds\n"
      r.Diameter_estimate.eccentricity r.Diameter_estimate.estimate
      r.Diameter_estimate.rounds;
    0
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Beep-wave diameter 2-approximation from node 0 (footnote 2).")
    Term.(const run $ topo_args)

(* ------------------------------------------------------------------ *)
(* topo *)

let topo_cmd =
  let run graph dot =
    if dot then print_string (Gen.dot graph)
    else begin
      Printf.printf "n=%d m=%d max_degree=%d connected=%b" (Graph.n graph)
        (Graph.m graph) (Graph.max_degree graph) (Bfs.is_connected graph);
      if Bfs.is_connected graph && Graph.n graph > 0 then
        Printf.printf " diameter=%d" (Bfs.diameter graph);
      print_newline ()
    end;
    0
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of a summary.")
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Describe or export a generated topology.")
    Term.(const run $ topo_args $ dot)

(* ------------------------------------------------------------------ *)
(* campaign *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Monotonic clock for campaign timing and worker supervision: wall
   clock steps (NTP, suspend) must not corrupt heartbeat timeouts or
   the stderr profile.  The library stays clock-free — this is the
   injected seam ([~clock] / [io.clock]); Monotonic_clock is bechamel's
   CLOCK_MONOTONIC stub, nanoseconds since an arbitrary origin. *)
let mono_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let campaign_cmd =
  let run spec_path out journal_path resume domains kill_after quiet =
    match Rn_campaign.Spec.parse (read_file spec_path) with
    | Error msg ->
        Printf.eprintf "rbcast campaign: %s\n%!" msg;
        1
    | Ok spec ->
        let journal_path =
          match journal_path with
          | Some p -> p
          | None -> (
              match out with Some o -> o ^ ".journal" | None -> spec_path ^ ".journal")
        in
        let resume_lines =
          if resume && Sys.file_exists journal_path then read_lines journal_path
          else []
        in
        (* The journal is flushed per line, so a SIGKILL loses at most the
           line being written — which resume ignores.  A resumed run
           appends to it; any other run starts it afresh.  The output
           file is rewritten from scratch each run (resume re-emits the
           replayed prefix), keeping it byte-identical to an
           uninterrupted run. *)
        let jc =
          open_out_gen
            [
              Open_wronly; Open_creat;
              (if resume then Open_append else Open_trunc);
            ]
            0o644 journal_path
        in
        let oc = match out with Some p -> open_out p | None -> stdout in
        let t0 = mono_now () in
        let stats =
          Rn_campaign.Campaign.run ?domains
            ~journal:(fun line ->
              output_string jc line;
              output_char jc '\n';
              flush jc)
            ~resume_lines
            ?on_cell:
              (match kill_after with
              | None -> None
              | Some n ->
                  Some
                    (fun ~completed ~total:_ ->
                      if completed >= n then (
                        (* a real, unhandled kill: what CI's crash test
                           relies on to interrupt mid-flight *)
                        flush jc;
                        Unix.kill (Unix.getpid ()) Sys.sigkill)))
            ~clock:mono_now
            ~emit:(fun line ->
              output_string oc line;
              output_char oc '\n';
              flush oc)
            spec
        in
        let wall = mono_now () -. t0 in
        flush jc;
        close_out jc;
        (match out with Some _ -> close_out oc | None -> flush oc);
        if not quiet then begin
          let open Rn_campaign.Campaign in
          Printf.eprintf
            "campaign: %d cells (%d run, %d replayed) in %.2fs — %.1f \
             cells/s, %d steals; gen %.2fs run %.2fs drain %.2fs\n%!"
            stats.cells stats.executed stats.replayed wall
            (float_of_int stats.executed /. max 1e-9 wall)
            stats.steals stats.gen_s stats.run_s stats.drain_s
        end;
        0
  in
  let spec =
    Arg.(
      required
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Campaign spec: JSONL lines {\"topo\":…}, {\"proto\":…}, \
             {\"seeds\":[…]} (see DESIGN.md §14).  Cells are the cross \
             product, each with a stable job key.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Write result JSONL here (default stdout), one line per cell in \
             spec order, streamed as the in-order prefix completes.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Checkpoint journal (default $(b,OUT).journal).  Every finished \
             cell is flushed here immediately; $(b,--resume) replays it and \
             appends, any other run truncates it first.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the journal before running: journaled cells are not \
             re-run, and the output is byte-identical to an uninterrupted \
             run.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Scheduler lane count (default: recommended domain count).  \
             Results never depend on it.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "SIGKILL this process after N cells have been journaled — the \
             crash half of CI's crash/resume smoke test.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the stderr summary.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a sweep campaign: topology cache, work-stealing scheduler, \
          checkpoint/resume.")
    Term.(
      const run $ spec $ out $ journal $ resume $ domains $ kill_after $ quiet)

(* ------------------------------------------------------------------ *)
(* campaign-worker — one shard of a distributed campaign.

   Spawned by campaign-dist with an explicit cell list; runs exactly
   those cells and appends their journal lines (flushed per line) to its
   own shard journal.  It re-reads that journal on start, so a respawn
   after a crash replays instead of re-running.  It emits nothing — the
   coordinator's merge is the only output path. *)

module Dist = Rn_campaign.Dist

let campaign_worker_cmd =
  let run spec_path journal_path cells_str domains =
    match Rn_campaign.Spec.parse (read_file spec_path) with
    | Error msg ->
        Printf.eprintf "rbcast campaign-worker: %s\n%!" msg;
        1
    | Ok spec -> (
        match Dist.cells_of_string cells_str with
        | exception Invalid_argument msg ->
            Printf.eprintf "rbcast campaign-worker: %s\n%!" msg;
            2
        | select ->
            let resume_lines =
              if Sys.file_exists journal_path then read_lines journal_path
              else []
            in
            let jc =
              open_out_gen [ Open_append; Open_creat ] 0o644 journal_path
            in
            let (_ : Rn_campaign.Campaign.stats) =
              Rn_campaign.Campaign.run ~domains ~select ~resume_lines
                ~journal:(fun line ->
                  output_string jc line;
                  output_char jc '\n';
                  flush jc)
                ~clock:mono_now
                ~emit:(fun _ -> ())
                spec
            in
            flush jc;
            close_out jc;
            0)
  in
  let spec =
    Arg.(
      required
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE" ~doc:"Campaign spec (same file as the coordinator's).")
  in
  let journal =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"This shard's append-only journal; replayed on respawn.")
  in
  let cells =
    Arg.(
      required
      & opt (some string) None
      & info [ "cells" ] ~docv:"RANGES"
          ~doc:"Cell indices to run, as compact ranges (e.g. $(b,0-24,31)).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"D"
          ~doc:"Scheduler lanes inside this worker (default 1).")
  in
  Cmd.v
    (Cmd.info "campaign-worker"
       ~doc:
         "Run one shard of a distributed campaign (spawned by \
          $(b,campaign-dist); not normally invoked by hand).")
    Term.(const run $ spec $ journal $ cells $ domains)

(* ------------------------------------------------------------------ *)
(* campaign-dist — coordinator: fan out, supervise, merge. *)

let campaign_dist_cmd =
  let run spec_path out workers retries heartbeat backoff poll worker_domains
      resume chaos chaos_kills quiet =
    match Rn_campaign.Spec.parse (read_file spec_path) with
    | Error msg ->
        Printf.eprintf "rbcast campaign-dist: %s\n%!" msg;
        1
    | Ok spec ->
        let prefix = match out with Some o -> o | None -> spec_path in
        let shard_path s = Printf.sprintf "%s.shard%d.journal" prefix s in
        if not resume then
          for s = 0 to workers - 1 do
            if Sys.file_exists (shard_path s) then Sys.remove (shard_path s)
          done;
        let pids = Array.make workers (-1) in
        let last_status = Array.make workers (Dist.Exited 0) in
        (* SIGINT/SIGTERM: take the workers down with us, then die with
           the conventional 128+signal code.  Shard journals survive for
           a later --resume. *)
        let forward sg =
          Array.iter
            (fun pid ->
              if pid >= 0 then
                try Unix.kill pid Sys.sigkill
                with Unix.Unix_error _ -> ())
            pids;
          exit (128 + sg)
        in
        Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> forward 2));
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> forward 15));
        let reap s =
          if pids.(s) >= 0 then begin
            (match Unix.waitpid [] pids.(s) with
            | _, Unix.WEXITED c -> last_status.(s) <- Dist.Exited c
            | _, Unix.WSIGNALED sg -> last_status.(s) <- Dist.Signaled sg
            | _, Unix.WSTOPPED _ -> ()
            | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                last_status.(s) <- Dist.Exited 0);
            pids.(s) <- -1
          end
        in
        let chaos_rng = Option.map (fun seed -> Rng.create ~seed) chaos in
        let chaos_kills_left = ref chaos_kills in
        let ticks = ref 0 in
        let spawn ~slot ~attempt:_ ~cells =
          reap slot;
          (match chaos_rng with
          | Some rng when Rng.bernoulli rng 0.25 ->
              Printf.eprintf "chaos: delaying spawn of slot %d\n%!" slot;
              Unix.sleepf (Rng.float rng 0.2)
          | _ -> ());
          let argv =
            [|
              Sys.executable_name; "campaign-worker"; "--spec"; spec_path;
              "--journal"; shard_path slot; "--cells";
              Dist.cells_to_string cells; "--domains";
              string_of_int worker_domains;
            |]
          in
          pids.(slot) <-
            Unix.create_process Sys.executable_name argv Unix.stdin
              Unix.stdout Unix.stderr
        in
        let status ~slot =
          if pids.(slot) < 0 then last_status.(slot)
          else
            match Unix.waitpid [ Unix.WNOHANG ] pids.(slot) with
            | 0, _ -> Dist.Running
            | _, Unix.WEXITED c ->
                pids.(slot) <- -1;
                last_status.(slot) <- Dist.Exited c;
                last_status.(slot)
            | _, Unix.WSIGNALED sg ->
                pids.(slot) <- -1;
                last_status.(slot) <- Dist.Signaled sg;
                last_status.(slot)
            | _, Unix.WSTOPPED _ -> Dist.Running
            | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                pids.(slot) <- -1;
                last_status.(slot)
        in
        let kill ~slot =
          if pids.(slot) >= 0 then
            try Unix.kill pids.(slot) Sys.sigkill
            with Unix.Unix_error _ -> ()
        in
        let journal_lines ~slot =
          let p = shard_path slot in
          if Sys.file_exists p then read_lines p else []
        in
        (* Chaos fault injection rides the supervisor's sleep tick:
           SIGKILL a random live worker (preferring one that has already
           journaled, so the kill lands mid-flight), and half the time
           tear a few bytes off its shard journal — a torn final line
           the merge must survive. *)
        let tear rng path =
          match (Unix.stat path).Unix.st_size with
          | size when size > 2 ->
              let cut = 1 + Rng.int rng (min 40 (size - 1)) in
              let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
              Unix.ftruncate fd (size - cut);
              Unix.close fd;
              Printf.eprintf "chaos: tore %d bytes off %s\n%!" cut path
          | _ | (exception Unix.Unix_error _) -> ()
        in
        let sleep dt =
          incr ticks;
          (match chaos_rng with
          | Some rng when !chaos_kills_left > 0 ->
              let live =
                List.filter
                  (fun s -> pids.(s) >= 0)
                  (List.init workers (fun s -> s))
              in
              let journaled =
                List.filter
                  (fun s -> Sys.file_exists (shard_path s))
                  live
              in
              let pool = if journaled <> [] then journaled else live in
              if pool <> [] && (journaled <> [] || !ticks > 5) then begin
                let victim = List.nth pool (Rng.int rng (List.length pool)) in
                decr chaos_kills_left;
                Printf.eprintf "chaos: SIGKILL slot %d (pid %d)\n%!" victim
                  pids.(victim);
                (try Unix.kill pids.(victim) Sys.sigkill
                 with Unix.Unix_error _ -> ());
                if Rng.bool rng && Sys.file_exists (shard_path victim) then
                  tear rng (shard_path victim)
              end
          | _ -> ());
          Unix.sleepf dt
        in
        let io =
          {
            Dist.spawn; status; kill; journal_lines; clock = mono_now; sleep;
          }
        in
        let config =
          {
            Dist.workers; retries; heartbeat_timeout = heartbeat;
            backoff_base = backoff; poll_interval = poll;
          }
        in
        let on_event ev =
          if not quiet then
            match ev with
            | Dist.Spawn { slot; attempt; cells } ->
                Printf.eprintf "dist: spawn slot=%d attempt=%d cells=%d\n%!"
                  slot attempt cells
            | Dist.Progress { slot; completed; total } ->
                Printf.eprintf "dist: progress %d/%d (slot %d)\n%!" completed
                  total slot
            | Dist.Stall { slot; idle } ->
                Printf.eprintf "dist: slot %d stalled %.1fs\n%!" slot idle
            | Dist.Kill { slot } ->
                Printf.eprintf "dist: kill slot=%d\n%!" slot
            | Dist.Crash { slot; attempt; reason } ->
                Printf.eprintf "dist: crash slot=%d attempt=%d (%s)\n%!" slot
                  attempt reason
            | Dist.Backoff { slot; attempt; delay } ->
                Printf.eprintf "dist: backoff slot=%d attempt=%d %.2fs\n%!"
                  slot attempt delay
            | Dist.Retire { slot } ->
                Printf.eprintf "dist: retire slot=%d\n%!" slot
            | Dist.Death { slot; orphans } ->
                Printf.eprintf "dist: slot %d dead, %d cells orphaned\n%!"
                  slot orphans
            | Dist.Reassign { slot; cells } ->
                Printf.eprintf "dist: reassign %d cells -> slot %d\n%!" cells
                  slot
        in
        let t0 = mono_now () in
        let oc = match out with Some p -> open_out p | None -> stdout in
        let emit line =
          output_string oc line;
          output_char oc '\n'
        in
        let r = Dist.run ~on_event ~config ~io ~emit spec in
        (match out with Some _ -> close_out oc | None -> flush oc);
        (match r with
        | Error msg ->
            Printf.eprintf "rbcast campaign-dist: %s\n%!" msg;
            1
        | Ok stats ->
            if not quiet then begin
              let open Dist in
              Printf.eprintf
                "campaign-dist: %d cells via %d workers in %.2fs — %d \
                 spawns, %d crashes, %d killed, %d reassigned; merge: %d \
                 lines (%d torn, %d stale, %d duplicate, %d conflicting)\n%!"
                stats.cells workers
                (mono_now () -. t0)
                stats.sup.spawns stats.sup.crashes stats.sup.kills
                stats.sup.reassigned stats.merge.lines_in stats.merge.torn
                stats.merge.stale stats.merge.duplicates stats.merge.conflicts
            end;
            0)
  in
  let spec =
    Arg.(
      required
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE" ~doc:"Campaign spec (see $(b,campaign)).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Merged result JSONL (default stdout) — byte-identical to a \
             single-process $(b,campaign) run over the same spec.  Shard \
             journals are written next to it as $(docv).shardN.journal.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers"; "w" ] ~docv:"W"
          ~doc:"Worker processes to fan out to.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"R"
          ~doc:"Respawns allowed per worker slot before it is given up on.")
  in
  let heartbeat =
    Arg.(
      value & opt float 60.0
      & info [ "heartbeat-timeout" ] ~docv:"SECS"
          ~doc:
            "Kill a worker whose shard journal has not grown for $(docv) \
             seconds.")
  in
  let backoff =
    Arg.(
      value & opt float 0.5
      & info [ "backoff" ] ~docv:"SECS"
          ~doc:"Respawn delay after the first crash; doubles per attempt.")
  in
  let poll =
    Arg.(
      value & opt float 0.1
      & info [ "poll" ] ~docv:"SECS" ~doc:"Supervisor tick interval.")
  in
  let worker_domains =
    Arg.(
      value & opt int 1
      & info [ "worker-domains" ] ~docv:"D"
          ~doc:"Scheduler lanes inside each worker (default 1).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Keep existing shard journals and resume from them (default: \
             start fresh).")
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Fault injection: randomly SIGKILL workers mid-flight, delay \
             spawns, and tear shard-journal tails, driven by $(docv).  The \
             merged output must still be byte-identical to a clean run.")
  in
  let chaos_kills =
    Arg.(
      value & opt int 1
      & info [ "chaos-kills" ] ~docv:"N"
          ~doc:"Number of worker SIGKILLs to inject (with $(b,--chaos)).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress stderr logging.")
  in
  Cmd.v
    (Cmd.info "campaign-dist"
       ~doc:
         "Distributed campaign: fan out to supervised worker processes, \
          merge their shard journals deterministically.")
    Term.(
      const run $ spec $ out $ workers $ retries $ heartbeat $ backoff $ poll
      $ worker_domains $ resume $ chaos $ chaos_kills $ quiet)

(* ------------------------------------------------------------------ *)
(* campaign-merge — standalone shard-journal merge. *)

let campaign_merge_cmd =
  let run spec_path out shard_paths allow_partial quiet =
    match Rn_campaign.Spec.parse (read_file spec_path) with
    | Error msg ->
        Printf.eprintf "rbcast campaign-merge: %s\n%!" msg;
        1
    | Ok spec ->
        let shards =
          List.map
            (fun p -> if Sys.file_exists p then read_lines p else [])
            shard_paths
        in
        let lines, m = Dist.merge spec shards in
        let oc = match out with Some p -> open_out p | None -> stdout in
        List.iter
          (fun line ->
            output_string oc line;
            output_char oc '\n')
          lines;
        (match out with Some _ -> close_out oc | None -> flush oc);
        if not quiet then
          Printf.eprintf
            "campaign-merge: %d/%d cells from %d shards — %d lines (%d \
             torn, %d stale, %d duplicate, %d conflicting)\n%!"
            (List.length lines)
            (Array.length (Rn_campaign.Spec.cells spec))
            m.Dist.shards m.Dist.lines_in m.Dist.torn m.Dist.stale
            m.Dist.duplicates m.Dist.conflicts;
        (match m.Dist.missing with
        | [] -> 0
        | missing when allow_partial ->
            if not quiet then
              Printf.eprintf "campaign-merge: %d cells missing (allowed)\n%!"
                (List.length missing);
            0
        | missing ->
            Printf.eprintf
              "rbcast campaign-merge: %d cells missing from shard journals\n%!"
              (List.length missing);
            1)
  in
  let spec =
    Arg.(
      required
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"Campaign spec the shards were executed against.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Merged result JSONL (default stdout).")
  in
  let shard_files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SHARD" ~doc:"Shard journal files to merge.")
  in
  let allow_partial =
    Arg.(
      value & flag
      & info [ "allow-partial" ]
          ~doc:"Exit 0 even when some cells have no journal line.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the stderr summary.")
  in
  Cmd.v
    (Cmd.info "campaign-merge"
       ~doc:
         "Deterministically merge shard journals into campaign output \
          (what $(b,campaign-dist) does after supervision).")
    Term.(const run $ spec $ out $ shard_files $ allow_partial $ quiet)

let () =
  let info =
    Cmd.info "rbcast" ~version:"1.0.0"
      ~doc:"Randomized broadcast in radio networks with collision detection"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            broadcast_cmd; multi_cmd; gst_cmd; estimate_cmd; topo_cmd;
            campaign_cmd; campaign_worker_cmd; campaign_dist_cmd;
            campaign_merge_cmd;
          ]))
