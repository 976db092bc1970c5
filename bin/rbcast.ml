(* rbcast — command-line driver for the radio-broadcast library.

   Subcommands:
     rbcast broadcast  single-message broadcast with a chosen algorithm
     rbcast multi      k-message broadcast (Theorems 1.2 / 1.3, baselines)
     rbcast gst        build a GST (centralized or distributed) and report
     rbcast topo       describe or export a generated topology
     rbcast campaign   run a sweep campaign in this process (--workers 0)
                       or over W supervised worker processes (--workers W)
     rbcast campaign-dist    campaign with --workers defaulting to 2
     rbcast campaign-worker  one shard of a fan-out campaign (internal) *)

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
(* campaign — one front end, two modes.

   [--workers 0] (the default) runs [Campaign.run] in this process.
   [--workers W >= 1] runs [Dist.run] over W supervised campaign-worker
   children, one shard journal each, and merges the shard journals; a
   [--resume] over complete shard journals spawns nothing and is the
   merge on its own.  Spec parsing, usage checks, the output channel and
   the stderr summary are shared by both modes. *)

module Campaign = Rn_campaign.Campaign
module Dist = Rn_campaign.Dist

let read_file path = In_channel.with_open_bin path In_channel.input_all
let read_lines path = In_channel.with_open_text path In_channel.input_lines

(* Monotonic clock for campaign timing and worker supervision: wall
   clock steps (NTP, suspend) must not corrupt heartbeat timeouts or
   the stderr profile.  The library stays clock-free — this is the
   injected seam ([~clock] / [io.clock]); Monotonic_clock is bechamel's
   CLOCK_MONOTONIC stub, nanoseconds since an arbitrary origin. *)
let mono_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The in-process path, also the body of campaign-worker.  The journal
   is flushed per line, so a SIGKILL loses at most the line being
   written — which resume ignores.  A resumed run appends to it; any
   other run starts it afresh.  [kill_after n] SIGKILLs this process
   right after the n-th line journaled this session: a real, unhandled
   kill for the crash half of the crash/resume test. *)
let run_local ?domains ?select ?kill_after ~resume ~journal_path ~emit spec =
  let resume_lines =
    if resume && Sys.file_exists journal_path then read_lines journal_path
    else []
  in
  let jc =
    open_out_gen
      [ Open_wronly; Open_creat; (if resume then Open_append else Open_trunc) ]
      0o644 journal_path
  in
  let journaled = ref 0 in
  let journal line =
    output_string jc line;
    output_char jc '\n';
    flush jc;
    incr journaled;
    match kill_after with
    | Some n when !journaled >= n -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()
  in
  Fun.protect ~finally:(fun () -> close_out jc) @@ fun () ->
  Campaign.run ?domains ?select ~journal ~resume_lines ~clock:mono_now ~emit spec

(* The real [Dist.io]: slot [s]'s child is the process [argv ~slot
   ~cells], journaling to [shard s].  SIGINT/SIGTERM take the children
   down too, then exit with the conventional 128+signal code; shard
   journals survive for a later --resume. *)
let process_io ~workers ~shard ~argv =
  let pids = Array.make workers (-1) in
  let last = Array.make workers (Dist.Exited 0) in
  let kill ~slot =
    if pids.(slot) >= 0 then
      try Unix.kill pids.(slot) Sys.sigkill with Unix.Unix_error _ -> ()
  in
  let forward sg =
    Array.iteri (fun slot _ -> kill ~slot) pids;
    exit (128 + sg)
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> forward 2));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> forward 15));
  (* Reap the slot's child if it has terminated; [[]] blocks until it
     has. *)
  let wait flags slot =
    if pids.(slot) >= 0 then
      match Unix.waitpid flags pids.(slot) with
      | 0, _ | _, Unix.WSTOPPED _ -> ()
      | _, Unix.WEXITED c ->
          pids.(slot) <- -1;
          last.(slot) <- Dist.Exited c
      | _, Unix.WSIGNALED sg ->
          pids.(slot) <- -1;
          last.(slot) <- Dist.Signaled sg
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> pids.(slot) <- -1
  in
  {
    Dist.spawn =
      (fun ~slot ~attempt:_ ~cells ->
        wait [] slot;
        let argv = argv ~slot ~cells in
        pids.(slot) <-
          Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr);
    status =
      (fun ~slot ->
        wait [ Unix.WNOHANG ] slot;
        if pids.(slot) >= 0 then Dist.Running else last.(slot));
    kill;
    journal_lines =
      (fun ~slot ->
        let p = shard slot in
        if Sys.file_exists p then read_lines p else []);
    clock = mono_now;
    sleep = Unix.sleepf;
  }

(* --chaos: fault injection around a real [io].  A quarter of spawns are
   delayed.  On one supervisor tick a live worker — preferably one that
   has started journaling, so the kill lands mid-flight — is SIGKILLed,
   and half the time a few bytes are torn off its shard journal.  Live
   means spawned and not yet reported gone by [status]: a victim that
   already exited unobserved is turned into a crash by the torn tail. *)
let chaos ~seed ~workers ~shard (io : Dist.io) =
  let rng = Rng.create ~seed in
  let armed = ref true and ticks = ref 0 in
  let alive = Array.make workers false in
  let tear path =
    match (Unix.stat path).Unix.st_size with
    | size when size > 2 ->
        let cut = 1 + Rng.int rng (min 40 (size - 1)) in
        Unix.truncate path (size - cut);
        Printf.eprintf "chaos: tore %d bytes off %s\n%!" cut path
    | _ | (exception Unix.Unix_error _) -> ()
  in
  let spawn ~slot ~attempt ~cells =
    if Rng.bernoulli rng 0.25 then begin
      Printf.eprintf "chaos: delaying spawn of slot %d\n%!" slot;
      Unix.sleepf (Rng.float rng 0.2)
    end;
    io.spawn ~slot ~attempt ~cells;
    alive.(slot) <- true
  in
  let status ~slot =
    let st = io.status ~slot in
    (match st with Dist.Running -> () | _ -> alive.(slot) <- false);
    st
  in
  let sleep dt =
    incr ticks;
    if !armed then begin
      let live = List.filter (Array.get alive) (List.init workers Fun.id) in
      let journaled = List.filter (fun s -> Sys.file_exists (shard s)) live in
      let pool = if journaled <> [] then journaled else live in
      if pool <> [] && (journaled <> [] || !ticks > 5) then begin
        let victim = List.nth pool (Rng.int rng (List.length pool)) in
        armed := false;
        Printf.eprintf "chaos: SIGKILL slot %d\n%!" victim;
        io.kill ~slot:victim;
        if Rng.bool rng then tear (shard victim)
      end
    end;
    io.sleep dt
  in
  { io with spawn; status; sleep }

let print_event ev =
  prerr_endline
    ("dist: "
    ^
    match ev with
    | Dist.Spawn { slot; attempt; cells } ->
        Printf.sprintf "spawn slot=%d attempt=%d cells=%d" slot attempt cells
    | Dist.Progress { slot; completed; total } ->
        Printf.sprintf "progress %d/%d (slot %d)" completed total slot
    | Dist.Stall { slot; idle } -> Printf.sprintf "slot %d stalled %.1fs" slot idle
    | Dist.Kill { slot } -> Printf.sprintf "kill slot=%d" slot
    | Dist.Crash { slot; attempt; reason } ->
        Printf.sprintf "crash slot=%d attempt=%d (%s)" slot attempt reason
    | Dist.Backoff { slot; attempt; delay } ->
        Printf.sprintf "backoff slot=%d attempt=%d %.2fs" slot attempt delay
    | Dist.Retire { slot } -> Printf.sprintf "retire slot=%d" slot
    | Dist.Death { slot; orphans } ->
        Printf.sprintf "slot %d dead, %d cells orphaned" slot orphans
    | Dist.Reassign { slot; cells } ->
        Printf.sprintf "reassign %d cells -> slot %d" cells slot)

type outcome = Local of Campaign.stats | Fanout of Dist.stats

let summary ~workers wall = function
  | Local s ->
      Printf.sprintf
        "campaign: %d cells (%d run, %d replayed) in %.2fs — %.1f cells/s, %d \
         steals; gen %.2fs run %.2fs drain %.2fs"
        s.cells s.executed s.replayed wall
        (float_of_int s.executed /. max 1e-9 wall)
        s.steals s.gen_s s.run_s s.drain_s
  | Fanout s ->
      Printf.sprintf
        "campaign: %d cells via %d workers in %.2fs — %d spawns, %d crashes, \
         %d killed, %d reassigned; merge: %d lines (%d torn, %d stale, %d \
         duplicate, %d conflicting)"
        s.cells workers wall s.sup.spawns s.sup.crashes s.sup.kills
        s.sup.reassigned s.merge.lines_in s.merge.torn s.merge.stale
        s.merge.duplicates s.merge.conflicts

let campaign_run (spec_path, spec) out journal resume domains kill_after quiet
    workers (r_flag, retries) (h_flag, heartbeat) (b_flag, backoff)
    (p_flag, poll) chaos_seed =
  (* Usage errors: out-of-range counts, and flags the chosen mode would
     otherwise silently ignore.  Checked before any journal is touched or
     any output opened. *)
  let below flag min = function
    | Some v when v < min -> [ Printf.sprintf "%s must be >= %d" flag min ]
    | _ -> []
  in
  let given flag o = if Option.is_some o then [ flag ] else [] in
  let misplaced, needs =
    if workers > 0 then
      (given "--journal" journal @ given "--kill-after" kill_after, "--workers 0")
    else
      (r_flag @ h_flag @ b_flag @ p_flag @ given "--chaos" chaos_seed,
       "--workers >= 1")
  in
  match
    below "--workers" 0 (Some workers)
    @ below "--domains" 1 domains @ below "--retries" 0 (Some retries)
    @ below "--kill-after" 1 kill_after
    @ List.map (fun f -> Printf.sprintf "%s needs %s" f needs) misplaced
  with
  | msg :: _ ->
      Printf.eprintf "rbcast campaign: %s\n%!" msg;
      Cmd.Exit.cli_error
  | [] -> (
      let prefix = Option.value out ~default:spec_path in
      (* Opened on the first line, so a run that fails before emitting
         anything leaves an earlier FILE as it was. *)
      let oc = lazy (match out with Some p -> open_out p | None -> stdout) in
      let emit line =
        let oc = Lazy.force oc in
        output_string oc line;
        output_char oc '\n';
        (* in-process lines stream out as the in-order prefix grows *)
        if workers = 0 then flush oc
      in
      let t0 = mono_now () in
      let result =
        if workers = 0 then
          let journal_path = Option.value journal ~default:(prefix ^ ".journal") in
          Ok (Local (run_local ?domains ?kill_after ~resume ~journal_path ~emit spec))
        else begin
          let shard s = Printf.sprintf "%s.shard%d.journal" prefix s in
          if not resume then
            for s = 0 to workers - 1 do
              if Sys.file_exists (shard s) then Sys.remove (shard s)
            done;
          let domains = Option.value domains ~default:1 in
          let argv ~slot ~cells =
            [|
              Sys.executable_name; "campaign-worker"; "--spec"; spec_path;
              "--journal"; shard slot; "--cells"; Dist.cells_to_string cells;
              "--domains"; string_of_int domains;
            |]
          in
          let io = process_io ~workers ~shard ~argv in
          let io =
            match chaos_seed with
            | Some seed -> chaos ~seed ~workers ~shard io
            | None -> io
          in
          let config =
            {
              Dist.workers; retries; heartbeat_timeout = heartbeat;
              backoff_base = backoff; poll_interval = poll;
            }
          in
          Dist.run
            ~on_event:(if quiet then ignore else print_event)
            ~config ~io ~emit spec
          |> Result.map (fun s -> Fanout s)
        end
      in
      match result with
      | Error msg ->
          Printf.eprintf "rbcast campaign: %s\n%!" msg;
          1
      | Ok outcome ->
          let oc = Lazy.force oc in
          if Option.is_some out then close_out oc else flush oc;
          if not quiet then prerr_endline (summary ~workers (mono_now () -. t0) outcome);
          0)

let spec_arg =
  let parse path =
    match Rn_campaign.Spec.parse (read_file path) with
    | Ok spec -> Ok (path, spec)
    | Error msg | (exception Sys_error msg) -> Error (`Msg msg)
  in
  let print ppf (path, _) = Format.pp_print_string ppf path in
  Arg.(
    required
    & opt (some (conv (parse, print))) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:
          "Campaign spec: JSONL lines {\"topo\":…}, {\"proto\":…}, \
           {\"seeds\":[…]} (see DESIGN.md §14).  Cells are the cross product, \
           each with a stable job key.")

let domains_arg ~doc =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"D" ~doc)

let campaign_term ~workers =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Result JSONL (default stdout), one line per cell in spec order, \
             the same bytes in either mode; a failed fan-out leaves it as it \
             was.  Journals default to $(docv).journal or $(docv).shardN.journal.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "In-process checkpoint journal (default $(b,OUT).journal).  Every \
             finished cell is flushed here immediately; $(b,--resume) replays \
             it and appends, any other run truncates it first.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the journal (or shard journals) first: journaled cells are \
             not re-run, and the output is byte-identical to an uninterrupted \
             run.  Over complete shard journals this only merges.")
  in
  let domains =
    domains_arg
      ~doc:
        "Scheduler lanes per process (default: the recommended domain count \
         in-process, 1 per worker).  Results never depend on it."
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "SIGKILL this process right after journaling the N-th cell (N >= \
             1): the crash half of a crash/resume test.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ]
          ~doc:"Suppress the stderr summary and supervisor events.")
  in
  let workers =
    Arg.(
      value & opt int workers
      & info [ "workers"; "w" ] ~docv:"W"
          ~doc:
            "Worker processes: 0 runs the campaign in this process; W >= 1 \
             fans its cells out to W supervised $(b,campaign-worker) \
             children and merges their shard journals.")
  in
  (* A supervisor setting: its flag if given (an in-process run rejects
     it rather than ignoring it), and its value. *)
  let setting kind long ~default ~docv ~doc =
    let pick v =
      (Option.fold v ~none:[] ~some:(fun _ -> [ "--" ^ long ]),
       Option.value v ~default)
    in
    Term.(
      const pick
      $ Arg.(value & opt (some' ~none:default kind) None & info [ long ] ~docv ~doc))
  in
  let retries =
    setting Arg.int "retries" ~default:2 ~docv:"R"
      ~doc:"Respawns allowed per worker slot before it is given up on."
  in
  let heartbeat =
    setting Arg.float "heartbeat-timeout" ~default:60. ~docv:"SECS"
      ~doc:"Kill a worker whose shard journal has not grown for $(docv) seconds."
  in
  let backoff =
    setting Arg.float "backoff" ~default:0.5 ~docv:"SECS"
      ~doc:"Respawn delay after the first crash; doubles per attempt."
  in
  let poll =
    setting Arg.float "poll" ~default:0.1 ~docv:"SECS"
      ~doc:"Supervisor tick interval."
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Fault injection driven by $(docv): delay spawns, SIGKILL one \
             worker mid-flight and maybe tear its shard-journal tail.  The \
             output must still be byte-identical to a clean run.")
  in
  Term.(
    const campaign_run $ spec_arg $ out $ journal $ resume $ domains
    $ kill_after $ quiet $ workers $ retries $ heartbeat $ backoff $ poll
    $ chaos)

let campaign_cmd name ~workers ~doc =
  Cmd.v (Cmd.info name ~doc) (campaign_term ~workers)

(* campaign-worker — one shard of a fan-out run: the in-process path over
   an explicit cell list, always resuming from (and appending to) its own
   shard journal, emitting nothing. *)
let campaign_worker_cmd =
  let run (_, spec) journal_path cells domains =
    match Dist.cells_of_string cells with
    | exception Invalid_argument msg ->
        Printf.eprintf "rbcast campaign-worker: %s\n%!" msg;
        2
    | select ->
        let (_ : Campaign.stats) =
          run_local ~domains:(Option.value domains ~default:1) ~select
            ~resume:true ~journal_path ~emit:ignore spec
        in
        0
  in
  let required_string name ~docv ~doc =
    Arg.(required & opt (some string) None & info [ name ] ~docv ~doc)
  in
  let journal =
    required_string "journal" ~docv:"FILE"
      ~doc:"This shard's append-only journal; replayed on respawn."
  in
  let cells =
    required_string "cells" ~docv:"RANGES"
      ~doc:"Cell indices to run, as compact ranges (e.g. $(b,0-24,31))."
  in
  let domains = domains_arg ~doc:"Scheduler lanes in this worker (default 1)." in
  Cmd.v
    (Cmd.info "campaign-worker"
       ~doc:
         "Run one shard of a fan-out campaign (spawned by $(b,campaign \
          --workers); not normally invoked by hand).")
    Term.(const run $ spec_arg $ journal $ cells $ domains)

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
            campaign_cmd "campaign" ~workers:0
              ~doc:
                "Run a sweep campaign: topology cache, work-stealing \
                 scheduler, checkpoint/resume, in this process or over \
                 supervised workers.";
            campaign_cmd "campaign-dist" ~workers:2
              ~doc:"$(b,campaign) with $(b,--workers) defaulting to 2.";
            campaign_worker_cmd;
          ]))
