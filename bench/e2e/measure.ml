(* One benchmark run of one workload: set-up, the measured loop, the
   output checks and, when traced, the per-layer probes.  Everything is
   timed from outside the simulator: around calls into public functions,
   through the seams the library already has (Campaign.run ?clock,
   Dist.io), or around a whole rbcast process. *)

open Rn_campaign
module Engine = Rn_radio.Engine
module Registry = Rn_radio.Registry

external maxrss_kb : int -> int = "rbbench_maxrss_kb" [@@noalloc]

(* bechamel's CLOCK_MONOTONIC stub, the clock bin/rbcast uses. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let end_to_end =
  [
    ("setup_s", "s");
    ("cells_per_s", "cells/s");
    ("protocol_rounds_per_s", "rounds/s");
    ("peak_rss_mb", "MB");
  ]

(* Needs the registry filled ([Protocols.ensure_registered]). *)
let per_layer () =
  [
    ("gen.calls", "count"); ("gen.busy_s", "s"); ("gen.edges", "count");
    ("spec.parse_s", "s"); ("spec.cells", "count"); ("spec.instances", "count");
  ]
  @ List.concat_map
      (fun p ->
        [
          ("proto." ^ p ^ ".calls", "count");
          ("proto." ^ p ^ ".busy_s", "s");
          ("proto." ^ p ^ ".rounds", "rounds");
        ])
      (Registry.names ())
  @ [
      ("engine.sim_rounds", "rounds"); ("engine.skipped_rounds", "rounds");
      ("engine.skip_frac", "ratio"); ("engine.sim_rounds_per_s", "rounds/s");
      ("engine.transmissions", "count"); ("engine.deliveries", "count");
      ("engine.collisions", "count"); ("engine.deliveries_per_tx", "ratio");
      ("obs.metrics_overhead_frac", "ratio"); ("obs.phases", "count");
      ("gc.minor_words_per_round", "words"); ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MB");
      ("campaign.wall_s", "s"); ("campaign.gen_s", "s"); ("campaign.run_s", "s");
      ("campaign.drain_s", "s"); ("campaign.steals", "count");
      ("campaign.lane_util", "ratio"); ("campaign.cell_ms_p50", "ms");
      ("campaign.cell_ms_p99", "ms");
      ("journal.lines", "count"); ("journal.bytes", "bytes");
      ("journal.parse_s", "s"); ("journal.replay_s", "s");
      ("dist.spawns", "count"); ("dist.polls", "count");
      ("dist.poll_read_s", "s"); ("dist.lines_reread", "count");
      ("dist.sleep_s", "s"); ("dist.finish_skew_s", "s"); ("dist.merge_s", "s");
      ("cli.overhead_s", "s"); ("trace.overhead_frac", "ratio");
    ]

type config = {
  root : string;  (** checkout root: specs are read relative to it *)
  rbcast : string;  (** the built rbcast executable *)
  workdir : string;  (** scratch directory for CLI inputs and outputs *)
  seed : int;
  seconds : float;  (** length of the measured loop *)
  trace : bool;
  smoke : bool;  (** run the few-cell smoke specs *)
  corrupt : bool;  (** flip a byte of the first output: the gate must fire *)
}

type outcome = {
  output_ok : bool;  (** every output scanned clean and matched its reference *)
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
      (** end-to-end untraced, per-layer traced: name, value, unit *)
  report : string list;
  spans : Spans.t option;
}

(* --- output checks ------------------------------------------------- *)

(* Every output of a run must scan clean and have the same digest: the
   pinned one at --seed 1, otherwise that of the first output produced.
   Any failure clears [output_ok]. *)
type check = {
  spec : Spec.t;
  mutable reference : string option;
  mutable corrupt_next : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable output_ok : bool;
  mutable report : string list;  (** newest first *)
}

let note ck fmt = Printf.ksprintf (fun s -> ck.report <- s :: ck.report) fmt

let verify ck ~what out =
  let out =
    if ck.corrupt_next then begin
      ck.corrupt_next <- false;
      Workloads.corrupt out
    end
    else out
  in
  let s = Workloads.scan ck.spec out in
  ck.attempted <- ck.attempted + s.cells;
  ck.failed <- ck.failed + s.bad;
  if s.bad > 0 then begin
    ck.output_ok <- false;
    note ck "%s: %d of %d cells failed" what s.bad s.cells
  end;
  let d = Workloads.digest out in
  (match ck.reference with
  | None -> ck.reference <- Some d
  | Some r when String.equal r d -> ()
  | Some r ->
      ck.output_ok <- false;
      note ck "%s: output md5 %s, expected %s" what d r);
  s

let lost ck ~what =
  let n = Array.length (Spec.cells ck.spec) in
  ck.attempted <- ck.attempted + n;
  ck.failed <- ck.failed + n;
  ck.output_ok <- false;
  note ck "%s: rbcast failed" what

(* --- helpers -------------------------------------------------------- *)

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

(* Run a process to completion with its output on our stderr, so that the
   result line stays the last line of stdout.  Returns (wall, success). *)
let run_process argv =
  let t0 = now () in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stderr Unix.stderr
  in
  let _, st = waitpid [] pid in
  (now () -. t0, match st with Unix.WEXITED 0 -> true | _ -> false)

(* Run [op] until the next run would overrun [seconds]; at least once. *)
let repeat ~seconds op =
  let t0 = now () in
  let rec go acc count last =
    if count > 0 && now () -. t0 +. last > seconds then List.rev acc
    else
      let t = now () in
      let r = op () in
      go (r :: acc) (count + 1) (now () -. t)
  in
  go [] 0 0.

let median_of l =
  match l with [] -> 0. | _ -> Rn_util.Stats.median (Array.of_list l)
let ratio a b = if b > 0. && Float.is_finite b then a /. b else 0.

let read_file p = In_channel.with_open_bin p In_channel.input_all

let read_lines path =
  if Sys.file_exists path then Workloads.lines (read_file path) else []

(* --- in-process pieces ---------------------------------------------- *)

type setup = { parse_s : float; gen_s : float; edges : int; instances : int }

(* What a user of the library does before the first broadcast: parse the
   spec and generate its topologies. *)
let setup spans text =
  Spans.record spans "setup" (fun () ->
      let t0 = now () in
      let spec =
        Spans.record spans "spec.parse" (fun () ->
            match Spec.parse text with
            | Ok s -> s
            | Error e -> failwith ("spec: " ^ e))
      in
      let t1 = now () in
      let insts = Spec.instances spec in
      let edges =
        Array.fold_left
          (fun acc inst ->
            acc
            + Rn_graph.Graph.m
                (Spans.record spans "gen.build" (fun () -> Spec.build inst)))
          0 insts
      in
      {
        parse_s = t1 -. t0;
        gen_s = now () -. t1;
        edges;
        instances = Array.length insts;
      })

let pass ?journal ?resume_lines ~lanes spec =
  let b = Buffer.create 65536 in
  let t0 = now () in
  let stats =
    Campaign.run ~domains:lanes ?journal ?resume_lines ~clock:now
      ~emit:(fun l ->
        Buffer.add_string b l;
        Buffer.add_char b '\n')
      spec
  in
  (Buffer.contents b, stats, now () -. t0)

(* --- the measured loop ---------------------------------------------- *)

type measured = {
  e2e : (string * float) list;
  op_s : float;  (** median untraced operation: a broadcast, or a CLI run *)
  setups : setup list;  (** in-process set-ups; [] for the CLI workloads *)
}

(* On a shared host, contention only ever slows a run down, in episodes
   lasting seconds.  So each repetition of the workload (a pass, or an
   rbcast run) comes with [reps] set-ups, spreading the set-up samples over
   the whole run, and throughput is taken from the fastest repetition (per
   cell in-process, per run for the CLI): the steadiest estimate of the
   uncontended cost. *)
let in_process_loop cfg ck ~spans ~lanes ~reps text =
  let cells = Array.length (Spec.cells ck.spec) in
  let reps_and_passes =
    repeat ~seconds:cfg.seconds (fun () ->
        let ss =
          List.init reps (fun _ ->
              Gc.full_major ();
              setup spans text)
        in
        Gc.full_major ();
        let out, st, _ =
          Spans.record spans "campaign.pass" (fun () -> pass ~lanes ck.spec)
        in
        ignore (verify ck ~what:"pass" out);
        (ss, st))
  in
  let setups = List.concat_map fst reps_and_passes in
  let passes = List.map snd reps_and_passes in
  let best = Array.make cells infinity and rounds = Array.make cells 0 in
  let walls = ref [] in
  List.iter
    (fun (st : Campaign.stats) ->
      Array.iteri
        (fun i w ->
          walls := w :: !walls;
          best.(i) <- Float.min best.(i) w;
          rounds.(i) <- st.cell_rounds.(i))
        st.cell_wall)
    passes;
  let setup_s = median_of (List.map (fun s -> s.parse_s +. s.gen_s) setups) in
  let s0 = List.hd setups in
  note ck "setup_s: median of %d set-ups (parse + %d instance(s), %d edges)"
    (List.length setups) s0.instances s0.edges;
  note ck "measured: %d pass(es) of %d broadcasts, 1 lane; best pass per broadcast"
    (List.length passes) cells;
  let n = List.length !walls in
  note ck "broadcast wall: p50 %.4fs over %d samples%s" (median_of !walls) n
    (match Stat.tail_percentile n with
    | Some p ->
        Printf.sprintf ", p%g %.4fs" p
          (Rn_util.Stats.percentile (Array.of_list !walls) p)
    | None -> " (too few samples for a tail percentile)");
  {
    e2e =
      [
        ("setup_s", setup_s);
        ( "cells_per_s",
          ratio (float_of_int cells) (Array.fold_left ( +. ) 0. best) );
        ( "protocol_rounds_per_s",
          median_of
            (Array.to_list
               (Array.mapi (fun i w -> ratio (float_of_int rounds.(i)) w) best))
        );
        ("peak_rss_mb", float_of_int (maxrss_kb 0) /. 1024.);
      ];
    op_s = median_of !walls;
    setups;
  }

let spec_path cfg = Filename.concat cfg.workdir "spec.jsonl"
let out_path cfg = Filename.concat cfg.workdir "out.jsonl"

(* [rbcast campaign] writes [out] and [journal]; [campaign-dist] writes
   [out] and the shard journals [out].shardN.journal beside it. *)
let cli_argv cfg (w : Workloads.t) ~out ~journal ~resume =
  Array.of_list
    ((match w.runner with
     | Workloads.Dist_cli ->
         [ cfg.rbcast; "campaign-dist"; "--spec"; spec_path cfg; "-o"; out ]
     | _ ->
         [
           cfg.rbcast; "campaign"; "--spec"; spec_path cfg; "-o"; out;
           "--journal"; journal; "--domains"; "2";
         ])
    @ ("-q" :: (if resume then [ "--resume" ] else [])))

let cli cfg ck (w : Workloads.t) ~spans ~reps =
  let cells = Array.length (Spec.cells ck.spec) in
  let out = out_path cfg in
  let journal = out ^ ".journal" in
  (* campaign-dist resumes from the shard journals named after its output *)
  let resumed =
    match w.runner with Workloads.Dist_cli -> out | _ -> out ^ ".resumed"
  in
  let invoke ~resume =
    let what = if resume then "resume" else "run" in
    if (not resume) && Sys.file_exists journal then Sys.remove journal;
    let file = if resume then resumed else out in
    let wall, ok =
      Spans.record spans ("cli." ^ what) (fun () ->
          run_process (cli_argv cfg w ~out:file ~journal ~resume))
    in
    if ok && Sys.file_exists file then
      Some (wall, verify ck ~what (read_file file))
    else begin
      lost ck ~what;
      None
    end
  in
  let reps_and_runs =
    repeat ~seconds:cfg.seconds (fun () ->
        match invoke ~resume:false with
        | Some r ->
            ( List.filter_map Fun.id
                (List.init reps (fun _ -> invoke ~resume:true)),
              Some r )
        | None -> ([], None))
  in
  let resumes = List.concat_map fst reps_and_runs in
  let runs = List.filter_map snd reps_and_runs in
  note ck "setup_s: median of %d `--resume` runs against a complete journal"
    (List.length resumes);
  note ck "measured: %d rbcast run(s) of %d cells, 2 lanes; best run"
    (List.length runs) cells;
  let walls = List.map fst runs in
  let best = List.fold_left Float.min infinity walls in
  let rounds =
    match runs with (_, (s : Workloads.scan)) :: _ -> s.rounds | [] -> 0
  in
  {
    e2e =
      [
        ("setup_s", median_of (List.map fst resumes));
        ("cells_per_s", ratio (float_of_int cells) best);
        ("protocol_rounds_per_s", ratio (float_of_int rounds) best);
        ("peak_rss_mb", float_of_int (maxrss_kb 1) /. 1024.);
      ];
    op_s = median_of walls;
    setups = [];
  }

(* --- traced probes -------------------------------------------------- *)

(* [Dist.run]'s two halves driven in-process through a timing [io] that
   spawns the same campaign-worker argv as `rbcast campaign-dist`, with
   the CLI's default supervisor settings. *)
let dist_probe cfg ck ~spans set =
  let workers = 2 in
  let prefix = Filename.concat cfg.workdir "dist.jsonl" in
  let shard s = Printf.sprintf "%s.shard%d.journal" prefix s in
  let pids = Array.make workers (-1) in
  let last = Array.make workers (Dist.Exited 0) in
  let finished = Array.make workers nan in
  let spawns = ref 0 and polls = ref 0 and lines = ref 0 in
  let read_s = ref 0. and sleep_s = ref 0. in
  let exited slot st =
    pids.(slot) <- -1;
    last.(slot) <- st;
    finished.(slot) <- now ();
    st
  in
  let reap slot =
    if pids.(slot) >= 0 then
      match waitpid [] pids.(slot) with
      | _, Unix.WEXITED c -> ignore (exited slot (Dist.Exited c))
      | _, (Unix.WSIGNALED sg | Unix.WSTOPPED sg) ->
          ignore (exited slot (Dist.Signaled sg))
  in
  let kill ~slot =
    if pids.(slot) >= 0 then
      try Unix.kill pids.(slot) Sys.sigkill with Unix.Unix_error _ -> ()
  in
  let io =
    {
      Dist.spawn =
        (fun ~slot ~attempt:_ ~cells ->
          Spans.record spans "dist.spawn" (fun () ->
              reap slot;
              incr spawns;
              pids.(slot) <-
                Unix.create_process cfg.rbcast
                  [|
                    cfg.rbcast; "campaign-worker"; "--spec"; spec_path cfg;
                    "--journal"; shard slot; "--cells";
                    Dist.cells_to_string cells; "--domains"; "1";
                  |]
                  Unix.stdin Unix.stderr Unix.stderr));
      status =
        (fun ~slot ->
          if pids.(slot) < 0 then last.(slot)
          else
            match waitpid [ Unix.WNOHANG ] pids.(slot) with
            | 0, _ -> Dist.Running
            | _, Unix.WEXITED c -> exited slot (Dist.Exited c)
            | _, Unix.WSIGNALED sg -> exited slot (Dist.Signaled sg)
            | _, Unix.WSTOPPED _ -> Dist.Running);
      kill;
      journal_lines =
        (fun ~slot ->
          Spans.record spans "dist.poll" (fun () ->
              let t = now () in
              let l = read_lines (shard slot) in
              incr polls;
              lines := !lines + List.length l;
              read_s := !read_s +. (now () -. t);
              l));
      clock = now;
      sleep =
        (fun dt ->
          Spans.record spans "dist.sleep" (fun () ->
              let t = now () in
              Unix.sleepf dt;
              sleep_s := !sleep_s +. (now () -. t)));
    }
  in
  let config =
    {
      Dist.workers;
      retries = 2;
      heartbeat_timeout = 60.;
      backoff_base = 0.5;
      poll_interval = 0.1;
    }
  in
  let t0 = now () in
  let merged, merge_s =
    Fun.protect
      ~finally:(fun () ->
        Array.iteri
          (fun slot _ ->
            kill ~slot;
            reap slot)
          pids)
      (fun () ->
        Spans.record spans "dist.run" (fun () ->
            match Dist.supervise ~config ~io ck.spec with
            | Error e ->
                note ck "in-process Dist: %s" e;
                (None, 0.)
            | Ok _ ->
                let tm = now () in
                let out, m =
                  Spans.record spans "dist.merge" (fun () ->
                      Dist.merge ck.spec
                        (List.init workers (fun s -> read_lines (shard s))))
                in
                let merge_s = now () -. tm in
                match m.Dist.missing with
                | [] ->
                    ( Some (String.concat "" (List.map (fun l -> l ^ "\n") out)),
                      merge_s )
                | _ :: _ -> (None, merge_s)))
  in
  let wall = now () -. t0 in
  (match merged with
  | Some out -> ignore (verify ck ~what:"in-process Dist" out)
  | None -> lost ck ~what:"in-process Dist");
  let done_at =
    List.filter (fun t -> not (Float.is_nan t)) (Array.to_list finished)
  in
  set "dist.spawns" (float_of_int !spawns);
  set "dist.polls" (float_of_int !polls);
  set "dist.poll_read_s" !read_s;
  set "dist.lines_reread" (float_of_int !lines);
  set "dist.sleep_s" !sleep_s;
  set "dist.finish_skew_s"
    (match done_at with
    | [] -> 0.
    | t :: rest ->
        List.fold_left Float.max t rest -. List.fold_left Float.min t rest);
  set "dist.merge_s" merge_s;
  wall

(* Metrics-recording cost: up to four cells of protocols that forward
   [?metrics], each run without and then with a registry attached. *)
let obs_probe ~spans spec set =
  let insts = Spec.instances spec in
  let picked =
    Spec.cells spec |> Array.to_list
    |> List.filter (fun (c : Spec.cell) ->
           match Registry.find c.proto with
           | Some e -> e.Registry.traceable
           | None -> false)
    |> List.filteri (fun i _ -> i < 4)
  in
  let graphs = Hashtbl.create 4 in
  let plain = ref 0. and metered = ref 0. and phases = ref 0 in
  Spans.record spans "obs.probe" (fun () ->
      List.iter
        (fun (c : Spec.cell) ->
          let e = Option.get (Registry.find c.proto) in
          let graph =
            match Hashtbl.find_opt graphs c.topo with
            | Some g -> g
            | None ->
                let g =
                  Spans.record spans "gen.build" (fun () ->
                      Spec.build insts.(c.topo))
                in
                Hashtbl.replace graphs c.topo g;
                g
          in
          let timed metrics =
            let t = now () in
            ignore
              (e.Registry.run ?k:c.k ?metrics ~seed:c.run_seed ~graph
                 ~source:0 ());
            now () -. t
          in
          plain := !plain +. timed None;
          let m = Rn_obs.Metrics.create () in
          metered := !metered +. timed (Some m);
          phases := max !phases (Rn_obs.Metrics.phases_used m))
        picked);
  set "obs.metrics_overhead_frac" (ratio !metered !plain);
  set "obs.phases" (float_of_int !phases)

let traced cfg ck (w : Workloads.t) ~spans ~lanes ~(m : measured) setups =
  let tbl = Hashtbl.create 128 in
  let set k v = Hashtbl.replace tbl k v in
  let s0 = List.hd setups in
  set "gen.calls" (float_of_int s0.instances);
  set "gen.busy_s" (median_of (List.map (fun s -> s.gen_s) setups));
  set "gen.edges" (float_of_int s0.edges);
  set "spec.parse_s" (median_of (List.map (fun s -> s.parse_s) setups));
  set "spec.cells" (float_of_int (Array.length (Spec.cells ck.spec)));
  set "spec.instances" (float_of_int s0.instances);
  (* one traced in-process pass of the spec, at the workload's lane count *)
  let journal = ref [] in
  let g0 = Gc.quick_stat () and words0 = Gc.minor_words () in
  let sim0 = Engine.total_simulated_rounds ()
  and skip0 = Engine.total_skipped_rounds () in
  let out, st, camp_wall =
    Spans.record spans "campaign.run" (fun () ->
        pass ~journal:(fun l -> journal := l :: !journal) ~lanes ck.spec)
  in
  let g1 = Gc.quick_stat () and words = Gc.minor_words () -. words0 in
  let sim = Engine.total_simulated_rounds () - sim0
  and skipped = Engine.total_skipped_rounds () - skip0 in
  let sc = verify ck ~what:"in-process campaign" out in
  let cells = Spec.cells ck.spec in
  Array.iteri
    (fun i (c : Spec.cell) ->
      let add k v =
        set k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
      in
      add ("proto." ^ c.proto ^ ".calls") 1.;
      add ("proto." ^ c.proto ^ ".busy_s") st.cell_wall.(i);
      add ("proto." ^ c.proto ^ ".rounds") (float_of_int st.cell_rounds.(i)))
    cells;
  let ms = Array.map (fun x -> x *. 1000.) st.cell_wall in
  set "campaign.wall_s" camp_wall;
  set "campaign.gen_s" st.gen_s;
  set "campaign.run_s" st.run_s;
  set "campaign.drain_s" st.drain_s;
  set "campaign.steals" (float_of_int st.steals);
  set "campaign.lane_util"
    (ratio (st.gen_s +. st.run_s) (camp_wall *. float_of_int lanes));
  set "campaign.cell_ms_p50" (Rn_util.Stats.percentile ms 50.);
  set "campaign.cell_ms_p99" (Rn_util.Stats.percentile ms 99.);
  set "engine.sim_rounds" (float_of_int sim);
  set "engine.skipped_rounds" (float_of_int skipped);
  set "engine.skip_frac"
    (ratio (float_of_int skipped) (float_of_int (sim + skipped)));
  set "engine.sim_rounds_per_s" (ratio (float_of_int sim) st.run_s);
  set "engine.transmissions" (float_of_int sc.transmissions);
  set "engine.deliveries" (float_of_int sc.deliveries);
  set "engine.collisions" (float_of_int sc.collisions);
  set "engine.deliveries_per_tx"
    (ratio (float_of_int sc.deliveries) (float_of_int sc.transmissions));
  (* minor words are counted on the driver's domain only *)
  set "gc.minor_words_per_round" (ratio words (float_of_int sc.rounds));
  set "gc.major_collections"
    (float_of_int (g1.major_collections - g0.major_collections));
  set "gc.top_heap_mb"
    (float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  (* the journal's read side: parse every line, then replay them all *)
  let lines = List.rev !journal in
  set "journal.lines" (float_of_int (List.length lines));
  set "journal.bytes"
    (float_of_int (List.fold_left (fun a l -> a + String.length l + 1) 0 lines));
  let t = now () in
  Spans.record spans "journal.parse" (fun () ->
      List.iter (fun l -> ignore (Journal.parse_line l)) lines);
  set "journal.parse_s" (now () -. t);
  let replayed, _, replay_s =
    Spans.record spans "journal.replay" (fun () ->
        pass ~resume_lines:lines ~lanes ck.spec)
  in
  set "journal.replay_s" replay_s;
  ignore (verify ck ~what:"journal replay" replayed);
  (* the traced operation, against the untraced loop's median *)
  let traced_op =
    match w.runner with
    | Workloads.In_process -> Rn_util.Stats.median st.cell_wall
    | Workloads.Dist_cli -> dist_probe cfg ck ~spans set
    | Workloads.Campaign_cli ->
        let out = out_path cfg ^ ".traced" in
        let wall, ok =
          Spans.record spans "cli.run" (fun () ->
              run_process
                (cli_argv cfg w ~out ~journal:(out ^ ".journal") ~resume:false))
        in
        if ok then ignore (verify ck ~what:"traced run" (read_file out))
        else lost ck ~what:"traced run";
        wall
  in
  set "trace.overhead_frac" (ratio traced_op m.op_s);
  (match w.runner with
  | Workloads.In_process -> ()
  | Workloads.Campaign_cli | Workloads.Dist_cli ->
      set "cli.overhead_s" (m.op_s -. camp_wall));
  obs_probe ~spans ck.spec set;
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (Hashtbl.find_opt tbl name), unit))
    (per_layer ())

(* --- one run -------------------------------------------------------- *)

let run cfg (w : Workloads.t) =
  Rn_broadcast.Protocols.ensure_registered ();
  let text =
    Workloads.seeded ~seed:cfg.seed
      (read_file
         (Workloads.spec_file ~root:cfg.root ~smoke:cfg.smoke w))
  in
  let spec =
    match Spec.parse text with Ok s -> s | Error e -> failwith ("spec: " ^ e)
  in
  let ck =
    {
      spec;
      reference =
        (if cfg.seed = 1 && not cfg.smoke then Some w.md5 else None);
      corrupt_next = cfg.corrupt;
      attempted = 0;
      failed = 0;
      output_ok = true;
      report = [];
    }
  in
  let spans =
    if cfg.trace then Some (Spans.create ~workload:w.name ~clock:now) else None
  in
  let lanes = Workloads.lanes w in
  let reps = if cfg.smoke then 1 else w.setup_reps in
  let in_process =
    match w.runner with Workloads.In_process -> true | _ -> false
  in
  let m =
    if in_process then in_process_loop cfg ck ~spans ~lanes ~reps text
    else begin
      Out_channel.with_open_bin (spec_path cfg) (fun oc ->
          output_string oc text);
      cli cfg ck w ~spans ~reps
    end
  in
  let metrics =
    if cfg.trace then
      let setups =
        if in_process then m.setups
        else List.init reps (fun _ -> setup spans text)
      in
      traced cfg ck w ~spans ~lanes ~m setups
    else
      List.map (fun (name, unit) -> (name, List.assoc name m.e2e, unit)) end_to_end
  in
  note ck "reference output md5 %s" (Option.value ~default:"-" ck.reference);
  {
    output_ok = ck.output_ok;
    attempted = ck.attempted;
    failed = ck.failed;
    metrics;
    report = List.rev ck.report;
    spans;
  }
