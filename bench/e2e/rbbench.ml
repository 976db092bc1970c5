(* rbbench — the end-to-end benchmark driver (README.md).

     rbbench run --workload W [--seed S] [--seconds T] [--trace 0|1]
         one run of one workload in this process; the last stdout line is
         the result object {"correct","attempted","failed","metrics"}
     rbbench run [--seed S] ...
         every workload, each in a fresh child process
     rbbench run --list
         every metric name, unit and bound in BENCHMARK.json
     rbbench noise [--runs N]
         N untraced runs of every workload, alternating the order; prints
         each metric's quartiles and fails on a spread above its bound *)

open Cmdliner
open Rbbench_lib

let jsons_result (o : Measure.outcome) =
  let open Rn_util.Jsons in
  obj
    [
      ("correct", string_of_bool o.output_ok);
      ("attempted", string_of_int o.attempted);
      ("failed", string_of_int o.failed);
      ( "metrics",
        obj
          (List.map
             (fun (name, v, unit) ->
               (name, obj [ ("value", float_lit v); ("unit", quote unit) ]))
             o.metrics) );
    ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let remove_tree d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

let run_one ~root ~rbcast ~seed ~seconds ~trace ~json ~trace_out ~smoke
    ~corrupt (w : Workloads.t) =
  let workdir =
    Filename.concat root
      (Printf.sprintf ".rbbench/%s.%d" w.name (Unix.getpid ()))
  in
  mkdir_p workdir;
  let cfg =
    { Measure.root; rbcast; workdir; seed; seconds; trace; smoke; corrupt }
  in
  let o =
    Fun.protect
      ~finally:(fun () -> remove_tree workdir)
      (fun () -> Measure.run cfg w)
  in
  Printf.printf "rbbench: workload=%s seed=%d seconds=%g trace=%d%s\n" w.name
    seed seconds (Bool.to_int trace)
    (if smoke then " (smoke)" else "");
  List.iter (Printf.printf "  %s\n") o.report;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %14.6g %s\n" name v unit)
    o.metrics;
  (match o.spans with
  | Some sp ->
      let path =
        match trace_out with
        | Some p -> p
        | None -> Filename.concat root (".rbbench/" ^ w.name ^ ".spans.jsonl")
      in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) (Spans.jsonl sp));
      Printf.printf "  self time by span (%s):\n" path;
      Printf.printf "    %-22s %6s %10s %10s\n" "span" "calls" "total_s" "self_s";
      List.iter
        (fun (name, calls, total, self) ->
          Printf.printf "    %-22s %6d %10.4f %10.4f\n" name calls total self)
        (Spans.self_times sp)
  | None -> ());
  Printf.printf "output_ok=%b attempted=%d failed=%d\n" o.output_ok o.attempted
    o.failed;
  let line = jsons_result o in
  Option.iter
    (fun p -> Out_channel.with_open_bin p (fun oc -> output_string oc (line ^ "\n")))
    json;
  print_endline line;
  if o.output_ok then 0 else 1

(* --- child runs ------------------------------------------------------ *)

(* Run this executable on one workload in a fresh process (fresh heap,
   own peak RSS); returns its stdout lines and exit status. *)
let child ~root ~rbcast ~seed ~seconds ~trace ~smoke ~corrupt name =
  let argv =
    [
      Sys.executable_name; "run"; "--workload"; name; "--seed";
      string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if trace then "1" else "0"); "--root"; root; "--rbcast";
      rbcast;
    ]
    @ (if smoke then [ "--smoke" ] else [])
    @ if corrupt then [ "--corrupt-output" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list argv) in
  let lines = Workloads.lines (In_channel.input_all ic) in
  let ok =
    match Unix.close_process_in ic with Unix.WEXITED 0 -> true | _ -> false
  in
  (lines, ok)

let result_metrics lines =
  match List.rev lines with
  | last :: _ -> (
      match Json.parse last with
      | Ok j ->
          List.filter_map
            (fun (name, v) ->
              Option.map (fun x -> (name, x)) (Json.num (Json.member "value" v)))
            (match Json.member "metrics" j with Some (Json.Obj m) -> m | _ -> [])
      | Error _ -> [])
  | [] -> []

(* --- subcommands ----------------------------------------------------- *)

let list_metrics root =
  let m = Manifest.load ~root in
  Printf.printf "run_seconds %d; every end-to-end metric on every workload\n"
    m.run_seconds;
  List.iter (fun (n, why) -> Printf.printf "workload %-16s %s\n" n why) m.workloads;
  List.iter
    (fun (x : Manifest.metric) ->
      Printf.printf "end_to_end %-24s %-9s %-6s bound %g\n" x.name x.unit
        x.better (Option.value ~default:0. x.bound))
    m.end_to_end;
  List.iter
    (fun (x : Manifest.metric) ->
      Printf.printf "per_layer  %-34s %-9s %s\n" x.name x.unit x.better)
    m.per_layer;
  0

let default_seconds root = function
  | Some s -> float_of_int s
  | None -> float_of_int (Manifest.load ~root).run_seconds

let run list workload seed seconds trace json trace_out smoke corrupt root
    rbcast =
  if list then list_metrics root
  else
    let seconds = if smoke then 0. else default_seconds root seconds in
    match workload with
    | Some name -> (
        match Workloads.find name with
        | Some w ->
            run_one ~root ~rbcast ~seed ~seconds ~trace ~json ~trace_out ~smoke
              ~corrupt w
        | None ->
            Printf.eprintf "rbbench: unknown workload %s\n" name;
            2)
    | None ->
        let results =
          List.map
            (fun (w : Workloads.t) ->
              let lines, ok =
                child ~root ~rbcast ~seed ~seconds ~trace ~smoke ~corrupt w.name
              in
              List.iter print_endline lines;
              (w.name, lines, ok))
            Workloads.all
        in
        Option.iter
          (fun p ->
            Out_channel.with_open_bin p (fun oc ->
                List.iter
                  (fun (name, lines, _) ->
                    match List.rev lines with
                    | last :: _ ->
                        Printf.fprintf oc "{\"workload\":%s,\"result\":%s}\n"
                          (Rn_util.Jsons.quote name) last
                    | [] -> ())
                  results))
          json;
        if List.for_all (fun (_, _, ok) -> ok) results then 0 else 1

let noise runs seconds root rbcast =
  let m = Manifest.load ~root in
  let seconds = default_seconds root seconds in
  let samples = Hashtbl.create 64 in
  let failures = ref 0 in
  for r = 1 to runs do
    let order = if r mod 2 = 1 then Workloads.all else List.rev Workloads.all in
    List.iter
      (fun (w : Workloads.t) ->
        let lines, ok =
          child ~root ~rbcast ~seed:r ~seconds ~trace:false ~smoke:false
            ~corrupt:false w.name
        in
        if not ok then incr failures;
        Printf.eprintf "noise: run %d/%d %s %s\n%!" r runs w.name
          (if ok then "ok" else "FAILED");
        List.iter
          (fun (name, v) ->
            let k = (name, w.name) in
            Hashtbl.replace samples k
              (v :: Option.value ~default:[] (Hashtbl.find_opt samples k)))
          (result_metrics lines))
      order
  done;
  Printf.printf "noise: %d runs per workload, %gs each, nproc %d\n" runs
    seconds (Domain.recommended_domain_count ());
  Printf.printf "%-22s %-15s %12s %12s %12s %8s %6s\n" "metric" "workload" "p25"
    "median" "p75" "iqr/med" "bound";
  let wide = ref 0 in
  List.iter
    (fun (x : Manifest.metric) ->
      List.iter
        (fun (w : Workloads.t) ->
          match Hashtbl.find_opt samples (x.name, w.name) with
          | None | Some [] -> incr wide
          | Some vs ->
              let a = Array.of_list vs in
              let q1, med, q3 = Stat.quartiles a in
              let sp = Stat.spread a in
              let bound = Option.value ~default:0. x.bound in
              (* setup_s is bounded on its median only, as the contract reads it *)
              let over = sp > bound && not (String.equal x.name "setup_s") in
              if over then incr wide;
              Printf.printf "%-22s %-15s %12.6g %12.6g %12.6g %8.4f %6.2f%s\n"
                x.name w.name q1 med q3 sp bound
                (if over then "  WIDE" else ""))
        Workloads.all)
    m.end_to_end;
  if !wide = 0 && !failures = 0 then 0 else 1

(* --- command line ------------------------------------------------------ *)

let root =
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR"
         ~doc:"Repository checkout holding BENCHMARK.json and bench/e2e.")

let rbcast =
  Arg.(value & opt string "_build/default/bin/rbcast.exe"
       & info [ "rbcast" ] ~docv:"EXE" ~doc:"The built rbcast executable.")

let seconds =
  Arg.(value & opt (some int) None & info [ "seconds" ] ~docv:"T"
         ~doc:"Length of the measured loop (default: run_seconds in BENCHMARK.json).")

let run_cmd =
  let list =
    Arg.(value & flag & info [ "list" ]
           ~doc:"Print every metric name, unit and bound from BENCHMARK.json.")
  in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME"
           ~doc:"Run this workload in-process (default: all, each in a child).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
           ~doc:"Input seed: selects the block of run seeds.")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"1: the traced run, reporting the per-layer metrics.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the result object(s) to $(docv).")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Span JSONL of a traced run (default .rbbench/WORKLOAD.spans.jsonl).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Run the few-cell smoke specs, one pass each.")
  in
  let corrupt =
    Arg.(value & flag & info [ "corrupt-output" ]
           ~doc:"Self-test: flip a byte of the first output; the run must fail.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the benchmark and check its outputs.")
    Term.(
      const run $ list $ workload $ seed $ seconds $ trace $ json $ trace_out
      $ smoke $ corrupt $ root $ rbcast)

let noise_cmd =
  let runs =
    Arg.(value & opt int 5 & info [ "runs" ] ~docv:"N" ~doc:"Runs per workload.")
  in
  Cmd.v
    (Cmd.info "noise"
       ~doc:"Measure run-to-run spread and check it against the bounds.")
    Term.(const noise $ runs $ seconds $ root $ rbcast)

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "rbbench" ~doc:"End-to-end benchmark driver")
          [ run_cmd; noise_cmd ]))
