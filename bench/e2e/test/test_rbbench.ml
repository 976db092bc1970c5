(* rbbench self-tests: the order statistics on fixed vectors, the spec
   seeding, and a smoke run of all four workloads that checks the result
   against BENCHMARK.json and proves the output gate fires. *)

open Rbbench_lib

(* dune runs tests from _build/default/bench/e2e/test *)
let root = "../../.."
let rbcast = "../../../bin/rbcast.exe"
let close = Alcotest.float 1e-12

let quartiles () =
  (* references: Python's statistics.quantiles(xs, n=4) *)
  List.iter
    (fun (xs, (q1, q2, q3)) ->
      let a, b, c = Stat.quartiles (Array.of_list xs) in
      Alcotest.check close "q1" q1 a;
      Alcotest.check close "q2" q2 b;
      Alcotest.check close "q3" q3 c)
    [
      ([ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ], (2.75, 5.5, 8.25));
      ([ 5.; 1.; 4.; 2.; 3. ], (1.5, 3.0, 4.5));
      ([ 1.; 2. ], (0.75, 1.5, 2.25));
      ([ 3.; 1.; 2. ], (1.0, 2.0, 3.0));
      ([ 2.5; 1.0; 4.0; 3.25 ], (1.375, 2.875, 3.8125));
      ([ 7. ], (7., 7., 7.));
    ];
  Alcotest.check close "spread" 0.25348837209302305
    (Stat.spread [| 0.9; 1.3; 1.1; 1.05; 0.97; 1.2 |]);
  Alcotest.check close "spread of a constant" 0. (Stat.spread [| 4.; 4.; 4. |])

let tail () =
  let t = Alcotest.(option (float 0.)) in
  List.iter
    (fun (n, p) -> Alcotest.check t (string_of_int n) p (Stat.tail_percentile n))
    [
      (1, None); (9, None); (24, None); (39, None); (40, Some 75.);
      (100, Some 90.); (999, Some 90.); (1000, Some 99.); (10000, Some 99.9);
    ]

let seeded () =
  let spec = "# c\n{\"topo\":\"path\",\"n\":4}\n{\"proto\":\"decay\"}\n{\"seeds\":[1,2,3]}\n" in
  Alcotest.(check string) "seed 1 is the file" spec (Workloads.seeded spec ~seed:1);
  Alcotest.(check string)
    "seed 3 shifts by two blocks"
    "# c\n{\"topo\":\"path\",\"n\":4}\n{\"proto\":\"decay\"}\n{\"seeds\":[7,8,9]}\n"
    (Workloads.seeded spec ~seed:3)

let manifest = lazy (Manifest.load ~root)

let names_units ms =
  List.map (fun (m : Manifest.metric) -> (m.name, m.unit)) ms

let smoke ?(corrupt = false) ~trace (w : Workloads.t) =
  let workdir = Printf.sprintf "work-%s-%b-%b" w.name trace corrupt in
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  Measure.run
    {
      Measure.root;
      rbcast;
      workdir;
      seed = 2;
      seconds = 0.;
      trace;
      smoke = true;
      corrupt;
    }
    w

let emits_every_metric () =
  let m = Lazy.force manifest in
  Alcotest.(check (list string))
    "workloads" (List.map fst m.workloads)
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all);
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (trace, expected) ->
          let o = smoke ~trace w in
          Alcotest.(check bool) (w.name ^ " output_ok") true o.output_ok;
          Alcotest.(check (list (pair string string)))
            (w.name ^ " metrics")
            (names_units expected)
            (List.map (fun (n, _, u) -> (n, u)) o.metrics))
        [ (false, m.end_to_end); (true, m.per_layer) ])
    Workloads.all

let corrupt_output_fails () =
  List.iter
    (fun (w : Workloads.t) ->
      let o = smoke ~corrupt:true ~trace:false w in
      Alcotest.(check bool) (w.name ^ " output_ok") false o.output_ok;
      Alcotest.(check bool) (w.name ^ " failed > 0") true (o.failed > 0))
    Workloads.all

let () =
  Alcotest.run "rbbench"
    [
      ( "stat",
        [
          Alcotest.test_case "quartiles" `Quick quartiles;
          Alcotest.test_case "tail percentile" `Quick tail;
        ] );
      ("spec", [ Alcotest.test_case "seeded" `Quick seeded ]);
      ( "smoke",
        [
          Alcotest.test_case "every metric with its unit" `Quick
            emits_every_metric;
          Alcotest.test_case "corrupt output fails the gate" `Quick
            corrupt_output_fails;
        ] );
    ]
