open Rn_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "different seeds diverge" 0 !same

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  Alcotest.(check bool) "children differ" true (Rng.bits64 c1 <> Rng.bits64 c2)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_uniformish () =
  let rng = Rng.create ~seed:5 in
  let counts = Array.make 4 0 in
  let trials = 40_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let f = float_of_int c /. float_of_int trials in
      Alcotest.(check bool) "roughly uniform" true (f > 0.23 && f < 0.27))
    counts

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:13 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0);
  Alcotest.(check bool) "p<0 never" false (Rng.bernoulli rng (-1.0))

let test_rng_bernoulli_rate () =
  let rng = Rng.create ~seed:17 in
  let hits = ref 0 and trials = 50_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.125 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "close to 1/8" true (rate > 0.11 && rate < 0.14)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:19 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create ~seed:23 in
  let s = Rng.sample_without_replacement rng 10 30 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 9 do
    Alcotest.(check bool) "distinct" true (sorted.(i) > sorted.(i - 1))
  done;
  Array.iter
    (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30))
    s

let test_rng_copy_replays () =
  let rng = Rng.create ~seed:29 in
  ignore (Rng.bits64 rng);
  let dup = Rng.copy rng in
  Alcotest.(check int64) "copy replays" (Rng.bits64 rng) (Rng.bits64 dup)

(* Golden vectors: the exact SplitMix64 outputs, pinned so any change to
   the generator's representation or arithmetic that alters a stream fails
   here rather than as a silent shift in every simulation's bytes. *)
let golden_seeds = [ 0; 1; -1; max_int ]

let golden_bits64 =
  [
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
      0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL;
      0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL ];
    [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL;
      0x71C18690EE42C90BL; 0x71BB54D8D101B5B9L; 0xC34D0BFF90150280L;
      0xE099EC6CD7363CA5L; 0x85E7BB0F12278575L ];
    [ 0xE4D971771B652C20L; 0xE99FF867DBF682C9L; 0x382FF84CB27281E9L;
      0x6D1DB36CCBA982D2L; 0xB4A0472E578069AEL; 0xD31DADBDA438BB33L;
      0xF14F2CF802083FA5L; 0x405DA438A39E8064L ];
    [ 0x43DF0885536978A6L; 0x101018CC4A4CADFDL; 0xF7123DB96BB11521L;
      0x6EB32F7EE5175C16L; 0xB954958D2F637748L; 0xE07958AFD6D62EB7L;
      0xBCE9AAA54AFDB47EL; 0x07EEA021A2857177L ];
  ]

let test_rng_golden_bits64 () =
  List.iter2
    (fun seed expected ->
      let rng = Rng.create ~seed in
      List.iteri
        (fun i want ->
          Alcotest.(check int64)
            (Printf.sprintf "seed %d draw %d" seed i)
            want (Rng.bits64 rng))
        expected)
    golden_seeds golden_bits64

(* Per seed: two draws of the first child, one of the second, then the
   parent's next draw (each split consumed one parent draw). *)
let golden_split =
  [
    (0x0E0C900B419CB7A0L, 0x126E5CDE5DA6FED9L, 0x53D846FC87F0F44BL,
     0x06C45D188009454FL);
    (0x11A8F33E8ACFACE1L, 0xE068FB0265CEDDE6L, 0x18478FB6117DEC9CL,
     0xF893A2EEFB32555EL);
    (0x500DDCC7B26D8E62L, 0x7ABD631529CBFC94L, 0xE5364437E6BDCF73L,
     0x382FF84CB27281E9L);
    (0x8D94537AEDAB4500L, 0x434A289D168B5FF6L, 0x03C2E21E9929C8BCL,
     0xF7123DB96BB11521L);
  ]

let test_rng_golden_split () =
  List.iter2
    (fun seed (c1a, c1b, c2a, parent_next) ->
      let rng = Rng.create ~seed in
      let c1 = Rng.split rng in
      let c2 = Rng.split rng in
      let chk what = Alcotest.(check int64) (Printf.sprintf "seed %d %s" seed what) in
      chk "child 1 draw 0" c1a (Rng.bits64 c1);
      chk "child 1 draw 1" c1b (Rng.bits64 c1);
      chk "child 2 draw 0" c2a (Rng.bits64 c2);
      chk "parent after splits" parent_next (Rng.bits64 rng))
    golden_seeds golden_split

(* One stream, seed 42, through every typed draw in turn. *)
let test_rng_golden_draws () =
  let rng = Rng.create ~seed:42 in
  Alcotest.(check (list int)) "int"
    [ 0; 1; 2; 5; 0; 350; 4028864712777624925; 1024863383460 ]
    (List.map (Rng.int rng) [ 1; 2; 3; 7; 10; 1000; max_int; 1 lsl 40 ]);
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.5c16e1dc2cf5ep-2; 0x1.8bd41a0c67beap+0; 0x1.86d1b8f98f91bp+27;
      0x1.f8d2283914594p-2 ]
    (List.map (Rng.float rng) [ 1.0; 2.5; 1e9; 1.0 ]);
  Alcotest.(check (list bool)) "bool"
    [ false; true; false; false; true; true; true; false;
      false; true; true; true; false; true; true; true ]
    (List.init 16 (fun _ -> Rng.bool rng));
  Alcotest.(check (list bool)) "bernoulli"
    [ false; false; false; true; false; false; true; false;
      false; false; true; true ]
    (List.map (Rng.bernoulli rng)
       [ 0.5; 0.5; 0.25; 0.9; 0.1; 0.0; 1.0; 0.75; 0.5; 0.01; 0.99; 0.5 ]);
  Alcotest.(check int64) "stream position afterwards" 0xC2DE56B8961D5F40L
    (Rng.bits64 rng)

let test_rng_coin_pow2_negative () =
  Alcotest.check_raises "e < 0 rejected"
    (Invalid_argument "Rng.coin_pow2: negative exponent") (fun () ->
      ignore (Rng.coin_pow2 (Rng.create ~seed:1) (-1)))

(* ------------------------------------------------------------------ *)
(* Ilog *)

let test_ilog_small_values () =
  Alcotest.(check int) "floor 1" 0 (Ilog.floor_log2 1);
  Alcotest.(check int) "floor 2" 1 (Ilog.floor_log2 2);
  Alcotest.(check int) "floor 3" 1 (Ilog.floor_log2 3);
  Alcotest.(check int) "floor 1024" 10 (Ilog.floor_log2 1024);
  Alcotest.(check int) "ceil 1" 0 (Ilog.ceil_log2 1);
  Alcotest.(check int) "ceil 3" 2 (Ilog.ceil_log2 3);
  Alcotest.(check int) "ceil 1024" 10 (Ilog.ceil_log2 1024);
  Alcotest.(check int) "ceil 1025" 11 (Ilog.ceil_log2 1025);
  Alcotest.(check int) "clog 1" 1 (Ilog.clog 1);
  Alcotest.(check int) "clog 2" 1 (Ilog.clog 2);
  Alcotest.(check int) "clog 100" 7 (Ilog.clog 100)

let test_ilog_pow () =
  Alcotest.(check int) "2^0" 1 (Ilog.pow2 0);
  Alcotest.(check int) "2^10" 1024 (Ilog.pow2 10);
  Alcotest.(check int) "3^4" 81 (Ilog.pow 3 4);
  Alcotest.(check int) "5^0" 1 (Ilog.pow 5 0);
  Alcotest.(check int) "7^1" 7 (Ilog.pow 7 1)

let test_ilog_isqrt () =
  Alcotest.(check int) "isqrt 0" 0 (Ilog.isqrt 0);
  Alcotest.(check int) "isqrt 1" 1 (Ilog.isqrt 1);
  Alcotest.(check int) "isqrt 15" 3 (Ilog.isqrt 15);
  Alcotest.(check int) "isqrt 16" 4 (Ilog.isqrt 16);
  Alcotest.(check int) "isqrt 17" 4 (Ilog.isqrt 17)

let test_ilog_cdiv () =
  Alcotest.(check int) "7/2" 4 (Ilog.cdiv 7 2);
  Alcotest.(check int) "8/2" 4 (Ilog.cdiv 8 2);
  Alcotest.(check int) "0/5" 0 (Ilog.cdiv 0 5)

let test_ilog_invalid () =
  Alcotest.check_raises "floor_log2 0" (Invalid_argument "Ilog.floor_log2")
    (fun () -> ignore (Ilog.floor_log2 0))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_stddev () =
  check_float "mean" 3.0 (Stats.mean [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  check_float "stddev" (sqrt 2.5) (Stats.stddev [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  check_float "stddev singleton" 0.0 (Stats.stddev [| 9.0 |])

let test_stats_median_percentile () =
  check_float "odd median" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check_float "even median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  check_float "p0" 1.0 (Stats.percentile [| 1.0; 2.0; 3.0 |] 0.0);
  check_float "p100" 3.0 (Stats.percentile [| 1.0; 2.0; 3.0 |] 100.0)

let test_stats_summary () =
  let s = Stats.summarize [| 2.0; 4.0; 6.0; 8.0 |] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  check_float "min" 2.0 s.Stats.min;
  check_float "max" 8.0 s.Stats.max;
  check_float "median" 5.0 s.Stats.median

let test_stats_linear_fit_exact () =
  let pts = [ (1.0, 5.0); (2.0, 7.0); (3.0, 9.0) ] in
  let f = Stats.linear_fit pts in
  check_float "slope" 2.0 f.Stats.slope;
  check_float "intercept" 3.0 f.Stats.intercept;
  check_float "r2" 1.0 f.Stats.r2

let test_stats_linear_fit_r2 () =
  let pts = [ (1.0, 1.0); (2.0, 3.0); (3.0, 2.0); (4.0, 5.0) ] in
  let f = Stats.linear_fit pts in
  Alcotest.(check bool) "r2 in [0,1]" true (f.Stats.r2 >= 0.0 && f.Stats.r2 <= 1.0)

let test_stats_two_predictor_exact () =
  (* y = 2 x1 + 3 x2 + 5, exactly. *)
  let pts =
    [ (1.0, 1.0, 10.0); (2.0, 1.0, 12.0); (1.0, 2.0, 13.0); (3.0, 4.0, 23.0);
      (0.0, 0.0, 5.0) ]
  in
  let f = Stats.two_predictor_fit pts in
  check_float "a" 2.0 f.Stats.a;
  check_float "b" 3.0 f.Stats.b;
  check_float "c" 5.0 f.Stats.c;
  check_float "r2" 1.0 f.Stats.r2_2

let test_stats_two_predictor_singular () =
  (* x2 = 2 x1 everywhere: collinear predictors must be rejected. *)
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Stats.two_predictor_fit
            [ (1.0, 2.0, 1.0); (2.0, 4.0, 2.0); (3.0, 6.0, 3.0) ]);
       false
     with Invalid_argument _ -> true)

let test_stats_ratio_spread () =
  let m, spread = Stats.ratio_spread [ (1.0, 2.0); (2.0, 4.0); (4.0, 8.0) ] in
  check_float "mean ratio" 2.0 m;
  check_float "spread" 1.0 spread

(* The summary's min/max must order by Float.compare like its percentiles:
   NaN below every number, and independent of where NaN sits in the input.
   (The old polymorphic fold returned a NaN-position-dependent number.) *)
let test_stats_nan_summary () =
  let check xs =
    let s = Stats.summarize xs in
    Alcotest.(check bool) "min is NaN" true (Float.is_nan s.Stats.min);
    check_float "max ignores NaN" 2.0 s.Stats.max;
    (* consistency with the percentile path of the same summary *)
    Alcotest.(check int) "min = p0 under Float.compare" 0
      (Float.compare s.Stats.min (Stats.percentile xs 0.0));
    check_float "max = p100" (Stats.percentile xs 100.0) s.Stats.max
  in
  check [| 1.0; nan; 2.0 |];
  check [| nan; 1.0; 2.0 |];
  check [| 1.0; 2.0; nan |];
  let s = Stats.summarize [| nan; nan |] in
  Alcotest.(check bool) "all-NaN max" true (Float.is_nan s.Stats.max)

let test_stats_ratio_spread_zero () =
  (* x = 0.0 points are dropped by a float-equality test; -0.0 = 0.0 so a
     negative zero is dropped too (no division by -0.0 → -infinity). *)
  let m, spread = Stats.ratio_spread [ (0.0, 5.0); (1.0, 2.0); (2.0, 4.0) ] in
  check_float "zero-x dropped" 2.0 m;
  check_float "spread" 1.0 spread;
  let m, _ = Stats.ratio_spread [ (-0.0, 5.0); (3.0, 6.0) ] in
  check_float "negative zero dropped" 2.0 m;
  (* a zero *ratio* makes the spread infinite rather than dividing by 0 *)
  let _, spread = Stats.ratio_spread [ (1.0, 0.0); (1.0, 2.0) ] in
  check_float "zero ratio -> infinite spread" infinity spread;
  Alcotest.check_raises "all x zero"
    (Invalid_argument "Stats.ratio_spread: no usable points") (fun () ->
      ignore (Stats.ratio_spread [ (0.0, 1.0); (0.0, 2.0) ]))

let test_ilog_pow_overflow () =
  Alcotest.(check int) "2^61 fits" (1 lsl 61) (Ilog.pow 2 61);
  Alcotest.(check int) "10^18 fits" 1_000_000_000_000_000_000 (Ilog.pow 10 18);
  Alcotest.(check int) "3^39 fits" 4052555153018976267 (Ilog.pow 3 39);
  Alcotest.(check int) "(-2)^3" (-8) (Ilog.pow (-2) 3);
  Alcotest.(check int) "1^big" 1 (Ilog.pow 1 1_000_000);
  Alcotest.(check int) "0^10" 0 (Ilog.pow 0 10);
  (* k = 1 must not square the base: max_int^1 is representable even though
     max_int * max_int is not (the pre-guard code squared unconditionally) *)
  Alcotest.(check int) "max_int^1" max_int (Ilog.pow max_int 1);
  let ov b k =
    Alcotest.check_raises
      (Printf.sprintf "%d^%d overflows" b k)
      (Invalid_argument "Ilog.pow: overflow")
      (fun () -> ignore (Ilog.pow b k))
  in
  ov 2 62;
  ov 10 19;
  ov 3 40;
  ov max_int 2

(* ------------------------------------------------------------------ *)
(* jsons *)

let test_jsons_known_escapes () =
  Alcotest.(check string) "plain" "abc" (Jsons.escape "abc");
  Alcotest.(check string) "quote" {|a\"b|} (Jsons.escape {|a"b|});
  Alcotest.(check string) "backslash" {|a\\b|} (Jsons.escape {|a\b|});
  Alcotest.(check string) "newline" {|a\nb|} (Jsons.escape "a\nb");
  Alcotest.(check string) "tab" {|a\tb|} (Jsons.escape "a\tb");
  Alcotest.(check string) "cr" {|a\rb|} (Jsons.escape "a\rb");
  Alcotest.(check string) "backspace" {|a\bb|} (Jsons.escape "a\bb");
  Alcotest.(check string) "formfeed" {|a\fb|} (Jsons.escape "a\012b");
  Alcotest.(check string) "nul" "\\u0000" (Jsons.escape "\000");
  Alcotest.(check string) "esc" "\\u001b" (Jsons.escape "\027");
  (* High bytes pass through verbatim (UTF-8 stays UTF-8), unlike %S. *)
  Alcotest.(check string) "high byte" "\xc3\xa9" (Jsons.escape "\xc3\xa9");
  Alcotest.(check string) "quote wraps" {|"a\nb"|} (Jsons.quote "a\nb")

let test_jsons_int_array () =
  Alcotest.(check string) "empty" "[]" (Jsons.int_array []);
  Alcotest.(check string) "one" "[7]" (Jsons.int_array [ 7 ]);
  Alcotest.(check string) "many" "[12,8,-3,0]" (Jsons.int_array [ 12; 8; -3; 0 ])

let jsons_value =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Jsons.Null -> "null"
        | Jsons.Bool b -> string_of_bool b
        | Jsons.Int i -> string_of_int i
        | Jsons.Float f -> string_of_float f
        | Jsons.Str s -> Printf.sprintf "%S" s
        | Jsons.Ints xs -> Jsons.int_array xs))
    (fun a b -> a = b)

let fields = Alcotest.(result (list (pair string jsons_value)) string)

let test_jsons_parse_obj () =
  Alcotest.check fields "empty object" (Ok []) (Jsons.parse_obj "{}");
  Alcotest.check fields "whitespace + trailing comma"
    (Ok [ ("a", Jsons.Int 1); ("b", Jsons.Ints [ 1; 2 ]) ])
    (Jsons.parse_obj "  { \"a\" : 1 , \"b\" : [1, 2] } ,  ");
  Alcotest.check fields "scalar zoo"
    (Ok
       [
         ("n", Jsons.Null);
         ("t", Jsons.Bool true);
         ("f", Jsons.Bool false);
         ("i", Jsons.Int (-3));
         ("x", Jsons.Float 2.5);
         ("s", Jsons.Str "a\nb");
         ("e", Jsons.Ints []);
       ])
    (Jsons.parse_obj
       "{\"n\":null,\"t\":true,\"f\":false,\"i\":-3,\"x\":2.5,\"s\":\"a\\nb\",\"e\":[]}");
  Alcotest.check fields "unicode escape decodes"
    (Ok [ ("s", Jsons.Str "\xc3\xa9") ])
    (Jsons.parse_obj "{\"s\":\"\\u00e9\"}");
  let rejects label line =
    match Jsons.parse_obj line with
    | Ok _ -> Alcotest.failf "%s: accepted %s" label line
    | Error _ -> ()
  in
  rejects "trailing garbage" "{\"a\":1} x";
  rejects "nested object" "{\"a\":{\"b\":1}}";
  rejects "mixed array" "{\"a\":[1,\"x\"]}";
  rejects "bad number" "{\"a\":1.2.3}";
  rejects "unterminated string" "{\"a\":\"oops}";
  rejects "bare value" "42";
  (* pinned number edge cases (ISSUE 10 audit) *)
  rejects "leading + is not JSON" "{\"a\":+5}";
  rejects "leading + in array" "{\"a\":[+5]}";
  rejects "max_int+1 literal" "{\"a\":4611686018427387904}";
  rejects "min_int-1 literal" "{\"a\":-4611686018427387905}";
  Alcotest.check fields "max_int literal fits"
    (Ok [ ("a", Jsons.Int max_int) ])
    (Jsons.parse_obj (Printf.sprintf "{\"a\":%d}" max_int));
  Alcotest.check fields "min_int literal fits"
    (Ok [ ("a", Jsons.Int min_int) ])
    (Jsons.parse_obj (Printf.sprintf "{\"a\":%d}" min_int));
  Alcotest.check fields "large float still floats"
    (Ok [ ("a", Jsons.Float 1e300) ])
    (Jsons.parse_obj "{\"a\":1e300}");
  (* pinned surrogate edge cases *)
  Alcotest.check fields "surrogate pair decodes"
    (Ok [ ("s", Jsons.Str "\xf0\x9f\x98\x80") ])
    (Jsons.parse_obj "{\"s\":\"\\ud83d\\ude00\"}");
  rejects "lone high surrogate" "{\"s\":\"\\ud83d\"}";
  rejects "lone low surrogate" "{\"s\":\"\\ude00\"}";
  rejects "swapped surrogate pair" "{\"s\":\"\\ude00\\ud83d\"}";
  (* one record of a one-per-line JSON array: trailing comma tolerated *)
  Alcotest.check fields "bench record line"
    (Ok
       [
         ("id", Jsons.Str "E1[decay]");
         ("wall_s", Jsons.Float 0.123);
         ("rounds", Jsons.Int 19);
         ("phase_rounds", Jsons.Ints [ 12; 7 ]);
       ])
    (Jsons.parse_obj
       "    { \"id\": \"E1[decay]\", \"wall_s\": 0.123, \"rounds\": 19, \"phase_rounds\": [12,7] },")

let test_jsons_members () =
  let f =
    match
      Jsons.parse_obj "{\"i\":7,\"z\":0,\"x\":1.5,\"s\":\"v\",\"b\":true,\"a\":[3]}"
    with
    | Ok f -> f
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check (option int)) "int_mem" (Some 7) (Jsons.int_mem "i" f);
  Alcotest.(check (option int)) "int_mem miss" None (Jsons.int_mem "s" f);
  Alcotest.(check (option (float 0.0))) "float_mem" (Some 1.5) (Jsons.float_mem "x" f);
  Alcotest.(check (option (float 0.0)))
    "float_mem coerces int" (Some 0.0) (Jsons.float_mem "z" f);
  Alcotest.(check (option string)) "str_mem" (Some "v") (Jsons.str_mem "s" f);
  Alcotest.(check (option bool)) "bool_mem" (Some true) (Jsons.bool_mem "b" f);
  Alcotest.(check (option (list int))) "ints_mem" (Some [ 3 ]) (Jsons.ints_mem "a" f)

(* Decoder for the escape grammar Jsons.escape emits — used to check the
   round trip property.  Fails loudly on anything outside that grammar,
   which doubles as a "well-formed JSON string body" check: an unescaped
   control char, quote, or dangling backslash raises. *)
let jsons_unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> failwith "bad hex digit"
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '\\' ->
        incr i;
        if !i >= n then failwith "dangling backslash";
        (match s.[!i] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !i + 4 >= n then failwith "short \\u escape";
            let v =
              (hex s.[!i + 1] * 0x1000)
              + (hex s.[!i + 2] * 0x100)
              + (hex s.[!i + 3] * 0x10)
              + hex s.[!i + 4]
            in
            if v > 0xff then failwith "non-byte \\u escape";
            Buffer.add_char b (Char.chr v);
            i := !i + 4
        | _ -> failwith "unknown escape")
    | '"' -> failwith "unescaped quote"
    | c when Char.code c < 0x20 -> failwith "unescaped control char"
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"jsons escape round-trips" ~count:500 string (fun s ->
        jsons_unescape (Jsons.escape s) = s);
    Test.make ~name:"jsons escape body is well-formed" ~count:500 string
      (fun s ->
        (* No raise = every control char / quote / backslash is escaped. *)
        let _ = jsons_unescape (Jsons.escape s) in
        true);
    Test.make ~name:"jsons int_array matches printf shape" ~count:300
      (list_of_size (Gen.int_range 0 30) int)
      (fun xs ->
        Jsons.int_array xs
        = "[" ^ String.concat "," (List.map string_of_int xs) ^ "]");
    (* parser vs emitters: any object rendered with the construction
       helpers parses back to the same fields, byte-exactly *)
    (Test.make ~name:"jsons obj/parse_obj round-trips" ~count:500
       (let value_gen =
          Gen.oneof
            [
              Gen.return Jsons.Null;
              Gen.map (fun b -> Jsons.Bool b) Gen.bool;
              Gen.map (fun i -> Jsons.Int i) Gen.int;
              Gen.map
                (fun f ->
                  Jsons.Float (if Float.is_finite f then f else 0.5))
                Gen.float;
              Gen.map (fun s -> Jsons.Str s) Gen.string;
              Gen.map
                (fun xs -> Jsons.Ints xs)
                (Gen.list_size (Gen.int_range 0 8) Gen.int);
            ]
        in
        make
          (Gen.list_size (Gen.int_range 0 10)
             (Gen.pair Gen.string value_gen)))
       (fun fields ->
         let render = function
           | Jsons.Null -> "null"
           | Jsons.Bool true -> "true"
           | Jsons.Bool false -> "false"
           | Jsons.Int i -> string_of_int i
           | Jsons.Float f -> Jsons.float_lit f
           | Jsons.Str s -> Jsons.quote s
           | Jsons.Ints xs -> Jsons.int_array xs
         in
         let line =
           Jsons.obj (List.map (fun (k, v) -> (k, render v)) fields)
         in
         match Jsons.parse_obj line with
         | Ok back -> back = fields
         | Error _ -> false));
    Test.make ~name:"jsons float_lit parses back exactly" ~count:500 float
      (fun f ->
        let f = if Float.is_finite f then f else 1e300 in
        Float.compare (float_of_string (Jsons.float_lit f)) f = 0);
    Test.make ~name:"rng int always in range" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create ~seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    (* The O(1) jump is n sequential splits: stream k replays the k-th
       split's generator, and the parent resumes where the n splits left
       it.  The oracle is [Rng.split] itself, since [split_n] and
       [split_members] are built on the jump. *)
    Test.make ~name:"jump = n sequential splits (split_n, split_members)"
      ~count:200
      (triple int (oneofl [ 0; 1; 2; 1000 ]) (int_range 0 999))
      (fun (seed, n, k) ->
        let draws r = List.init 64 (fun _ -> Rng.bits64 r) in
        let same a b = List.for_all2 Int64.equal (draws a) (draws b) in
        let oracle = Rng.create ~seed in
        let children = Array.init n (fun _ -> Rng.split oracle) in
        let jumped = Rng.create ~seed in
        let streams = Rng.jump jumped n in
        let via_n = Rng.create ~seed in
        let split = Rng.split_n via_n n in
        let via_members = Rng.create ~seed in
        let k = if n = 0 then 0 else k mod n in
        let ids = if n = 0 then [||] else [| k |] in
        let members = Rng.split_members via_members n ids in
        let parents_agree =
          List.for_all
            (fun r -> same (Rng.copy oracle) r)
            [ jumped; via_n; via_members ]
        in
        parents_agree
        && Array.length split = n
        && Array.length members = n
        && (n = 0
           ||
           let want () = Rng.copy children.(k) in
           same (want ()) (Rng.stream streams k)
           && same (want ()) split.(k)
           && same (want ()) members.(k)));
    Test.make ~name:"stream rejects indices outside [0, n)" ~count:100
      (pair (int_range 0 50) (oneof [ int_range (-1000) (-1); int_range 0 100 ]))
      (fun (n, k) ->
        let s = Rng.jump (Rng.create ~seed:n) n in
        match Rng.stream s k with
        | _ -> k < n
        | exception Invalid_argument _ -> k < 0 || k >= n);
    (* coin_pow2 is the float ladder draw for draw: same answer, and the
       same stream position afterwards (so e = 0 and e >= 62 consume
       nothing, exactly like the clamped bernoulli). *)
    Test.make ~name:"coin_pow2 = bernoulli on the float ladder, e in [0, 80]"
      ~count:200 int
      (fun seed ->
        let rng = Rng.create ~seed in
        List.for_all
          (fun e ->
            let oracle = Rng.copy rng in
            let want =
              Rng.bernoulli oracle (1.0 /. float_of_int (1 lsl min e 62))
            in
            let got = Rng.coin_pow2 rng e in
            Bool.equal got want
            && Int64.equal (Rng.bits64 rng) (Rng.bits64 oracle))
          (List.init 81 (fun e -> e)));
    Test.make ~name:"coin_pow2 on Decay.exponent = float ladder across wrap"
      ~count:300
      (triple int (int_range 1 20) (int_range 0 500))
      (fun (seed, ladder, r) ->
        let rng = Rng.create ~seed in
        let oracle = Rng.copy rng in
        (* The ladder's float form: 2^-((r mod ladder) + 1). *)
        let want = Rng.bernoulli oracle (ldexp 1.0 (-((r mod ladder) + 1))) in
        let e = Rn_broadcast.Decay.exponent ~ladder r in
        Bool.equal (Rng.coin_pow2 rng e) want
        && Int64.equal (Rng.bits64 rng) (Rng.bits64 oracle));
    Test.make ~name:"coin_pow2 rejects negative exponents" ~count:100
      (pair int (oneof [ int_range (-1000) (-1); oneofl [ min_int; -62 ] ]))
      (fun (seed, e) ->
        match Rng.coin_pow2 (Rng.create ~seed) e with
        | _ -> false
        | exception Invalid_argument _ -> true);
    Test.make ~name:"ceil_log2 is tight" ~count:500 (int_range 1 100_000)
      (fun n ->
        let c = Ilog.ceil_log2 n in
        (1 lsl c) >= n && (c = 0 || 1 lsl (c - 1) < n));
    Test.make ~name:"floor_log2 is tight" ~count:500 (int_range 1 100_000)
      (fun n ->
        let f = Ilog.floor_log2 n in
        (1 lsl f) <= n && n < 1 lsl (f + 1));
    Test.make ~name:"isqrt correct" ~count:500 (int_range 0 1_000_000) (fun n ->
        let r = Ilog.isqrt n in
        (r * r) <= n && (r + 1) * (r + 1) > n);
    Test.make ~name:"median between min and max" ~count:200
      (list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
      (fun l ->
        let a = Array.of_list l in
        let m = Stats.median a in
        let s = Stats.summarize a in
        m >= s.Stats.min && m <= s.Stats.max);
    Test.make ~name:"percentile interpolates between order statistics"
      ~count:300
      (pair
         (list_of_size (Gen.int_range 1 40) (float_range (-50.) 50.))
         (float_range 0. 100.))
      (fun (l, p) ->
        let a = Array.of_list l in
        let sorted = Array.copy a in
        Array.sort Float.compare sorted;
        let v = Stats.percentile a p in
        let n = Array.length sorted in
        let rank = p /. 100. *. float_of_int (n - 1) in
        let lo = sorted.(int_of_float (floor rank))
        and hi = sorted.(int_of_float (ceil rank)) in
        Float.compare lo v <= 0 && Float.compare v hi <= 0);
    Test.make ~name:"summary min/max are the extreme percentiles" ~count:200
      (list_of_size (Gen.int_range 1 40) (float_range (-100.) 100.))
      (fun l ->
        let a = Array.of_list l in
        let s = Stats.summarize a in
        Float.compare s.Stats.min (Stats.percentile a 0.0) = 0
        && Float.compare s.Stats.max (Stats.percentile a 100.0) = 0);
    Test.make ~name:"shuffle preserves multiset" ~count:200
      (list_of_size (Gen.int_range 0 30) small_int)
      (fun l ->
        let a = Array.of_list l in
        let rng = Rng.create ~seed:1 in
        Rng.shuffle rng a;
        let x = List.sort compare (Array.to_list a) in
        x = List.sort compare l);
    (* --- the three parse_obj audit properties (ISSUE 10) ------------- *)
    (* 1. integer exactness: every native int round-trips bit-exactly,
       and an integral literal beyond the native range is an Error, never
       a silently-lossy Float. *)
    Test.make ~name:"jsons int literals round-trip exactly" ~count:500
      (oneof [ int; oneofl [ max_int; min_int; 0; -1; 1 ] ])
      (fun i ->
        match Jsons.parse_obj (Printf.sprintf "{\"v\":%d}" i) with
        | Ok f -> Jsons.int_mem "v" f = Some i
        | Error _ -> false);
    Test.make ~name:"jsons out-of-range integer literal is an error"
      ~count:300
      (pair (int_range 0 1_000_000) bool)
      (fun (i, neg) ->
        (* 9<digits>000000000000000000 has ≥ 19 significant digits with a
           leading 9, so it always exceeds |min_int| = 2^62. *)
        let lit =
          Printf.sprintf "%s9%d000000000000000000" (if neg then "-" else "") i
        in
        match Jsons.parse_obj (Printf.sprintf "{\"v\":%s}" lit) with
        | Ok _ -> false
        | Error msg ->
            (* pinned: rejected as out-of-range, not mistyped as float *)
            let needle = "out of native range" in
            let k = String.length needle in
            let rec find i =
              i + k <= String.length msg
              && (String.equal (String.sub msg i k) needle || find (i + 1))
            in
            find 0);
    (* 2. surrogates: a valid pair decodes to the supplementary-plane
       scalar's 4-byte UTF-8; a lone half is an error. *)
    Test.make ~name:"jsons surrogate pair decodes to 4-byte UTF-8" ~count:300
      (int_range 0x10000 0x10FFFF)
      (fun cp ->
        let u = cp - 0x10000 in
        let hi = 0xd800 lor (u lsr 10) and lo = 0xdc00 lor (u land 0x3ff) in
        let line = Printf.sprintf "{\"v\":\"\\u%04x\\u%04x\"}" hi lo in
        let expect =
          let b = Bytes.create 4 in
          Bytes.set b 0 (Char.chr (0xf0 lor (cp lsr 18)));
          Bytes.set b 1 (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
          Bytes.set b 2 (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
          Bytes.set b 3 (Char.chr (0x80 lor (cp land 0x3f)));
          Bytes.to_string b
        in
        match Jsons.parse_obj line with
        | Ok f -> Jsons.str_mem "v" f = Some expect
        | Error _ -> false);
    Test.make ~name:"jsons lone surrogate half is an error" ~count:300
      (pair (int_range 0xd800 0xdfff) bool)
      (fun (half, pad) ->
        (* alone, or followed by a non-surrogate escape: both invalid *)
        let tail = if pad then "\\u0041" else "" in
        let line = Printf.sprintf "{\"v\":\"\\u%04x%s\"}" half tail in
        match Jsons.parse_obj line with Ok _ -> false | Error _ -> true);
    (* 3. duplicate keys: both bindings survive in source order and every
       accessor resolves first-wins — pinned because journal-merge
       duplicate resolution depends on it. *)
    Test.make ~name:"jsons duplicate keys resolve first-wins" ~count:300
      (triple (int_range 0 9) int int)
      (fun (koffset, v1, v2) ->
        let k = Printf.sprintf "k%d" koffset in
        let line =
          Printf.sprintf "{\"%s\":%d,\"other\":true,\"%s\":%d}" k v1 k v2
        in
        match Jsons.parse_obj line with
        | Error _ -> false
        | Ok f ->
            Jsons.int_mem k f = Some v1
            && Jsons.mem k f = Some (Jsons.Int v1)
            && List.length (List.filter (fun (k', _) -> String.equal k' k) f)
               = 2);
  ]

let () =
  Alcotest.run "rn_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformish;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "golden bits64" `Quick test_rng_golden_bits64;
          Alcotest.test_case "golden split" `Quick test_rng_golden_split;
          Alcotest.test_case "golden typed draws" `Quick test_rng_golden_draws;
          Alcotest.test_case "coin_pow2 negative exponent" `Quick
            test_rng_coin_pow2_negative;
        ] );
      ( "ilog",
        [
          Alcotest.test_case "small values" `Quick test_ilog_small_values;
          Alcotest.test_case "pow" `Quick test_ilog_pow;
          Alcotest.test_case "pow overflow boundaries" `Quick
            test_ilog_pow_overflow;
          Alcotest.test_case "isqrt" `Quick test_ilog_isqrt;
          Alcotest.test_case "cdiv" `Quick test_ilog_cdiv;
          Alcotest.test_case "invalid input" `Quick test_ilog_invalid;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "median/percentile" `Quick test_stats_median_percentile;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "linear fit exact" `Quick test_stats_linear_fit_exact;
          Alcotest.test_case "linear fit r2" `Quick test_stats_linear_fit_r2;
          Alcotest.test_case "two-predictor exact" `Quick test_stats_two_predictor_exact;
          Alcotest.test_case "two-predictor singular" `Quick test_stats_two_predictor_singular;
          Alcotest.test_case "ratio spread" `Quick test_stats_ratio_spread;
          Alcotest.test_case "NaN summary (Float.compare folds)" `Quick
            test_stats_nan_summary;
          Alcotest.test_case "ratio spread zero-x edges" `Quick
            test_stats_ratio_spread_zero;
        ] );
      ( "jsons",
        [
          Alcotest.test_case "known escapes" `Quick test_jsons_known_escapes;
          Alcotest.test_case "int_array" `Quick test_jsons_int_array;
          Alcotest.test_case "parse_obj" `Quick test_jsons_parse_obj;
          Alcotest.test_case "member accessors" `Quick test_jsons_members;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
