open Rn_util
open Rn_coding

let rng () = Rng.create ~seed:777

(* ------------------------------------------------------------------ *)
(* Bitvec *)

let test_bitvec_get_set () =
  let v = Bitvec.create 130 in
  Alcotest.(check int) "length" 130 (Bitvec.length v);
  Alcotest.(check bool) "initially zero" true (Bitvec.is_zero v);
  Bitvec.set v 0 true;
  Bitvec.set v 63 true;
  Bitvec.set v 129 true;
  Alcotest.(check bool) "bit 0" true (Bitvec.get v 0);
  Alcotest.(check bool) "bit 63" true (Bitvec.get v 63);
  Alcotest.(check bool) "bit 129" true (Bitvec.get v 129);
  Alcotest.(check bool) "bit 64" false (Bitvec.get v 64);
  Alcotest.(check int) "popcount" 3 (Bitvec.popcount v);
  Bitvec.set v 63 false;
  Alcotest.(check bool) "cleared" false (Bitvec.get v 63)

let test_bitvec_out_of_bounds () =
  let v = Bitvec.create 8 in
  Alcotest.(check bool) "get oob raises" true
    (try
       ignore (Bitvec.get v 8);
       false
     with Invalid_argument _ -> true)

let test_bitvec_xor () =
  let a = Bitvec.of_string "1100" and b = Bitvec.of_string "1010" in
  Bitvec.xor_into ~dst:a b;
  Alcotest.(check string) "xor" "0110" (Bitvec.to_string a)

let test_bitvec_dot () =
  let a = Bitvec.of_string "1101" in
  Alcotest.(check bool) "odd overlap" true (Bitvec.dot a (Bitvec.of_string "1000"));
  Alcotest.(check bool) "even overlap" false (Bitvec.dot a (Bitvec.of_string "1100"));
  Alcotest.(check bool) "zero" false (Bitvec.dot a (Bitvec.of_string "0000"))

let test_bitvec_first_set () =
  Alcotest.(check (option int)) "none" None (Bitvec.first_set (Bitvec.create 70));
  Alcotest.(check (option int)) "bit 65" (Some 65)
    (Bitvec.first_set (Bitvec.unit 70 65));
  let v = Bitvec.of_string "00100100" in
  Alcotest.(check (option int)) "lowest" (Some 2) (Bitvec.first_set v)

let test_bitvec_string_roundtrip () =
  let s = "10110010011" in
  Alcotest.(check string) "roundtrip" s (Bitvec.to_string (Bitvec.of_string s))

let test_bitvec_unit () =
  let v = Bitvec.unit 5 3 in
  Alcotest.(check string) "unit" "00010" (Bitvec.to_string v)

let test_bitvec_clear_range () =
  (* Exhaustive over every [lo, hi) window of a 130-bit vector (three
     words), so every boundary offset is hit — including [hi - 1] at the
     top bit of a word, where a one-step mask shift would be an
     unspecified full-word [lsl] (a real bug once: [lsl] is
     right-associative, so an unparenthesized two-step shift composed the
     shift counts and left stale bits behind). *)
  let len = 130 in
  for lo = 0 to len do
    for hi = lo to len do
      let v = Bitvec.create len in
      for i = 0 to len - 1 do
        Bitvec.set v i true
      done;
      Bitvec.clear_range v ~lo ~hi;
      for i = 0 to len - 1 do
        let expect = i < lo || i >= hi in
        if Bitvec.get v i <> expect then
          Alcotest.failf "clear_range ~lo:%d ~hi:%d: bit %d = %b" lo hi i
            (not expect)
      done
    done
  done;
  Alcotest.(check_raises) "lo > hi rejected"
    (Invalid_argument "Bitvec.clear_range") (fun () ->
      Bitvec.clear_range (Bitvec.create 8) ~lo:5 ~hi:4)

(* rblint:allow R9 literal indices 62..64 against a fresh 100-bit vector; the test exercises the unchecked accessors themselves *)
let test_bitvec_unsafe_bits () =
  let v = Bitvec.create 100 in
  Bitvec.unsafe_set v 62;
  Bitvec.unsafe_set v 63;
  Alcotest.(check bool) "set 62" true (Bitvec.unsafe_get v 62);
  Alcotest.(check bool) "set 63" true (Bitvec.unsafe_get v 63);
  Alcotest.(check bool) "others untouched" false (Bitvec.unsafe_get v 64);
  Bitvec.unsafe_clear v 62;
  Alcotest.(check bool) "cleared 62" false (Bitvec.unsafe_get v 62);
  Alcotest.(check bool) "63 survives" true (Bitvec.unsafe_get v 63)

(* ------------------------------------------------------------------ *)
(* Rlnc *)

let random_msgs rng ~k ~len = Array.init k (fun _ -> Bitvec.random rng len)

let test_rlnc_source_packets_decode () =
  let rng = rng () in
  let msgs = random_msgs rng ~k:5 ~len:32 in
  let d = Rlnc.create ~k:5 ~msg_len:32 in
  Array.iteri
    (fun i _ ->
      let innovative = Rlnc.receive d (Rlnc.source_packet ~msgs i) in
      Alcotest.(check bool) "each source packet innovative" true innovative)
    msgs;
  Alcotest.(check bool) "can decode" true (Rlnc.can_decode d);
  match Rlnc.decode d with
  | None -> Alcotest.fail "decode failed"
  | Some out ->
      Array.iteri
        (fun i m ->
          Alcotest.(check string) "message recovered" (Bitvec.to_string msgs.(i))
            (Bitvec.to_string m))
        out

let test_rlnc_duplicate_not_innovative () =
  let rng = rng () in
  let msgs = random_msgs rng ~k:3 ~len:16 in
  let d = Rlnc.create ~k:3 ~msg_len:16 in
  let p = Rlnc.source_packet ~msgs 0 in
  Alcotest.(check bool) "first" true (Rlnc.receive d p);
  Alcotest.(check bool) "duplicate" false (Rlnc.receive d (Rlnc.source_packet ~msgs 0));
  Alcotest.(check int) "rank" 1 (Rlnc.rank d)

let test_rlnc_coded_packets_decode () =
  let rng = rng () in
  let k = 8 in
  let msgs = random_msgs rng ~k ~len:24 in
  let d = Rlnc.create ~k ~msg_len:24 in
  (* Feed random coded packets until full rank; must happen quickly. *)
  let steps = ref 0 in
  while not (Rlnc.can_decode d) && !steps < 200 do
    incr steps;
    let coeffs = Bitvec.random rng k in
    ignore (Rlnc.receive d (Rlnc.packet_of_coeffs ~msgs coeffs))
  done;
  Alcotest.(check bool) "decodes from random packets" true (Rlnc.can_decode d);
  Alcotest.(check bool) "within 3k packets" true (!steps <= 3 * k);
  match Rlnc.decode d with
  | None -> Alcotest.fail "decode failed"
  | Some out ->
      Array.iteri
        (fun i m ->
          Alcotest.(check string) "message recovered" (Bitvec.to_string msgs.(i))
            (Bitvec.to_string m))
        out

let test_rlnc_relay_chain () =
  (* Source -> relay -> sink, all by re-encoding: sink must still decode. *)
  let rng = rng () in
  let k = 6 in
  let msgs = random_msgs rng ~k ~len:16 in
  let src = Rlnc.create ~k ~msg_len:16 in
  Rlnc.seed_with_sources src ~msgs;
  Alcotest.(check bool) "source decodes" true (Rlnc.can_decode src);
  let relay = Rlnc.create ~k ~msg_len:16 and sink = Rlnc.create ~k ~msg_len:16 in
  let step () =
    (match Rlnc.encode rng src with
    | Some p -> ignore (Rlnc.receive relay p)
    | None -> ());
    match Rlnc.encode rng relay with
    | Some p -> ignore (Rlnc.receive sink p)
    | None -> ()
  in
  let steps = ref 0 in
  while not (Rlnc.can_decode sink) && !steps < 500 do
    incr steps;
    step ()
  done;
  Alcotest.(check bool) "sink decodes through relay" true (Rlnc.can_decode sink);
  match Rlnc.decode sink with
  | Some out ->
      Array.iteri
        (fun i m ->
          Alcotest.(check string) "payload intact" (Bitvec.to_string msgs.(i))
            (Bitvec.to_string m))
        out
  | None -> Alcotest.fail "decode failed"

let test_rlnc_infection_monotone () =
  let rng = rng () in
  let k = 4 in
  let msgs = random_msgs rng ~k ~len:8 in
  let d = Rlnc.create ~k ~msg_len:8 in
  let mu = Bitvec.of_string "1010" in
  Alcotest.(check bool) "not infected initially" false (Rlnc.infected d mu);
  ignore (Rlnc.receive d (Rlnc.source_packet ~msgs 0));
  Alcotest.(check bool) "infected by e0 (mu_0 = 1)" true (Rlnc.infected d mu);
  let mu' = Bitvec.of_string "0101" in
  Alcotest.(check bool) "not infected for orthogonal mu" false (Rlnc.infected d mu')

let test_rlnc_infected_all_iff_full_rank () =
  (* Proposition 3.9 second part: infected by all 2^k - 1 nonzero vectors
     iff the span is the full space. *)
  let rng = rng () in
  let k = 4 in
  let msgs = random_msgs rng ~k ~len:8 in
  let d = Rlnc.create ~k ~msg_len:8 in
  for i = 0 to k - 2 do
    ignore (Rlnc.receive d (Rlnc.source_packet ~msgs i))
  done;
  (* rank k-1: some nonzero mu must be uninfected *)
  let some_uninfected = ref false in
  for code = 1 to (1 lsl k) - 1 do
    let mu = Bitvec.create k in
    for b = 0 to k - 1 do
      if (code lsr b) land 1 = 1 then Bitvec.set mu b true
    done;
    if not (Rlnc.infected d mu) then some_uninfected := true
  done;
  Alcotest.(check bool) "rank k-1 leaves a blind spot" true !some_uninfected;
  ignore (Rlnc.receive d (Rlnc.source_packet ~msgs (k - 1)));
  for code = 1 to (1 lsl k) - 1 do
    let mu = Bitvec.create k in
    for b = 0 to k - 1 do
      if (code lsr b) land 1 = 1 then Bitvec.set mu b true
    done;
    Alcotest.(check bool) "full rank infects all" true (Rlnc.infected d mu)
  done

let test_rlnc_encode_in_span () =
  let rng = rng () in
  let k = 5 in
  let msgs = random_msgs rng ~k ~len:12 in
  let d = Rlnc.create ~k ~msg_len:12 in
  ignore (Rlnc.receive d (Rlnc.source_packet ~msgs 1));
  ignore (Rlnc.receive d (Rlnc.source_packet ~msgs 3));
  for _ = 1 to 50 do
    match Rlnc.encode rng d with
    | None -> Alcotest.fail "encode should produce packets"
    | Some p ->
        (* Coefficients must lie in span{e1, e3}. *)
        for b = 0 to k - 1 do
          if b <> 1 && b <> 3 then
            Alcotest.(check bool) "outside-span coeff zero" false
              (Bitvec.get p.Rlnc.coeffs b)
        done;
        (* Payload must match the coefficient combination. *)
        let expect = Rlnc.packet_of_coeffs ~msgs p.Rlnc.coeffs in
        Alcotest.(check string) "payload consistent"
          (Bitvec.to_string expect.Rlnc.payload)
          (Bitvec.to_string p.Rlnc.payload)
  done

let test_rlnc_empty_encode () =
  let d = Rlnc.create ~k:3 ~msg_len:4 in
  Alcotest.(check bool) "no packets before reception" true
    (Rlnc.encode (rng ()) d = None)

(* ------------------------------------------------------------------ *)
(* Fec *)

let test_fec_decodes_with_slack () =
  let rng = rng () in
  let k = 10 in
  let msgs = random_msgs rng ~k ~len:20 in
  let count = k + 10 in
  let packets = Fec.encode rng ~msgs ~count in
  Alcotest.(check int) "packet count" count (Array.length packets);
  let d = Rlnc.create ~k ~msg_len:20 in
  Array.iter (fun p -> ignore (Rlnc.receive d p)) packets;
  Alcotest.(check bool) "decodes" true (Rlnc.can_decode d);
  match Rlnc.decode d with
  | Some out ->
      Array.iteri
        (fun i m ->
          Alcotest.(check string) "batch intact" (Bitvec.to_string msgs.(i))
            (Bitvec.to_string m))
        out
  | None -> Alcotest.fail "decode failed"

let test_fec_no_zero_packets () =
  let rng = rng () in
  let msgs = random_msgs rng ~k:4 ~len:8 in
  let packets = Fec.encode rng ~msgs ~count:40 in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "nonzero coefficients" false
        (Bitvec.is_zero p.Rlnc.coeffs))
    packets

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"xor is involutive" ~count:300
      (pair (int_range 1 200) (int_range 0 10_000))
      (fun (len, seed) ->
        let rng = Rng.create ~seed in
        let a = Bitvec.random rng len and b = Bitvec.random rng len in
        let a0 = Bitvec.copy a in
        Bitvec.xor_into ~dst:a b;
        Bitvec.xor_into ~dst:a b;
        Bitvec.equal a a0);
    Test.make ~name:"dot is bilinear in first arg" ~count:300
      (pair (int_range 1 100) (int_range 0 10_000))
      (fun (len, seed) ->
        let rng = Rng.create ~seed in
        let a = Bitvec.random rng len
        and b = Bitvec.random rng len
        and c = Bitvec.random rng len in
        let ab = Bitvec.copy a in
        Bitvec.xor_into ~dst:ab b;
        Bitvec.dot ab c = (Bitvec.dot a c <> Bitvec.dot b c));
    Test.make ~name:"rank never exceeds k and is monotone" ~count:100
      (pair (int_range 1 10) (int_range 0 10_000))
      (fun (k, seed) ->
        let rng = Rng.create ~seed in
        let msgs = Array.init k (fun _ -> Bitvec.random rng 8) in
        let d = Rlnc.create ~k ~msg_len:8 in
        let ok = ref true and prev = ref 0 in
        for _ = 1 to 30 do
          ignore (Rlnc.receive d (Rlnc.packet_of_coeffs ~msgs (Bitvec.random rng k)));
          let r = Rlnc.rank d in
          if r < !prev || r > k then ok := false;
          prev := r
        done;
        !ok);
    Test.make ~name:"decode inverts encode for any reception order" ~count:100
      (pair (int_range 1 8) (int_range 0 10_000))
      (fun (k, seed) ->
        let rng = Rng.create ~seed in
        let msgs = Array.init k (fun _ -> Bitvec.random rng 16) in
        let idx = Array.init k (fun i -> i) in
        Rng.shuffle rng idx;
        let d = Rlnc.create ~k ~msg_len:16 in
        Array.iter (fun i -> ignore (Rlnc.receive d (Rlnc.source_packet ~msgs i))) idx;
        match Rlnc.decode d with
        | None -> false
        | Some out ->
            Array.for_all2 (fun a b -> Bitvec.equal a b) msgs out);
    Test.make ~name:"infection is preserved by innovative receptions" ~count:100
      (pair (int_range 2 8) (int_range 0 10_000))
      (fun (k, seed) ->
        let rng = Rng.create ~seed in
        let msgs = Array.init k (fun _ -> Bitvec.random rng 8) in
        let d = Rlnc.create ~k ~msg_len:8 in
        let mu = Bitvec.random rng k in
        let ok = ref true in
        for _ = 1 to 20 do
          let was = Rlnc.infected d mu in
          ignore (Rlnc.receive d (Rlnc.packet_of_coeffs ~msgs (Bitvec.random rng k)));
          if was && not (Rlnc.infected d mu) then ok := false
        done;
        !ok);
  ]

let () =
  Alcotest.run "rn_coding"
    [
      ( "bitvec",
        [
          Alcotest.test_case "get/set" `Quick test_bitvec_get_set;
          Alcotest.test_case "bounds" `Quick test_bitvec_out_of_bounds;
          Alcotest.test_case "xor" `Quick test_bitvec_xor;
          Alcotest.test_case "dot" `Quick test_bitvec_dot;
          Alcotest.test_case "first_set" `Quick test_bitvec_first_set;
          Alcotest.test_case "string roundtrip" `Quick test_bitvec_string_roundtrip;
          Alcotest.test_case "unit vector" `Quick test_bitvec_unit;
          Alcotest.test_case "clear_range exhaustive" `Quick
            test_bitvec_clear_range;
          Alcotest.test_case "unsafe bit ops" `Quick test_bitvec_unsafe_bits;
        ] );
      ( "rlnc",
        [
          Alcotest.test_case "source packets decode" `Quick
            test_rlnc_source_packets_decode;
          Alcotest.test_case "duplicates not innovative" `Quick
            test_rlnc_duplicate_not_innovative;
          Alcotest.test_case "coded packets decode" `Quick
            test_rlnc_coded_packets_decode;
          Alcotest.test_case "relay chain" `Quick test_rlnc_relay_chain;
          Alcotest.test_case "infection basic" `Quick test_rlnc_infection_monotone;
          Alcotest.test_case "infected-all iff full rank" `Quick
            test_rlnc_infected_all_iff_full_rank;
          Alcotest.test_case "encode stays in span" `Quick test_rlnc_encode_in_span;
          Alcotest.test_case "empty encode" `Quick test_rlnc_empty_encode;
        ] );
      ( "fec",
        [
          Alcotest.test_case "decodes with slack" `Quick test_fec_decodes_with_slack;
          Alcotest.test_case "no zero packets" `Quick test_fec_no_zero_packets;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
