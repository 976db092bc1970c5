(* Pure emitters: every function returns strings; callers that own a
   console or a file (bench/, bin/) do the writing.  Field order and
   formatting are fixed so output is byte-comparable across runs and
   across engines. *)

(* One JSONL line per retained round, chronological (oldest first).  If the
   run outlived the ring capacity only the last [ring_capacity] rounds are
   present — callers size the ring at create time to retain a full run. *)
let round_jsonl m =
  List.init (Metrics.ring_length m) (fun i ->
      let round, phase, tx, del, col = Metrics.ring_get m i in
      Printf.sprintf
        {|{"round":%d,"phase":%d,"tx":%d,"deliveries":%d,"collisions":%d}|}
        round phase tx del col)

let phase_row m p =
  Printf.sprintf
    {|{"phase":%d,"rounds":%d,"tx":%d,"deliveries":%d,"collisions":%d}|} p
    (Metrics.phase_rounds m p)
    (Metrics.phase_transmissions m p)
    (Metrics.phase_deliveries m p)
    (Metrics.phase_collisions m p)

let phases_jsonl m = List.init (Metrics.phases_used m) (phase_row m)

let phases_csv m =
  "phase,rounds,tx,deliveries,collisions"
  :: List.init (Metrics.phases_used m) (fun p ->
         Printf.sprintf "%d,%d,%d,%d,%d" p
           (Metrics.phase_rounds m p)
           (Metrics.phase_transmissions m p)
           (Metrics.phase_deliveries m p)
           (Metrics.phase_collisions m p))

(* Histogram rows for bins up to the last non-empty one. *)
let hist_used m =
  let last = ref 0 in
  for b = 0 to Metrics.hist_bins m - 1 do
    if Metrics.hist_get m b > 0 then last := b + 1
  done;
  !last

let hist_csv m =
  let w = Metrics.hist_width m in
  "bin,round_lo,round_hi,count"
  :: List.init (hist_used m) (fun b ->
         Printf.sprintf "%d,%d,%d,%d" b (b * w)
           (((b + 1) * w) - 1)
           (Metrics.hist_get m b))

let summary_json m =
  Printf.sprintf
    {|{"rounds":%d,"tx":%d,"deliveries":%d,"collisions":%d,"phases":%d,"receives":%d}|}
    (Metrics.rounds m)
    (Metrics.transmissions m)
    (Metrics.deliveries m)
    (Metrics.collisions m)
    (Metrics.phases_used m)
    (Metrics.hist_count m)
