(* Registry population: one [Rn_radio.Registry.entry] per pipeline.

   This is the single source of truth behind rbcast's [--proto]
   enumeration, bench's registry sweep, and test_contracts' injection
   harness.  rblint rule R14 (DESIGN.md §13) checks the converse: every
   engine-driving pipeline in lib/ must be reachable from one of the
   [Registry.register] calls below. *)

open Rn_util
open Rn_graph
open Rn_coding
open Rn_radio

let k_or = function Some k -> k | None -> 8

let stat_details (s : Engine.stats) =
  [
    ("transmissions", string_of_int s.Engine.transmissions);
    ("deliveries", string_of_int s.Engine.deliveries);
    ("collisions", string_of_int s.Engine.collisions);
  ]

let all_received a = Array.for_all (fun r -> r >= 0) a

let decay_entry =
  {
    Registry.name = "decay";
    summary = "classic Decay broadcast (Bar-Yehuda-Goldreich-Itai baseline)";
    multi = false;
    traceable = true;
    silence_pure = true;
    run =
      (fun ?k:_ ?metrics ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let r = Decay.broadcast ?metrics ~rng ~graph ~source () in
        {
          Registry.rounds = Engine.rounds_of_outcome r.Decay.outcome;
          delivered = all_received r.Decay.received_round;
          details = stat_details r.Decay.stats;
        });
  }

let cr_entry =
  {
    Registry.name = "cr";
    summary = "Czumaj-Rytter Decay variant driven by the diameter estimate";
    multi = false;
    traceable = true;
    silence_pure = true;
    run =
      (fun ?k:_ ?metrics ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let diameter = Bfs.eccentricity graph source in
        let r = Decay.broadcast ~diameter ?metrics ~rng ~graph ~source () in
        {
          Registry.rounds = Engine.rounds_of_outcome r.Decay.outcome;
          delivered = all_received r.Decay.received_round;
          details = stat_details r.Decay.stats;
        });
  }

let mmv_entry =
  {
    Registry.name = "mmv";
    summary = "level-keyed MMV Decay schedule of Lemma 3.2 (needs BFS levels)";
    multi = false;
    traceable = false;
    silence_pure = true;
    run =
      (fun ?k:_ ?metrics:_ ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let levels = Bfs.levels graph ~src:source in
        let r = Decay.mmv_broadcast ~rng ~graph ~levels ~source () in
        {
          Registry.rounds = Engine.rounds_of_outcome r.Decay.outcome;
          delivered = all_received r.Decay.received_round;
          details = stat_details r.Decay.stats;
        });
  }

let gst_entry =
  {
    Registry.name = "gst";
    summary = "GST schedule broadcast over a centralized tree (known topology)";
    multi = false;
    traceable = true;
    silence_pure = true;
    run =
      (fun ?k:_ ?metrics ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let gst = Gst.build_centralized ~graph ~roots:[| source |] () in
        let vd = Gst.virtual_distances gst in
        let msgs = [| Bitvec.random rng 32 |] in
        let r =
          Gst_broadcast.run ?metrics ~rng ~gst ~vd ~msgs
            ~sources:[| source |] ()
        in
        {
          Registry.rounds = r.Gst_broadcast.rounds;
          delivered = all_received r.Gst_broadcast.decode_round && r.Gst_broadcast.payloads_ok;
          details =
            ("payloads_ok", string_of_bool r.Gst_broadcast.payloads_ok)
            :: stat_details r.Gst_broadcast.stats;
        });
  }

let thm11_entry =
  {
    Registry.name = "thm11";
    summary = "Theorem 1.1 single-message broadcast (layering + GST + rings)";
    multi = false;
    traceable = false;
    (* The GST construction's self-test phase treats Silence as evidence
       (rblint:allow R11 in gst_distributed.ml), so spurious Silence
       injection legitimately perturbs this pipeline. *)
    silence_pure = false;
    run =
      (fun ?k:_ ?metrics:_ ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let r = Single_broadcast.run ~rng ~graph ~source () in
        {
          Registry.rounds = r.Single_broadcast.rounds_total;
          delivered = r.Single_broadcast.delivered;
          details =
            [
              ("rounds_layering", string_of_int r.Single_broadcast.rounds_layering);
              ("rounds_construction", string_of_int r.Single_broadcast.rounds_construction);
              ("rounds_broadcast", string_of_int r.Single_broadcast.rounds_broadcast);
              ("ring_count", string_of_int r.Single_broadcast.ring_count);
            ];
        });
  }

let estimate_entry =
  {
    Registry.name = "estimate";
    summary = "beep-wave diameter 2-approximation (footnote 2)";
    multi = false;
    traceable = false;
    silence_pure = true;
    run =
      (fun ?k:_ ?metrics:_ ~seed:_ ~graph ~source () ->
        let r = Diameter_estimate.run ~graph ~source () in
        {
          Registry.rounds = r.Diameter_estimate.rounds;
          delivered = r.Diameter_estimate.estimate >= r.Diameter_estimate.eccentricity;
          details =
            [
              ("estimate", string_of_int r.Diameter_estimate.estimate);
              ("eccentricity", string_of_int r.Diameter_estimate.eccentricity);
            ];
        });
  }

let gst_dist_entry =
  {
    Registry.name = "gst-dist";
    summary = "distributed GST construction (Theorem 2.1, pipelined)";
    multi = false;
    traceable = false;
    (* Same self-test caveat as thm11. *)
    silence_pure = false;
    run =
      (fun ?k:_ ?metrics:_ ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let r =
          Gst_distributed.construct ~learn_vd:true ~rng ~graph
            ~roots:[| source |] ()
        in
        {
          Registry.rounds = r.Gst_distributed.total_rounds;
          delivered =
            (match Gst.validate r.Gst_distributed.gst with
            | Ok () -> true
            | Error _ -> false);
          details =
            [
              ("layering_rounds", string_of_int r.Gst_distributed.layering_rounds);
              ("assignment_rounds", string_of_int r.Gst_distributed.assignment_rounds);
              ("selftest_rounds", string_of_int r.Gst_distributed.selftest_rounds);
              ("vd_rounds", string_of_int r.Gst_distributed.vd_rounds);
            ];
        });
  }

let known_entry =
  {
    Registry.name = "known";
    summary = "Theorem 1.2 k-message broadcast (known topology)";
    multi = true;
    traceable = false;
    silence_pure = true;
    run =
      (fun ?k ?metrics:_ ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let r = Multi_broadcast.known ~rng ~graph ~source ~k:(k_or k) () in
        {
          Registry.rounds = r.Multi_broadcast.rounds;
          delivered = r.Multi_broadcast.delivered;
          details = [ ("payloads_ok", string_of_bool r.Multi_broadcast.payloads_ok) ];
        });
  }

let unknown_entry =
  {
    Registry.name = "unknown";
    summary = "Theorem 1.3 k-message broadcast (unknown topology)";
    multi = true;
    traceable = false;
    (* Uses the distributed GST construction; see thm11. *)
    silence_pure = false;
    run =
      (fun ?k ?metrics:_ ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let r = Multi_broadcast.unknown ~rng ~graph ~source ~k:(k_or k) () in
        {
          Registry.rounds = r.Multi_broadcast.rounds_total;
          delivered = r.Multi_broadcast.delivered;
          details =
            [
              ("ring_count", string_of_int r.Multi_broadcast.ring_count);
              ("batch_count", string_of_int r.Multi_broadcast.batch_count);
              ("epochs", string_of_int r.Multi_broadcast.epochs);
              ("payloads_ok", string_of_bool r.Multi_broadcast.payloads_ok);
            ];
        });
  }

let routing_entry =
  {
    Registry.name = "routing";
    summary = "per-message routing baseline for k-message broadcast";
    multi = true;
    traceable = false;
    silence_pure = true;
    run =
      (fun ?k ?metrics:_ ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let r = Baselines.routing_multi ~rng ~graph ~source ~k:(k_or k) () in
        {
          Registry.rounds = r.Baselines.rounds;
          delivered = r.Baselines.delivered;
          details = stat_details r.Baselines.stats;
        });
  }

let sequential_entry =
  {
    Registry.name = "sequential";
    summary = "k sequential Decay broadcasts baseline";
    multi = true;
    traceable = false;
    silence_pure = true;
    run =
      (fun ?k ?metrics:_ ~seed ~graph ~source () ->
        let rng = Rng.create ~seed in
        let r = Baselines.sequential_multi ~rng ~graph ~source ~k:(k_or k) () in
        {
          Registry.rounds = r.Baselines.rounds;
          delivered = r.Baselines.delivered;
          details = stat_details r.Baselines.stats;
        });
  }

let registered = Atomic.make false

let ensure_registered () =
  if not (Atomic.exchange registered true) then
    List.iter Registry.register
      [
        decay_entry; cr_entry; mmv_entry; gst_entry; thm11_entry;
        estimate_entry; gst_dist_entry; known_entry; unknown_entry;
        routing_entry; sequential_entry;
      ]
