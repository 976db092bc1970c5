(* Deterministic, allocation-free metrics registry.

   Everything is preallocated at [create] time: per-phase counters are flat
   int arrays indexed by phase id, per-round history is a fixed-capacity
   ring buffer, and the receive-round histogram is a flat bin array.  The
   recording ops below are pure int-array mutation — no closures, no
   boxing — so the engine can call them from its [@@zero_alloc_hot] round
   loop without breaking the 0-word quiet-round budget (test/test_alloc.ml).

   Determinism contract: each engine records once per round, after the
   round's deliveries, and phases move only between rounds.  Exported
   output is therefore byte-identical under both engines. *)

type t = {
  n_phases : int;
  hist_width : int;
  mutable phase : int;
  (* Run totals (mirror Engine.stats, but owned by the registry). *)
  mutable rounds : int;
  mutable transmissions : int;
  mutable deliveries : int;
  mutable collisions : int;
  (* Per-phase aggregates, indexed by phase id (last index = overflow bin). *)
  p_rounds : int array;
  p_tx : int array;
  p_del : int array;
  p_col : int array;
  (* Per-round ring buffer: the last [ring_cap] recorded rounds. *)
  ring_cap : int;
  mutable ring_len : int;
  mutable ring_next : int;
  r_round : int array;
  r_phase : int array;
  r_tx : int array;
  r_del : int array;
  r_col : int array;
  (* Receive-round histogram: bin i counts first receives in rounds
     [i*hist_width, (i+1)*hist_width) (last bin = overflow). *)
  hist : int array;
  mutable hist_count : int;
}

let create ?(phases = 64) ?(ring = 1024) ?(hist_bins = 64) ?(hist_width = 1)
    () =
  if phases < 1 then invalid_arg "Metrics.create: phases < 1";
  if ring < 1 then invalid_arg "Metrics.create: ring < 1";
  if hist_bins < 1 then invalid_arg "Metrics.create: hist_bins < 1";
  if hist_width < 1 then invalid_arg "Metrics.create: hist_width < 1";
  {
    n_phases = phases;
    hist_width;
    phase = 0;
    rounds = 0;
    transmissions = 0;
    deliveries = 0;
    collisions = 0;
    p_rounds = Array.make phases 0;
    p_tx = Array.make phases 0;
    p_del = Array.make phases 0;
    p_col = Array.make phases 0;
    ring_cap = ring;
    ring_len = 0;
    ring_next = 0;
    r_round = Array.make ring 0;
    r_phase = Array.make ring 0;
    r_tx = Array.make ring 0;
    r_del = Array.make ring 0;
    r_col = Array.make ring 0;
    hist = Array.make hist_bins 0;
    hist_count = 0;
  }

let reset t =
  t.phase <- 0;
  t.rounds <- 0;
  t.transmissions <- 0;
  t.deliveries <- 0;
  t.collisions <- 0;
  Array.fill t.p_rounds 0 t.n_phases 0;
  Array.fill t.p_tx 0 t.n_phases 0;
  Array.fill t.p_del 0 t.n_phases 0;
  Array.fill t.p_col 0 t.n_phases 0;
  t.ring_len <- 0;
  t.ring_next <- 0;
  Array.fill t.hist 0 (Array.length t.hist) 0;
  t.hist_count <- 0

(* Phase ids out of range are clamped into the first/last bin rather than
   raising: the recording path must never throw mid-round. *)
let set_phase t p =
  t.phase <-
    (if p < 0 then 0 else if p >= t.n_phases then t.n_phases - 1 else p)
[@@zero_alloc_hot]

let record_round t ~round ~transmissions ~deliveries ~collisions =
  let p = t.phase in
  t.rounds <- t.rounds + 1;
  t.transmissions <- t.transmissions + transmissions;
  t.deliveries <- t.deliveries + deliveries;
  t.collisions <- t.collisions + collisions;
  t.p_rounds.(p) <- t.p_rounds.(p) + 1;
  t.p_tx.(p) <- t.p_tx.(p) + transmissions;
  t.p_del.(p) <- t.p_del.(p) + deliveries;
  t.p_col.(p) <- t.p_col.(p) + collisions;
  let i = t.ring_next in
  t.r_round.(i) <- round;
  t.r_phase.(i) <- p;
  t.r_tx.(i) <- transmissions;
  t.r_del.(i) <- deliveries;
  t.r_col.(i) <- collisions;
  let j = i + 1 in
  t.ring_next <- (if j = t.ring_cap then 0 else j);
  if t.ring_len < t.ring_cap then t.ring_len <- t.ring_len + 1
[@@zero_alloc_hot]

let observe_receive_round t r =
  if r >= 0 then begin
    let b = r / t.hist_width in
    let last = Array.length t.hist - 1 in
    let b = if b > last then last else b in
    t.hist.(b) <- t.hist.(b) + 1;
    t.hist_count <- t.hist_count + 1
  end
[@@zero_alloc_hot]

let record_receive_rounds t rr =
  for i = 0 to Array.length rr - 1 do
    observe_receive_round t rr.(i)
  done

(* Read accessors. *)

let current_phase t = t.phase
let n_phases t = t.n_phases
let rounds t = t.rounds
let transmissions t = t.transmissions
let deliveries t = t.deliveries
let collisions t = t.collisions

let check_phase t p ctx =
  if p < 0 || p >= t.n_phases then invalid_arg ctx

let phase_rounds t p =
  check_phase t p "Metrics.phase_rounds";
  t.p_rounds.(p)

let phase_transmissions t p =
  check_phase t p "Metrics.phase_transmissions";
  t.p_tx.(p)

let phase_deliveries t p =
  check_phase t p "Metrics.phase_deliveries";
  t.p_del.(p)

let phase_collisions t p =
  check_phase t p "Metrics.phase_collisions";
  t.p_col.(p)

(* Number of phase bins actually used: 1 + highest phase id with at least
   one recorded round (0 if nothing was recorded). *)
let phases_used t =
  let hi = ref 0 in
  for p = 0 to t.n_phases - 1 do
    if t.p_rounds.(p) > 0 then hi := p + 1
  done;
  !hi

let ring_capacity t = t.ring_cap
let ring_length t = t.ring_len

(* i-th retained round in chronological order, 0 = oldest. *)
let ring_get t i =
  if i < 0 || i >= t.ring_len then invalid_arg "Metrics.ring_get";
  let base = (t.ring_next - t.ring_len + t.ring_cap) mod t.ring_cap in
  let j = (base + i) mod t.ring_cap in
  (t.r_round.(j), t.r_phase.(j), t.r_tx.(j), t.r_del.(j), t.r_col.(j))

let hist_bins t = Array.length t.hist
let hist_width t = t.hist_width
let hist_count t = t.hist_count

let hist_get t b =
  if b < 0 || b >= Array.length t.hist then invalid_arg "Metrics.hist_get";
  t.hist.(b)
