type packet = { coeffs : Bitvec.t; payload : Bitvec.t }

let source_packet ~msgs i =
  let k = Array.length msgs in
  if i < 0 || i >= k then invalid_arg "Rlnc.source_packet";
  { coeffs = Bitvec.unit k i; payload = Bitvec.copy msgs.(i) }

let packet_of_coeffs ~msgs coeffs =
  let k = Array.length msgs in
  if Bitvec.length coeffs <> k then invalid_arg "Rlnc.packet_of_coeffs";
  let msg_len = if k = 0 then 0 else Bitvec.length msgs.(0) in
  let payload = Bitvec.create msg_len in
  for i = 0 to k - 1 do
    if Bitvec.get coeffs i then Bitvec.xor_into ~dst:payload msgs.(i)
  done;
  { coeffs; payload }

let packet_bits p = Bitvec.length p.coeffs + Bitvec.length p.payload

(* Row-echelon basis: [rows.(p)] is [Some row] whose coefficient vector has
   its lowest set bit at position [p] and zeros below [p] in all other
   stored rows (full reduction), so rank queries and decoding are O(k). *)
type t = {
  k : int;
  msg_len : int;
  rows : packet option array; (* indexed by pivot position *)
  mutable rank : int;
}

let create ~k ~msg_len =
  if k < 0 || msg_len < 0 then invalid_arg "Rlnc.create";
  { k; msg_len; rows = Array.make (max k 1) None; rank = 0 }

let k t = t.k

let reduce t coeffs payload =
  (* Eliminate every bit sitting at an existing pivot position (ascending
     is enough: stored rows are fully reduced, so each xor only introduces
     bits at non-pivot positions at or above the current one). *)
  let c = Bitvec.copy coeffs and p = Bitvec.copy payload in
  for pos = 0 to t.k - 1 do
    if Bitvec.get c pos then
      match t.rows.(pos) with
      | Some row ->
          Bitvec.xor_into ~dst:c row.coeffs;
          Bitvec.xor_into ~dst:p row.payload
      | None -> ()
  done;
  { coeffs = c; payload = p }

let receive t pkt =
  if Bitvec.length pkt.coeffs <> t.k then
    invalid_arg "Rlnc.receive: coefficient length mismatch";
  if Bitvec.length pkt.payload <> t.msg_len then
    invalid_arg "Rlnc.receive: payload length mismatch";
  let residual = reduce t pkt.coeffs pkt.payload in
  match Bitvec.first_set residual.coeffs with
  | None -> false
  | Some pivot ->
      (* Back-substitute the new pivot into every stored row to keep the
         basis fully reduced. *)
      Array.iteri
        (fun i row ->
          match row with
          | Some r when i <> pivot && Bitvec.get r.coeffs pivot ->
              Bitvec.xor_into ~dst:r.coeffs residual.coeffs;
              Bitvec.xor_into ~dst:r.payload residual.payload
          | Some _ | None -> ())
        t.rows;
      t.rows.(pivot) <- Some residual;
      t.rank <- t.rank + 1;
      true

let rank t = t.rank

let can_decode t = t.rank = t.k

let encode rng t =
  if t.rank = 0 then None
  else begin
    let coeffs = Bitvec.create t.k and payload = Bitvec.create t.msg_len in
    Array.iter
      (fun row ->
        match row with
        | Some r when Rn_util.Rng.bool rng ->
            Bitvec.xor_into ~dst:coeffs r.coeffs;
            Bitvec.xor_into ~dst:payload r.payload
        | Some _ | None -> ())
      t.rows;
    Some { coeffs; payload }
  end

let decode t =
  if not (can_decode t) then None
  else begin
    (* Fully reduced basis with rank = k means rows.(i) has coefficient
       vector e_i, so its payload is exactly message i. *)
    let msgs =
      Array.init t.k (fun i ->
          match t.rows.(i) with
          | Some r ->
              assert (Bitvec.equal r.coeffs (Bitvec.unit t.k i));
              Bitvec.copy r.payload
          | None -> assert false)
    in
    Some msgs
  end

let infected t mu =
  if Bitvec.length mu <> t.k then invalid_arg "Rlnc.infected";
  Array.exists
    (fun row -> match row with Some r -> Bitvec.dot r.coeffs mu | None -> false)
    t.rows

let seed_with_sources t ~msgs =
  if Array.length msgs <> t.k then invalid_arg "Rlnc.seed_with_sources";
  Array.iteri (fun i _ -> ignore (receive t (source_packet ~msgs i))) msgs
